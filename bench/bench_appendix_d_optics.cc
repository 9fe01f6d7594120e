// E15 — Appendix D: why DBSCAN rather than OPTICS for line segments.
//
// The paper (Fig. 25): within an ε-neighborhood of POINTS, pairwise distances
// are bounded by 2ε; for LINE SEGMENTS they are not, so reachability-distances
// of cluster members stay high (close to ε) and clusters blur into noise on a
// reachability plot. We measure both claims: (a) the max pairwise distance
// inside ε-neighborhoods, for points vs segments; (b) the reachability-
// distance distribution of cluster members relative to ε, for both geometries.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/neighborhood.h"
#include "cluster/optics_segments.h"
#include "common/rng.h"
#include "datagen/hurricane_generator.h"

int main() {
  using namespace traclus;
  using geom::Point;
  using geom::Segment;
  bench::PrintHeader(
      "E15 / bench_appendix_d_optics",
      "Appendix D (Figure 25: eps-neighborhood pairwise distances; OPTICS)",
      "points: pairwise distance <= 2*eps; segments: unbounded, so "
      "reachability stays near eps and clusters are less separable");

  common::Rng rng(7);
  const double eps = 2.0;

  // (a) Points, modeled as zero-length segments: the 2ε bound holds.
  std::vector<Segment> points;
  for (int i = 0; i < 300; ++i) {
    const Point p(rng.Uniform(0, 30), rng.Uniform(0, 30));
    points.emplace_back(p, p, i, i);
  }
  // Segments: a dense mix of short and long segments (the Fig. 25(b) regime).
  std::vector<Segment> segments;
  for (int i = 0; i < 300; ++i) {
    const Point s(rng.Uniform(0, 30), rng.Uniform(0, 30));
    const double len = rng.Bernoulli(0.3) ? rng.Uniform(20, 60)
                                          : rng.Uniform(0.2, 2.0);
    const double ang = rng.Uniform(0, 2 * M_PI);
    segments.emplace_back(
        s, Point(s.x() + len * std::cos(ang), s.y() + len * std::sin(ang)), i,
        i);
  }

  const distance::SegmentDistance dist;
  auto max_intra_neighborhood = [&](std::vector<Segment> objs) {
    const traj::SegmentStore store(std::move(objs));
    const cluster::BruteForceNeighborhood provider(store, dist);
    double worst = 0.0;
    for (size_t i = 0; i < store.size(); ++i) {
      const auto n = provider.Neighbors(i, eps);
      for (size_t a = 0; a < n.size(); ++a) {
        for (size_t b = a + 1; b < n.size(); ++b) {
          worst = std::max(worst, dist(store, n[a], n[b]));
        }
      }
    }
    return worst;
  };

  const double worst_points = max_intra_neighborhood(points);
  const double worst_segments = max_intra_neighborhood(segments);
  std::printf("eps = %.1f\n", eps);
  std::printf("max pairwise distance within an eps-neighborhood:\n");
  std::printf("  points   : %6.2f  (2*eps = %.1f bound %s)\n", worst_points,
              2 * eps, worst_points <= 2 * eps + 1e-9 ? "HOLDS" : "VIOLATED");
  std::printf("  segments : %6.2f  (2*eps = %.1f bound %s)\n\n", worst_segments,
              2 * eps, worst_segments <= 2 * eps + 1e-9 ? "holds" : "EXCEEDED, "
              "as Appendix D argues");

  // (b) Reachability on a real-ish workload: hurricane partitions.
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 120;
  const auto db = datagen::GenerateHurricanes(gen);
  const auto hsegs =
      bench::PartitionOnly(bench::BuildOrDie(core::TraclusEngine::Builder()),
                           db);
  const cluster::BruteForceNeighborhood provider(hsegs, dist);
  cluster::OpticsOptions oopt;
  oopt.eps = 1.5;
  oopt.min_lns = 5;
  const auto optics = cluster::OpticsSegments(hsegs, dist, provider, oopt);

  std::vector<double> finite;
  for (const double r : optics.reachability) {
    if (r != cluster::kUndefinedReachability) finite.push_back(r);
  }
  std::sort(finite.begin(), finite.end());
  auto pct = [&](double q) {
    return finite[static_cast<size_t>(q * (finite.size() - 1))];
  };
  std::printf(
      "OPTICS reachability over %zu hurricane partitions (eps = %.1f):\n",
      hsegs.size(), oopt.eps);
  std::printf("  reachable segments: %zu; median %.3f, p90 %.3f, p99 %.3f "
              "(fractions of eps: %.2f / %.2f / %.2f)\n",
              finite.size(), pct(0.5), pct(0.9), pct(0.99), pct(0.5) / oopt.eps,
              pct(0.9) / oopt.eps, pct(0.99) / oopt.eps);
  std::printf("\npaper shape: segment reachability concentrates near eps "
              "(high p50/eps ratio), making cluster valleys shallow — the "
              "reason TRACLUS uses DBSCAN.\n");
  return 0;
}
