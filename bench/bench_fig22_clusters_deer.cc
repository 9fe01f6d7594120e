// E7 — Fig. 22: the Deer1995 clustering at the optimal parameters.
//
// The paper reports exactly TWO clusters in the two most dense regions
// (ε = 29, MinLns = 8), and notes the center region "is not so dense to be
// identified as a cluster". Our generator plants two heavily-used corridors;
// shape to verify: exactly two clusters, one per planted corridor.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/animal_generator.h"

int main() {
  using namespace traclus;
  bench::PrintHeader("E7 / bench_fig22_clusters_deer",
                     "Figure 22 (clustering result, Deer1995, eps=29 MinLns=8)",
                     "exactly two clusters, in the two most dense regions");

  const auto db = datagen::GenerateAnimals(datagen::Deer1995Config());
  bench::PrintDatabaseStats("Deer1995", db);

  // Visual-inspection optimum near the entropy estimate (1.6).
  const double eps = 1.8;
  const double min_lns = 8;
  const auto result =
      bench::RunPipeline(bench::DbscanEngine(eps, min_lns), db);
  bench::PrintClusteringSummary(eps, min_lns, result);

  // The two planted corridors (ground truth of the synthetic substitution).
  const geom::Point corridor_a(115, 87);   // Midpoint of corridor 1.
  const geom::Point corridor_b(285, 192);  // Midpoint of corridor 2.
  std::printf("\nrepresentative trajectories vs planted corridors:\n");
  for (size_t i = 0; i < result.representatives.size(); ++i) {
    const auto& rep = result.representatives[i];
    if (rep.size() < 2) continue;
    const auto mid = rep[rep.size() / 2];
    const double da = geom::Distance(mid, corridor_a);
    const double db_ = geom::Distance(mid, corridor_b);
    std::printf("  cluster %zu: midpoint (%5.1f, %5.1f) — nearest planted "
                "corridor %s (%.1f away)\n",
                i, mid.x(), mid.y(), da < db_ ? "A" : "B", std::min(da, db_));
  }

  const auto svg = bench::WriteClusterSvg("fig22_deer1995.svg", db, result);
  std::printf(
      "\nmeasured: %zu clusters (paper: 2; generator plants 2 corridors)\n",
      result.clustering.clusters.size());
  std::printf("figure written to %s\n", svg.c_str());
  return 0;
}
