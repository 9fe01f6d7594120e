// E6 — Fig. 21: the Elk1993 clustering at the optimal parameters.
//
// The paper reports THIRTEEN clusters "in the most of the dense regions", and
// — crucially — NO cluster in the dense-looking upper-right region, because
// the elk crossed it along different paths. Our generator plants 13 shared
// corridors plus a divergent region at (340, 250); shape to verify: cluster
// count of the order of the planted 13, and no representative inside the
// divergent region.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/animal_generator.h"

int main() {
  using namespace traclus;
  bench::PrintHeader(
      "E6 / bench_fig21_clusters_elk",
      "Figure 21 (clustering result, Elk1993, eps=27 MinLns=9)",
      "thirteen clusters in dense regions; none in the dense-but-divergent "
      "upper-right region");

  const auto db = datagen::GenerateAnimals(datagen::Elk1993Config());
  bench::PrintDatabaseStats("Elk1993", db);

  // Visual-inspection optimum around the entropy estimate (EXPERIMENTS.md).
  const double eps = 2.94;
  const double min_lns = 10;
  const auto result =
      bench::RunPipeline(bench::DbscanEngine(eps, min_lns), db);
  bench::PrintClusteringSummary(eps, min_lns, result);

  // The divergent region check (paper: "the result having no cluster in that
  // region is verified to be correct").
  const geom::Point divergent_center(340, 250);
  int in_divergent = 0;
  std::printf("\nrepresentative trajectories:\n");
  for (size_t i = 0; i < result.representatives.size(); ++i) {
    const auto& rep = result.representatives[i];
    if (rep.size() < 2) continue;
    const auto mid = rep[rep.size() / 2];
    const bool divergent = geom::Distance(mid, divergent_center) < 35.0;
    in_divergent += divergent ? 1 : 0;
    std::printf(
        "  cluster %2zu: (%5.1f, %5.1f) -> (%5.1f, %5.1f), %4zu segments%s\n",
        i, rep.points().front().x(), rep.points().front().y(),
        rep.points().back().x(), rep.points().back().y(),
        result.clustering.clusters[i].size(),
        divergent ? "  [in divergent region!]" : "");
  }

  const auto svg = bench::WriteClusterSvg("fig21_elk1993.svg", db, result);
  std::printf(
      "\nmeasured: %zu clusters (paper: 13; generator plants 13 corridors)\n",
      result.clustering.clusters.size());
  std::printf("measured: %d representative(s) inside the divergent region "
              "(paper: 0)\n", in_divergent);
  std::printf("figure written to %s\n", svg.c_str());
  return 0;
}
