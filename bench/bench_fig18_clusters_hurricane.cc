// E3 — Fig. 18: the hurricane clustering at the optimal parameters.
//
// The paper reports SEVEN clusters: a lower horizontal band of east-to-west
// movements, an upper horizontal band of west-to-east movements, and vertical
// south-to-north connectors — with representative trajectories (thick red
// lines) tracing each common sub-trajectory. Shape to verify: a small number
// of clusters (≈7) whose representatives are horizontal in the lower band
// (westward), horizontal in the upper band (eastward), and vertical between.

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/hurricane_generator.h"

namespace {

// Classifies a representative trajectory by its net direction.
const char* DirectionOf(const traclus::traj::Trajectory& rep) {
  if (rep.size() < 2) return "degenerate";
  const auto d = rep.points().back() - rep.points().front();
  if (std::abs(d.x()) >= std::abs(d.y())) {
    return d.x() < 0 ? "east-to-west" : "west-to-east";
  }
  return d.y() > 0 ? "south-to-north" : "north-to-south";
}

}  // namespace

int main() {
  using namespace traclus;
  bench::PrintHeader(
      "E3 / bench_fig18_clusters_hurricane",
      "Figure 18 (clustering result, hurricane data, eps=30 MinLns=6)",
      "seven clusters: lower E->W band, upper W->E band, vertical S->N");

  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  bench::PrintDatabaseStats("hurricane", db);

  // Visual-inspection optimum for the synthetic set (selected, like the paper,
  // by trying values around the entropy estimate; see EXPERIMENTS.md).
  const double eps = 0.94;
  const double min_lns = 7;
  const auto result =
      bench::RunPipeline(bench::DbscanEngine(eps, min_lns), db);
  bench::PrintClusteringSummary(eps, min_lns, result);

  std::printf("\ncluster directions (paper: E->W, W->E and S->N groups):\n");
  for (size_t i = 0; i < result.representatives.size(); ++i) {
    const auto& rep = result.representatives[i];
    if (rep.size() < 2) continue;
    const auto& f = rep.points().front();
    const auto& b = rep.points().back();
    std::printf(
        "  cluster %zu: %-14s from (%6.1f, %5.1f) to (%6.1f, %5.1f), "
        "%zu segments\n",
        i, DirectionOf(rep), f.x(), f.y(), b.x(), b.y(),
        result.clustering.clusters[i].size());
  }

  const auto svg = bench::WriteClusterSvg("fig18_hurricane.svg", db, result);
  std::printf("\nmeasured: %zu clusters (paper: 7)\n",
              result.clustering.clusters.size());
  std::printf("figure written to %s\n", svg.c_str());
  return 0;
}
