// E16 — Fig. 1 / Example 1: the headline framework comparison.
//
// Five trajectories share a common sub-trajectory and then "move to totally
// different directions". The paper's claim: clustering trajectories AS A WHOLE
// (Gaffney-Smyth regression mixtures, or any whole-trajectory distance) cannot
// discover the common behavior; the partition-and-group framework can.
//
// We run three systems on the same data:
//   1. TRACLUS                       -> must output 1 cluster = the corridor.
//   2. Regression-mixture EM [7,8]   -> whole-trajectory components only.
//   3. k-medoids over DTW distances  -> whole-trajectory groups only.

#include <cstdio>

#include "baseline/kmedoids.h"
#include "baseline/regression_mixture.h"
#include "baseline/warping_distances.h"
#include "bench/bench_util.h"
#include "datagen/common_subtrajectory.h"

int main() {
  using namespace traclus;
  bench::PrintHeader(
      "E16 / bench_fig1_framework_comparison",
      "Figure 1 / Example 1 (common sub-trajectory discovery)",
      "whole-trajectory clustering misses the common sub-trajectory; the "
      "partition-and-group framework discovers it");

  const auto db =
      datagen::GenerateCommonSubTrajectory(
          datagen::CommonSubTrajectoryConfig{});
  bench::PrintDatabaseStats("fig1", db);

  // --- 1. TRACLUS. ---
  const double eps = 10.0;
  const double min_lns = 3;
  const auto result =
      bench::RunPipeline(bench::DbscanEngine(eps, min_lns), db);
  std::printf("\n[TRACLUS] %zu cluster(s)\n",
              result.clustering.clusters.size());
  for (size_t i = 0; i < result.representatives.size(); ++i) {
    const auto& rep = result.representatives[i];
    if (rep.size() < 2) continue;
    std::printf(
        "  representative %zu: (%.1f, %.1f) -> (%.1f, %.1f) — the common "
        "sub-trajectory (|PTR| = %zu of 5 trajectories)\n",
        i, rep.points().front().x(), rep.points().front().y(),
        rep.points().back().x(), rep.points().back().y(),
        cluster::TrajectoryCardinality(result.store,
                                       result.clustering.clusters[i]));
  }
  const auto svg = bench::WriteClusterSvg("fig1_traclus.svg", db, result);
  std::printf("  figure written to %s\n", svg.c_str());

  // --- 2. Regression mixture (whole-trajectory model-based clustering). ---
  baseline::RegressionMixtureConfig rm;
  rm.num_components = 2;
  rm.poly_order = 2;
  const auto fit = baseline::RegressionMixtureClusterer(rm).Fit(db);
  std::printf("\n[Gaffney-Smyth regression mixture, K=2] assignments: ");
  for (const int a : fit.assignments) std::printf("%d ", a);
  std::printf("\n  every trajectory is assigned WHOLE to one component — no "
              "output object isolates the shared corridor.\n");

  // --- 3. DTW + k-medoids (whole-trajectory distance clustering). ---
  baseline::KMedoidsConfig km;
  km.k = 2;
  const auto med = baseline::KMedoids(
      db.size(),
      [&](size_t i, size_t j) { return baseline::DtwDistance(db[i], db[j]); },
      km);
  std::printf("\n[DTW + k-medoids, k=2] assignments: ");
  for (const int a : med.assignments) std::printf("%d ", a);
  std::printf("\n  groups are whole trajectories with large internal DTW "
              "distances (the shared prefix cannot outweigh the divergent "
              "branches):\n");
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = i + 1; j < db.size(); ++j) {
      std::printf("  DTW(TR%zu, TR%zu) = %8.1f%s\n", i + 1, j + 1,
                  baseline::DtwDistance(db[i], db[j]),
                  med.assignments[i] == med.assignments[j]
                      ? "  [same whole-trajectory group]"
                      : "");
    }
  }

  std::printf("\nmeasured: TRACLUS found %zu corridor cluster(s) covering all "
              "5 trajectories; both whole-trajectory baselines produced only "
              "whole-trajectory groups (paper's Example 1).\n",
              result.clustering.clusters.size());
  return 0;
}
