#ifndef TRACLUS_BENCH_BENCH_UTIL_H_
#define TRACLUS_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benches. Each bench binary prints
// the series/rows of one paper artifact (see DESIGN.md §3) and, where the
// paper's figure is a map plot, writes an SVG into bench_out/.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "cluster/representative.h"
#include "core/engine.h"
#include "eval/cluster_stats.h"
#include "traj/svg_writer.h"
#include "traj/trajectory_database.h"

namespace traclus::bench {

/// Builds the assembled engine, dying loudly on misconfiguration — benches
/// hardcode their configs, so a rejection is a bench bug, not a runtime
/// condition to handle.
inline core::TraclusEngine BuildOrDie(
    const core::TraclusEngine::Builder& builder) {
  auto engine = builder.Build();
  if (!engine.ok()) {
    std::fprintf(stderr, "bench engine config rejected: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return std::move(engine).ValueOrDie();
}

/// The paper's default assembly at (ε, MinLns): approximate MDL
/// partitioning, grid-indexed DBSCAN, and the sweep at the same MinLns (the
/// paper's choice for the representative threshold).
inline core::TraclusEngine DbscanEngine(double eps, double min_lns) {
  core::DbscanGroupOptions group;
  group.eps = eps;
  group.min_lns = min_lns;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = min_lns;
  return BuildOrDie(core::TraclusEngine::Builder()
                        .UseDbscanGrouping(group)
                        .UseSweepRepresentatives(reps));
}

/// Full pipeline run (Fig. 4) on the engine API.
inline core::TraclusResult RunPipeline(const core::TraclusEngine& engine,
                                       const traj::TrajectoryDatabase& db) {
  auto result = engine.Run(db);
  if (!result.ok()) {
    std::fprintf(stderr, "bench pipeline run failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).ValueOrDie();
}

/// Partitioning stage only (Fig. 4 lines 01-03): returns the frozen segment
/// store, the currency the later stages consume.
inline traj::SegmentStore PartitionOnly(const core::TraclusEngine& engine,
                                        const traj::TrajectoryDatabase& db) {
  auto partitioned = engine.Partition(db);
  if (!partitioned.ok()) {
    std::fprintf(stderr, "bench partition stage failed: %s\n",
                 partitioned.status().ToString().c_str());
    std::abort();
  }
  return std::move(partitioned->store);
}

/// Grouping stage only (Fig. 4 line 04) on a prebuilt segment store.
inline cluster::ClusteringResult GroupOnly(const core::TraclusEngine& engine,
                                           const traj::SegmentStore& store) {
  auto grouped = engine.Group(store);
  if (!grouped.ok()) {
    std::fprintf(stderr, "bench group stage failed: %s\n",
                 grouped.status().ToString().c_str());
    std::abort();
  }
  return std::move(grouped).ValueOrDie();
}

/// Directory for bench artifacts (SVG plots, CSV series). Created on demand;
/// falls back to the current directory on failure.
inline std::string OutDir() {
  const char* dir = "bench_out";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return ec ? std::string(".") : std::string(dir);
}

/// Prints the standard bench header naming the paper artifact reproduced.
inline void PrintHeader(const char* experiment_id, const char* paper_artifact,
                        const char* paper_result) {
  std::printf("============================================================\n");
  std::printf("%s — reproduces %s\n", experiment_id, paper_artifact);
  std::printf("paper reports: %s\n", paper_result);
  std::printf("============================================================\n");
}

/// Prints database shape (the paper quotes these in §5.1).
inline void PrintDatabaseStats(const char* name,
                               const traj::TrajectoryDatabase& db) {
  const auto st = db.Stats();
  std::printf(
      "data set %-12s: %zu trajectories, %zu points (mean length %.1f)\n",
      name, st.num_trajectories, st.num_points, st.mean_length);
}

/// Renders a clustering result in the style of Figs. 18/21/22/23: trajectories
/// thin green, representative trajectories thick red. Returns the output path.
inline std::string WriteClusterSvg(const std::string& filename,
                                   const traj::TrajectoryDatabase& db,
                                   const core::TraclusResult& result) {
  const auto st = db.Stats();
  traj::SvgWriter svg(st.bounds);
  svg.AddDatabase(db, "#2e8b57", 0.5);
  for (const auto& rep : result.representatives) {
    svg.AddTrajectory(rep, "#cc0000", 3.0);
  }
  const std::string path = OutDir() + "/" + filename;
  const auto status = svg.Save(path);
  if (!status.ok()) {
    std::fprintf(stderr, "warning: %s\n", status.ToString().c_str());
  }
  return path;
}

/// Prints a one-line clustering summary (the quantities §5.2-§5.4 quote).
inline void PrintClusteringSummary(
    double eps, double min_lns, const std::vector<geom::Segment>& segments,
    const cluster::ClusteringResult& clustering) {
  const auto stats = eval::SummarizeClustering(segments, clustering);
  std::printf(
      "eps=%-6.2f MinLns=%-3.0f -> %2zu clusters | avg %6.1f segs/cluster | "
      "%5zu noise segs | avg |PTR| %.1f\n",
      eps, min_lns, stats.num_clusters, stats.avg_segments_per_cluster,
      stats.num_noise, stats.avg_trajectory_cardinality);
}

inline void PrintClusteringSummary(double eps, double min_lns,
                                   const core::TraclusResult& result) {
  PrintClusteringSummary(eps, min_lns, result.segments(), result.clustering);
}

}  // namespace traclus::bench

#endif  // TRACLUS_BENCH_BENCH_UTIL_H_
