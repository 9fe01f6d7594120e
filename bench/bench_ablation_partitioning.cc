// E18 — Ablation of the partitioning design decisions DESIGN.md §4 calls out:
//   (a) MDL encoder variant (paper's log2-clamped vs log2(1+x));
//   (b) partition suppression (§4.1.3: longer partitions improve clustering);
//   (c) partitioner choice: MDL vs Douglas-Peucker vs equal-interval.
// For each configuration we report compression (points per partition) and the
// resulting cluster structure on the hurricane workload at fixed (eps, MinLns).

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "datagen/hurricane_generator.h"
#include "eval/cluster_stats.h"
#include "partition/douglas_peucker.h"
#include "partition/equal_interval.h"
#include "partition/partitioner.h"

namespace {

using namespace traclus;

void Report(const char* label, const traj::TrajectoryDatabase& db,
            const traj::SegmentStore& store) {
  const auto clustering =
      bench::GroupOnly(bench::DbscanEngine(0.94, 7), store);
  const auto stats = eval::SummarizeClustering(store.segments(), clustering);
  std::printf(
      "%-26s: %6zu partitions (%4.1f pts/partition) -> %2zu clusters, "
      "%5zu noise\n",
      label, store.size(),
      static_cast<double>(db.TotalPoints()) /
          std::max<size_t>(1, store.size()),
      stats.num_clusters, stats.num_noise);
}

traj::SegmentStore PartitionWith(
    const partition::TrajectoryPartitioner& partitioner,
    const traj::TrajectoryDatabase& db) {
  std::vector<geom::Segment> segments;
  for (const auto& tr : db.trajectories()) {
    const auto cp = partitioner.CharacteristicPoints(tr);
    const auto part = partition::MakePartitionSegments(
        tr, cp, static_cast<geom::SegmentId>(segments.size()));
    segments.insert(segments.end(), part.begin(), part.end());
  }
  return traj::SegmentStore(std::move(segments));
}

}  // namespace

int main() {
  bench::PrintHeader("E18 / bench_ablation_partitioning",
                     "DESIGN.md §4 ablations (encoder, suppression, "
                     "partitioner)",
                     "MDL with suppression ~20-30%% longer partitions improves "
                     "clustering (§4.1.3); MDL needs no tolerance knob (§3.2)");

  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  bench::PrintDatabaseStats("hurricane", db);
  std::printf("\nfixed grouping parameters: eps = 0.94, MinLns = 7\n\n");

  // (a)+(b) MDL encoder x suppression.
  for (const auto enc : {partition::MdlEncoding::kLog2Clamped,
                         partition::MdlEncoding::kLog2Plus1}) {
    for (const double sup : {0.0, 2.0, 4.0}) {
      core::MdlPartitionOptions partition;
      partition.mdl.encoding = enc;
      partition.mdl.suppression_bits = sup;
      const auto segments = bench::PartitionOnly(
          bench::BuildOrDie(
              core::TraclusEngine::Builder().UseMdlPartitioning(partition)),
          db);
      char label[64];
      std::snprintf(label, sizeof(label), "MDL %s sup=%.0f",
                    enc == partition::MdlEncoding::kLog2Clamped ? "clamped"
                                                                : "log2(1+x)",
                    sup);
      Report(label, db, segments);
    }
  }
  std::printf("\n");

  // (c) Baseline partitioners at several tolerances/strides.
  for (const double tol : {0.5, 1.0, 2.0}) {
    const partition::DouglasPeuckerPartitioner dp(tol);
    char label[64];
    std::snprintf(label, sizeof(label), "Douglas-Peucker tol=%.1f", tol);
    Report(label, db, PartitionWith(dp, db));
  }
  for (const size_t stride : {size_t{1}, size_t{4}, size_t{8}}) {
    const partition::EqualIntervalPartitioner eq(stride);
    char label[64];
    std::snprintf(label, sizeof(label), "equal-interval stride=%zu", stride);
    Report(label, db, PartitionWith(eq, db));
  }

  std::printf(
      "\nreading: MDL reaches corridor-scale clusters without a per-data-set "
      "tolerance; Douglas-Peucker needs tol tuned per workload; equal-interval "
      "at small stride floods the grouping phase with short segments (the "
      "Fig. 11 over-clustering hazard).\n");
  return 0;
}
