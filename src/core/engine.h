#ifndef TRACLUS_CORE_ENGINE_H_
#define TRACLUS_CORE_ENGINE_H_

// TraclusEngine: the composable, error-aware pipeline API.
//
// The paper presents TRACLUS as a three-stage pipeline (Fig. 4): partition →
// group → represent. The engine makes that structure the public API: each
// stage is a pluggable interface (core/stages.h), an engine is an immutable
// assembly of one implementation per stage built by TraclusEngine::Builder
// (which validates the whole configuration up front), and every entry point
// returns common::Result<T> — invalid configuration, empty input, ε/MinLns
// domain errors, and cancellations come back as typed Status codes instead of
// silent defaults or asserts. Execution parameters (threads, progress,
// cancellation, kernel, cache and chunk knobs) travel per run in a RunContext,
// so one engine can serve many concurrent runs; everything that configures a
// stage lives in that stage's options.
//
//   auto engine = core::TraclusEngine::Builder()
//                     .UseMdlPartitioning()
//                     .UseDbscanGrouping({.eps = 12.0, .min_lns = 4})
//                     .UseSweepRepresentatives({.min_lns = 4})
//                     .Build();
//   if (!engine.ok()) { /* engine.status() says what is wrong */ }
//   auto result = engine->Run(db);
//
// The legacy monolithic `core::Traclus` façade has been removed; the golden
// pipeline tests (tests/engine_api_test.cc + tests/golden/) pin the engine's
// output bit-for-bit across refactors instead.

#include <memory>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/representative.h"
#include "common/result.h"
#include "core/sharded_stage.h"
#include "core/sieve_stage.h"
#include "core/stages.h"
#include "distance/segment_distance.h"
#include "partition/mdl.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"
#include "traj/source.h"
#include "traj/trajectory.h"
#include "traj/trajectory_database.h"

namespace traclus::core {

/// Everything TRACLUS produces, including intermediate artifacts that the
/// paper's experiments measure.
struct TraclusResult {
  /// The segment database D accumulated by the partitioning phase (Fig. 4
  /// line 03): all trajectory partitions with provenance plus their cached
  /// invariants, as a traj::SegmentStore.
  traj::SegmentStore store;
  /// Characteristic-point indices per input trajectory (parallel to the input
  /// database order).
  std::vector<std::vector<size_t>> characteristic_points;
  /// The grouping-phase output O = {C_1, ..., C_numclus}.
  cluster::ClusteringResult clustering;
  /// One representative trajectory per cluster (empty when disabled).
  std::vector<traj::Trajectory> representatives;
  /// Streaming runs only (Run(TrajectorySource&)): the chunked segment
  /// database the run ingested into; null for eager runs. When the run was
  /// residency-capped (RunContext::max_resident_chunks > 0), `store` above is
  /// left EMPTY — materializing it would defeat the cap — and consumers read
  /// segments through this store's Chunk()/Merge(). Uncapped streaming runs
  /// fill both (`store` is the merged database the grouping phase ran on).
  std::shared_ptr<const traj::ChunkedSegmentStore> chunked_store;

  /// Array-of-structs view of the segment database (borrowed from the store).
  const std::vector<geom::Segment>& segments() const {
    return store.segments();
  }
};

/// An immutable assembly of the three pipeline stages. Thread-compatible:
/// every entry point is const, and per-run state lives in the RunContext, so
/// one engine may serve concurrent runs.
///
/// Error contract (every entry point returns common::Result<T>):
///   kInvalidArgument     — configuration that can never be valid (missing
///                          stage, negative γ, negative distance weights).
///   kOutOfRange          — ε/MinLns outside their domains (ε ≤ 0, MinLns <
///                          1, OPTICS cut > generating ε).
///   kFailedPrecondition  — structurally empty input (no trajectories, or a
///                          clustering that does not match the segment set).
///   kCancelled           — the RunContext's cancellation token fired.
class TraclusEngine {
 public:
  /// Assembles and validates an engine. Every `Use*` shortcut wires one of
  /// the library's stage adapters (core/stages.h); the `Set*Stage` overloads
  /// accept custom implementations. `Build()` runs every stage's `Validate()`
  /// and returns the first failure instead of an engine — misconfiguration
  /// surfaces before any data is touched, never as an assert mid-run.
  class Builder {
   public:
    Builder();

    /// Replaces the partition stage with a custom implementation.
    Builder& SetPartitionStage(std::shared_ptr<const PartitionStage> stage);
    /// Replaces the group stage with a custom implementation.
    Builder& SetGroupStage(std::shared_ptr<const GroupStage> stage);
    /// Replaces the representative stage; pass nullptr to disable stage 3
    /// (equivalent to WithoutRepresentatives).
    Builder& SetRepresentativeStage(
        std::shared_ptr<const RepresentativeStage> stage);

    /// Stage adapters over the library's algorithms.
    Builder& UseMdlPartitioning(const MdlPartitionOptions& options = {});
    Builder& UseDbscanGrouping(const DbscanGroupOptions& options);
    Builder& UseOpticsGrouping(const OpticsGroupOptions& options);
    Builder& UseSweepRepresentatives(
        const SweepRepresentativeOptions& options = {});
    /// Wraps the currently configured group stage in a SieveGroupStage
    /// (core/sieve_stage.h): with `options.k` ≥ 2, runs group only every
    /// k-th trajectory through the wrapped backend and batch-assign the rest
    /// to the nearest cluster within `options.eps`. Call after the grouping
    /// backend is chosen (Use*Grouping / SetGroupStage); calling it with no
    /// group stage configured is a Build() validation failure.
    Builder& WithSieveGrouping(const SieveGroupOptions& options);
    /// Wraps the currently configured group stage in a ShardedGroupStage
    /// (core/sharded_stage.h): with `options.shards` ≥ 2, runs decompose the
    /// segment database over a cell grid, run the wrapped backend
    /// independently per shard (in parallel across the run's threads), and
    /// merge shard-border clusters through a halo exchange behind the
    /// communicator seam. Same call-after-the-backend contract as
    /// WithSieveGrouping. Composes with the sieve: apply sharding first so
    /// the sieve's sampled sub-database is what gets sharded.
    Builder& WithShardedGrouping(const ShardedGroupOptions& options);
    /// Disables representative generation (stage 3 is skipped; Run returns an
    /// empty `representatives` vector).
    Builder& WithoutRepresentatives();

    /// Validates the assembly and every stage's configuration; returns the
    /// engine or the first validation failure.
    common::Result<TraclusEngine> Build() const;

   private:
    std::shared_ptr<const PartitionStage> partition_;
    std::shared_ptr<const GroupStage> group_;
    /// Null = stage 3 disabled (WithoutRepresentatives).
    std::shared_ptr<const RepresentativeStage> representative_;
  };

  /// Runs the full pipeline (Fig. 4). Stage errors and cancellation propagate;
  /// a database with zero trajectories is kFailedPrecondition.
  common::Result<TraclusResult> Run(const traj::TrajectoryDatabase& db,
                                    const RunContext& ctx = {}) const;

  /// Streaming-ingest pipeline: pulls trajectories from `source` one block at
  /// a time, partitions each block on arrival, and appends the resulting
  /// segments straight into a ChunkedSegmentStore shaped by the RunContext's
  /// chunk knobs — the full TrajectoryDatabase is never materialized. After
  /// ingest, an uncapped run (max_resident_chunks == 0) merges the chunks and
  /// executes the ordinary grouping/representative stages; a capped run
  /// executes the stages' RunChunked paths, under which at most
  /// max_resident_chunks payload chunks are cache-resident at any point.
  ///
  /// Output is bit-identical to Run(DrainToDatabase(source)) for every chunk
  /// capacity, residency cap, thread count, and kernel choice (the golden
  /// matrix in tests/streaming_engine_test.cc pins this); see
  /// TraclusResult::chunked_store for which result fields a capped run fills.
  /// A source that fails mid-stream propagates its typed status (naming the
  /// offending line for CSV sources) and no partial result escapes; an
  /// exhausted source with zero trajectories is kFailedPrecondition, like the
  /// empty-database eager run.
  common::Result<TraclusResult> Run(traj::TrajectorySource& source,
                                    const RunContext& ctx = {}) const;

  /// Runs only the partitioning stage (Fig. 4 lines 01-03).
  common::Result<PartitionOutput> Partition(const traj::TrajectoryDatabase& db,
                                            const RunContext& ctx = {}) const;

  /// Runs only the grouping stage (Fig. 4 line 04) on a prebuilt segment
  /// store. An empty store is valid input (an empty clustering results).
  /// Callers holding a raw segment vector freeze it explicitly:
  /// `engine.Group(traj::SegmentStore::FromSegments(std::move(segments)))`.
  common::Result<cluster::ClusteringResult> Group(
      const traj::SegmentStore& store, const RunContext& ctx = {}) const;

  /// Runs only the representative stage (Fig. 4 lines 05-06). Returns
  /// kFailedPrecondition when the engine was built WithoutRepresentatives or
  /// when `clustering` refers to segments outside the store.
  common::Result<std::vector<traj::Trajectory>> Representatives(
      const traj::SegmentStore& store,
      const cluster::ClusteringResult& clustering,
      const RunContext& ctx = {}) const;

  const PartitionStage& partition_stage() const { return *partition_; }
  const GroupStage& group_stage() const { return *group_; }
  /// Null when the engine was built WithoutRepresentatives.
  const RepresentativeStage* representative_stage() const {
    return representative_.get();
  }

 private:
  TraclusEngine(std::shared_ptr<const PartitionStage> partition,
                std::shared_ptr<const GroupStage> group,
                std::shared_ptr<const RepresentativeStage> representative)
      : partition_(std::move(partition)),
        group_(std::move(group)),
        representative_(std::move(representative)) {}

  /// The tail both eager-shaped runs share: groups `out->store`, then (when
  /// stage 3 is enabled) sweeps its clusters into `out->representatives`.
  common::Status GroupAndRepresent(TraclusResult* out,
                                   const RunContext& ctx) const;

  std::shared_ptr<const PartitionStage> partition_;
  std::shared_ptr<const GroupStage> group_;
  std::shared_ptr<const RepresentativeStage> representative_;  // May be null.
};

}  // namespace traclus::core

#endif  // TRACLUS_CORE_ENGINE_H_
