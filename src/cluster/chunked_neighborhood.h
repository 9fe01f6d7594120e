#ifndef TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_

// ε-neighborhood providers over a ChunkedSegmentStore — the query side of
// the out-of-core grouping path.
//
// Both providers replicate their monolithic counterparts exactly:
//
//   * Candidate generation runs entirely on the chunked store's
//     always-resident catalog (per-segment MBRs, midpoints, half-lengths).
//     The grid is built from the same bboxes with the same cell-size
//     heuristic and the same insertion order as GridNeighborhoodIndex over
//     the merged store, so the cell population is identical.
//   * Refinement faults payload chunks on demand: candidates are grouped by
//     chunk and each group goes through distance::EpsilonRefineTile with the
//     query's chunk store as the query store. The query's own chunk passes
//     that same store as the candidate store, which is where the tile loop
//     applies Definition 4 self-inclusion. Chunk-local stores cache
//     bit-identical invariants, so each accepted/rejected decision — prune
//     included — matches the monolithic refine bit-for-bit, and the final
//     per-query sort makes the emitted order independent of chunk grouping.
//     Lists are therefore byte-identical to the monolithic provider's for
//     every chunk capacity and residency cap.
//
// Residency: one query pins at most two chunks at a time (the query's chunk
// and the candidate chunk being refined); the store's LRU cache bounds
// cache-owned residency at its cap throughout. A spill-file I/O failure
// while faulting a chunk is a process-level failure (the provider interface
// has no error channel); it aborts via TRACLUS_CHECK.
//
// Thread-safety contract: the providers hold no mutex and need no
// capability annotations because they own no shared mutable state — the
// grid and catalog references are immutable after construction, query
// scratch is thread_local or caller-owned, and concurrent chunk faults
// synchronize inside ChunkedSegmentStore (whose spill/LRU state is
// TRACLUS_GUARDED_BY its internal common::Mutex). Concurrent Neighbors()
// calls from pool workers are safe and byte-deterministic.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/neighborhood.h"
#include "geom/bbox.h"
#include "traj/chunked_store.h"

namespace traclus::cluster {

/// Grid-indexed exact ε-neighborhoods over a finalized ChunkedSegmentStore.
/// The chunked analogue of GridNeighborhoodIndex: same cells, same prunes,
/// byte-identical lists.
class ChunkedGridNeighborhood : public NeighborhoodProvider {
 public:
  /// `store` (finalized) and `dist` must outlive the provider. `cell_size`
  /// ≤ 0 selects the automatic heuristic (twice the mean catalog-MBR
  /// extent); `kernel` selects the refinement kernel for same-chunk and
  /// cross-chunk batches alike (results identical for every choice by the
  /// SIMD lane-equivalence invariant).
  ChunkedGridNeighborhood(
      const traj::ChunkedSegmentStore& store,
      const distance::SegmentDistance& dist, double cell_size = 0.0,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  /// Per-caller query state: dedup stamps, the gathered global candidates,
  /// and chunk-local staging for the refine calls. One scratch must never be
  /// used by two threads at once.
  struct QueryScratch {
    std::vector<uint32_t> visit_stamp;
    uint32_t stamp = 0;
    std::vector<size_t> candidates;
    std::vector<size_t> local;
  };

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;

  /// Thread-safe query against caller-owned scratch.
  std::vector<size_t> Neighbors(size_t query_index, double eps,
                                QueryScratch* scratch) const;

  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;

  size_t size() const override { return store_.size(); }

  double cell_size() const { return cell_size_; }
  size_t NumCells() const { return cells_.size(); }

 private:
  struct CellCoord {
    int64_t x;
    int64_t y;
    int64_t z;
  };

  CellCoord CellOf(double x, double y, double z) const;
  static uint64_t CellKey(const CellCoord& c);

  const traj::ChunkedSegmentStore& store_;
  const distance::SegmentDistance& dist_;
  distance::BatchKernel kernel_;
  double cell_size_ = 1.0;
  int dims_ = 2;
  std::unordered_map<uint64_t, std::vector<size_t>> cells_;
};

/// Whole-database-scan provider over a chunked store — the chunked analogue
/// of BruteForceNeighborhood (the Lemma 3 "no index" configuration), walking
/// chunks in ascending order so lists come out in the same ascending index
/// order as the monolithic range scan. Byte-identical lists.
class ChunkedBruteForceNeighborhood : public NeighborhoodProvider {
 public:
  ChunkedBruteForceNeighborhood(
      const traj::ChunkedSegmentStore& store,
      const distance::SegmentDistance& dist,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto)
      : store_(store),
        dist_(dist),
        kernel_(distance::ResolveBatchKernel(kernel)) {}

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  size_t size() const override { return store_.size(); }

 private:
  const traj::ChunkedSegmentStore& store_;
  const distance::SegmentDistance& dist_;
  /// Resolved through the shared distance::ResolveBatchKernel helper at
  /// construction, so capped streaming runs honor the knob exactly like
  /// eager runs (kAuto/kSimd degrade identically in every binary).
  distance::BatchKernel kernel_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
