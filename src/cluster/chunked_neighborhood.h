#ifndef TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_

// ε-neighborhood providers over a ChunkedSegmentStore — the query side of
// the out-of-core grouping path.
//
// Candidate generation reads only the store's always-resident catalog: the
// grid provider's SegmentGrid is built from the catalog MBRs. Refinement
// faults payload chunks on demand: candidates are grouped by chunk in
// ascending order, and each group goes through distance::EpsilonRefineTile
// with the query's chunk store as the query store. The query's own chunk
// passes that same store as the candidate store, which is where the tile
// loop applies Definition 4 self-inclusion. Chunk-local stores cache
// bit-identical invariants, so each accept/reject decision — prune included
// — matches the merged store's bit for bit, and ascending chunks of
// ascending candidates emit every list in ascending order. Lists therefore
// equal the eager providers' for every chunk capacity and residency cap.
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
// scratch is per thread, and concurrent chunk faults synchronize inside
// ChunkedSegmentStore (whose spill/LRU state is TRACLUS_GUARDED_BY its
// internal common::Mutex). Concurrent Neighbors() calls from pool workers
// are safe and byte-deterministic, so the batch queries are the
// NeighborhoodProvider fan-outs.

#include <vector>

#include "cluster/neighborhood.h"
#include "cluster/segment_grid.h"
#include "traj/chunked_store.h"

namespace traclus::cluster {

/// Whole-database-scan provider over a finalized chunked store (the Lemma 3
/// "no index" configuration), walking chunks in ascending order so lists
/// come out in ascending index order.
class ChunkedBruteForceNeighborhood : public NeighborhoodProvider {
 public:
  /// `store` (finalized) and `dist` must outlive the provider. The kernel is
  /// resolved through distance::ResolveBatchKernel, so capped streaming runs
  /// honor the knob exactly like eager runs.
  ChunkedBruteForceNeighborhood(
      const traj::ChunkedSegmentStore& store,
      const distance::SegmentDistance& dist,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  size_t size() const override { return store_.size(); }

  const traj::ChunkedSegmentStore& store() const { return store_; }
  const distance::SegmentDistance& dist() const { return dist_; }
  distance::BatchKernel kernel() const { return kernel_; }

 private:
  const traj::ChunkedSegmentStore& store_;
  const distance::SegmentDistance& dist_;
  distance::BatchKernel kernel_;
};

/// Grid-indexed exact ε-neighborhoods over a finalized chunked store: the
/// SegmentGrid walk over the catalog, then the chunk-grouped refine. When
/// the distance has no usable lower bound (c = 0) every query is the
/// ChunkedBruteForceNeighborhood scan.
class ChunkedGridNeighborhood : public NeighborhoodProvider {
 public:
  /// `store` (finalized) and `dist` must outlive the provider. `cell_size`
  /// ≤ 0 selects the automatic heuristic; `kernel` selects the refinement
  /// kernel (results identical for every choice).
  ChunkedGridNeighborhood(
      const traj::ChunkedSegmentStore& store,
      const distance::SegmentDistance& dist, double cell_size = 0.0,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  size_t size() const override { return scan_.size(); }

  double cell_size() const { return grid_.cell_size(); }
  size_t NumCells() const { return grid_.NumCells(); }

 private:
  /// The c = 0 fallback; also the one home of the store, distance and
  /// kernel bindings (and it checks finalization before the grid reads the
  /// catalog).
  ChunkedBruteForceNeighborhood scan_;
  SegmentGrid grid_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_CHUNKED_NEIGHBORHOOD_H_
