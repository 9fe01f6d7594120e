#ifndef TRACLUS_CLUSTER_NEIGHBORHOOD_H_
#define TRACLUS_CLUSTER_NEIGHBORHOOD_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"
#include "traj/segment_store.h"

namespace traclus::cluster {

/// Source of ε-neighborhood queries Nε(L) (Definition 4) over a fixed segment
/// database.
///
/// Implementations are bound to a traj::SegmentStore at construction and must
/// return the indices of ALL segments within distance ε of the query —
/// including the query segment itself, which Definition 4 includes since
/// dist(L, L) = 0. Exactness matters: DBSCAN's output (and the parameter
/// heuristic's entropy) are defined in terms of exact ε-neighborhoods.
///
/// Every provider follows the candidate-generate / refine split: the provider
/// emits index candidates (everything for brute force; a geometrically
/// pruned superset for the grid index) and delegates the exact membership
/// decision to the batched distance kernels (distance::EpsilonRefineTile),
/// which lower-bound-prune and evaluate the §2.3 distance bit-identically to
/// the per-pair cached path. The kernel choice
/// (scalar / AVX2 SIMD) is a construction-time knob on each provider.
class NeighborhoodProvider {
 public:
  virtual ~NeighborhoodProvider() = default;

  /// Indices of all segments within distance `eps` of segment `query_index`.
  virtual std::vector<size_t> Neighbors(size_t query_index,
                                        double eps) const = 0;

  /// Batch query: Nε(L) for every segment, computed across `pool`. Entry i is
  /// exactly `Neighbors(i, eps)` regardless of thread count — results land in
  /// index-addressed slots, so scheduling order cannot reorder them.
  ///
  /// The default implementation fans `Neighbors` out over the pool and
  /// therefore requires `Neighbors` to be safe for concurrent calls (true for
  /// every provider here: the grid indexes keep their query scratch per
  /// thread).
  virtual std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const;

  /// Size-only batch: |Nε(L)| for every segment. Same contract and default
  /// thread-safety requirement as `AllNeighbors`, but each list is discarded
  /// after counting, keeping peak memory at O(n) (the §4.4 entropy sweep
  /// evaluates this at large ε, where the lists themselves approach O(n²)).
  virtual std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const;

  /// Subset batch: Nε(L) for an explicit list of query indices, computed
  /// across `pool`; entry k is exactly `Neighbors(queries[k], eps)`. This is
  /// the block-streamed grouping phase's primitive — it fans a bounded block
  /// of queries out at once, so peak memory stays proportional to the block
  /// rather than to the whole database. Same default thread-safety
  /// requirement as `AllNeighbors`.
  virtual std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const;

  /// Number of segments in the bound database.
  virtual size_t size() const = 0;
};

/// A provider that serves another provider's ε-neighborhoods from memory.
///
/// Two modes:
///   * Eager (`block` = 0, the historical behavior): every list is
///     materialized up front — in bounded NeighborsBatch slices across the
///     pool — and kept resident, so repeated queries run at memory speed.
///   * Bounded (`block` > 0): lists are materialized lazily in blocks of up
///     to `block` consecutive not-yet-served query indices via
///     base.NeighborsBatch, and each list is evicted when served — at most
///     `block` lists are ever resident. Built for consumers that stream each
///     list once (a blocked grouping or counting pass); a re-queried index
///     recomputes through the base provider, so results stay exact for any
///     access pattern. Bounded mode mutates interior state on query; that
///     state is guarded by an internal mutex (annotated, so clang's
///     -Wthread-safety enforces the discipline), which makes concurrent
///     queries race-free — though they serialize on the miss path, so the
///     intended use remains a single streaming consumer. `base` and `pool`
///     must outlive the cache.
///
/// Every served list equals base.Neighbors(i, eps) exactly, so cluster IDs
/// are byte-identical to the direct path in both modes. Bound to one ε at
/// construction; querying a different ε is a programming error (checked).
class NeighborhoodCache : public NeighborhoodProvider {
 public:
  NeighborhoodCache(const NeighborhoodProvider& base, double eps,
                    common::ThreadPool& pool, size_t block = 0);

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  std::vector<size_t> AllNeighborhoodSizes(
      double eps, common::ThreadPool& pool) const override;
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;
  size_t size() const override { return size_; }

  /// Eager mode only: the materialized lists.
  const std::vector<std::vector<size_t>>& lists() const { return lists_; }

  /// Lists currently held in memory.
  size_t resident_lists() const TRACLUS_EXCLUDES(mu_);
  /// High-water mark of resident lists over the cache's lifetime — the
  /// quantity bounded mode promises stays ≤ block
  /// (tests/neighborhood_test.cc asserts it).
  size_t peak_resident_lists() const TRACLUS_EXCLUDES(mu_);

 private:
  const NeighborhoodProvider* base_;
  common::ThreadPool* pool_;
  double eps_;
  size_t block_;
  size_t size_;
  /// Eager mode storage: immutable after construction, read lock-free.
  std::vector<std::vector<size_t>> lists_;
  /// Bounded mode: parked not-yet-served lists, served markers, high-water.
  /// Serve-and-evict mutates these on every query, so they live behind mu_.
  mutable common::Mutex mu_;
  mutable std::unordered_map<size_t, std::vector<size_t>> parked_
      TRACLUS_GUARDED_BY(mu_);
  mutable std::vector<char> served_ TRACLUS_GUARDED_BY(mu_);
  mutable size_t peak_resident_ TRACLUS_GUARDED_BY(mu_) = 0;
};

/// O(n)-per-query reference provider: every segment is a candidate, refined
/// through the batched kernels (with their lower-bound prune).
///
/// The "no index" configuration of Lemma 3 (O(n²) clustering) and the oracle
/// that property tests compare the grid index against.
class BruteForceNeighborhood : public NeighborhoodProvider {
 public:
  /// Both referents must outlive the provider. `kernel` selects the batch
  /// refinement kernel (results identical for every choice).
  BruteForceNeighborhood(
      const traj::SegmentStore& store, const distance::SegmentDistance& dist,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto)
      : store_(store), dist_(dist), kernel_(kernel) {}

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  /// Tile-batched override: each chunk of queries runs as one
  /// distance::EpsilonRefineTile over the whole database, so every candidate
  /// block's SoA columns serve the chunk's queries while hot. Entry k is
  /// exactly Neighbors(queries[k], eps) — the tile's per-query emission
  /// equals the one-query refine bit for bit.
  std::vector<std::vector<size_t>> NeighborsBatch(
      const std::vector<size_t>& queries, double eps,
      common::ThreadPool& pool) const override;
  /// Whole-database batch through the same tiles.
  std::vector<std::vector<size_t>> AllNeighbors(
      double eps, common::ThreadPool& pool) const override;
  size_t size() const override { return store_.size(); }

  const traj::SegmentStore& store() const { return store_; }
  const distance::SegmentDistance& dist() const { return dist_; }
  distance::BatchKernel kernel() const { return kernel_; }

 private:
  const traj::SegmentStore& store_;
  const distance::SegmentDistance& dist_;
  distance::BatchKernel kernel_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_NEIGHBORHOOD_H_
