#include "cluster/neighborhood.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/span.h"

namespace traclus::cluster {

namespace {

/// Queries materialized per slice while filling the eager cache: bounds the
/// transient batch vector without changing what ends up resident.
constexpr size_t kEagerFillSlice = 1024;

}  // namespace

std::vector<std::vector<size_t>> NeighborhoodProvider::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(size());
  pool.ParallelFor(0, size(), [this, eps, &lists](size_t i) {
    lists[i] = Neighbors(i, eps);
  });
  return lists;
}

std::vector<size_t> NeighborhoodProvider::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> sizes(size());
  pool.ParallelFor(0, size(), [this, eps, &sizes](size_t i) {
    sizes[i] = Neighbors(i, eps).size();
  });
  return sizes;
}

std::vector<std::vector<size_t>> NeighborhoodProvider::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  pool.ParallelFor(0, queries.size(), [this, eps, &queries, &lists](size_t k) {
    lists[k] = Neighbors(queries[k], eps);
  });
  return lists;
}

NeighborhoodCache::NeighborhoodCache(const NeighborhoodProvider& base,
                                     double eps, common::ThreadPool& pool,
                                     size_t block)
    : base_(&base),
      pool_(&pool),
      eps_(eps),
      block_(block),
      size_(base.size()) {
  if (block_ == 0) {
    // Eager: every list materialized, filled through bounded NeighborsBatch
    // slices (each slice's scratch vector is the only transient overhead).
    lists_.resize(size_);
    std::vector<size_t> queries;
    for (size_t lo = 0; lo < size_; lo += kEagerFillSlice) {
      const size_t hi = std::min(size_, lo + kEagerFillSlice);
      queries.resize(hi - lo);
      for (size_t i = lo; i < hi; ++i) queries[i - lo] = i;
      std::vector<std::vector<size_t>> slice =
          base.NeighborsBatch(queries, eps_, pool);
      for (size_t i = lo; i < hi; ++i) lists_[i] = std::move(slice[i - lo]);
    }
    peak_resident_ = size_;
  } else {
    served_.assign(size_, 0);
  }
}

size_t NeighborhoodCache::resident_lists() const {
  if (block_ == 0) return lists_.size();
  common::MutexLock lock(mu_);
  return parked_.size();
}

size_t NeighborhoodCache::peak_resident_lists() const {
  common::MutexLock lock(mu_);
  return peak_resident_;  // Eager mode set this once in the constructor.
}

std::vector<size_t> NeighborhoodCache::Neighbors(size_t query_index,
                                                 double eps) const {
  TRACLUS_DCHECK(query_index < size_);
  TRACLUS_CHECK_EQ(eps, eps_);  // The cache is bound to one ε.
  if (block_ == 0) return lists_[query_index];

  // Bounded mode: serve-and-evict, the whole transaction under mu_ so
  // concurrent queries observe consistent parked/served state. A parked list
  // is consumed at most once.
  common::MutexLock lock(mu_);
  const auto it = parked_.find(query_index);
  if (it != parked_.end()) {
    std::vector<size_t> list = std::move(it->second);
    parked_.erase(it);
    return list;
  }
  if (served_[query_index]) {
    // Already served and evicted: recompute through the base so repeat
    // access stays exact without growing residency.
    return base_->Neighbors(query_index, eps_);
  }

  // Miss: batch the demanded index together with the following not-yet-served
  // indices (the natural consumption order of a streaming pass), compute the
  // block across the pool, serve the first and park the rest. The batch is
  // sized against the lists already parked so total residency — parked plus
  // the one in flight — never exceeds the block.
  const size_t max_batch =
      block_ > parked_.size() ? block_ - parked_.size() : 1;
  std::vector<size_t> batch;
  batch.reserve(max_batch);
  batch.push_back(query_index);
  served_[query_index] = 1;
  for (size_t i = query_index + 1; i < size_ && batch.size() < max_batch;
       ++i) {
    if (!served_[i]) {
      served_[i] = 1;
      batch.push_back(i);
    }
  }
  std::vector<std::vector<size_t>> lists =
      base_->NeighborsBatch(batch, eps_, *pool_);
  for (size_t k = 1; k < batch.size(); ++k) {
    parked_.emplace(batch[k], std::move(lists[k]));
  }
  // Residency peaks right now: the parked lists plus the one being served.
  peak_resident_ = std::max(peak_resident_, parked_.size() + 1);
  return std::move(lists[0]);
}

std::vector<std::vector<size_t>> NeighborhoodCache::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  if (block_ == 0) return lists_;
  // Bounded mode holds no full copy; delegate the (inherently all-resident)
  // batch to the base provider.
  return base_->AllNeighbors(eps_, pool);
}

std::vector<size_t> NeighborhoodCache::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  if (block_ == 0) {
    std::vector<size_t> sizes(lists_.size());
    for (size_t i = 0; i < lists_.size(); ++i) sizes[i] = lists_[i].size();
    return sizes;
  }
  return base_->AllNeighborhoodSizes(eps_, pool);
}

std::vector<std::vector<size_t>> NeighborhoodCache::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& /*pool*/) const {
  TRACLUS_CHECK_EQ(eps, eps_);
  std::vector<std::vector<size_t>> lists(queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    TRACLUS_DCHECK(queries[k] < size_);
    // Eager: copy out of the resident store. Bounded: serve-and-evict per
    // query, which also consumes any parked list.
    lists[k] = Neighbors(queries[k], eps);
  }
  return lists;
}

std::vector<size_t> BruteForceNeighborhood::Neighbors(size_t query_index,
                                                      double eps) const {
  TRACLUS_DCHECK(query_index < store_.size());
  // Candidates are the whole database, in index order; the batched kernel
  // prunes with the midpoint/half-length bound and refines the rest —
  // exactly the per-pair scan's output, in the same ascending order.
  std::vector<size_t> out;
  distance::EpsilonRefineTile(
      dist_, store_, common::Span<const size_t>(&query_index, 1), store_,
      distance::Candidates::Range(0, store_.size()), eps, &out, kernel_);
  return out;
}

std::vector<std::vector<size_t>> BruteForceNeighborhood::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  // Each chunk's queries share one ε-refine tile over the whole database;
  // lists land in index-addressed slots, so the batch is identical for every
  // thread count (the tile's staging is thread_local — nothing is shared).
  pool.ParallelForChunked(
      0, queries.size(), [this, eps, &queries, &lists](size_t lo, size_t hi) {
        distance::EpsilonRefineTile(
            dist_, store_,
            common::Span<const size_t>(queries.data() + lo, hi - lo), store_,
            distance::Candidates::Range(0, store_.size()), eps,
            lists.data() + lo, kernel_);
      });
  return lists;
}

std::vector<std::vector<size_t>> BruteForceNeighborhood::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> queries(store_.size());
  for (size_t i = 0; i < queries.size(); ++i) queries[i] = i;
  return NeighborsBatch(queries, eps, pool);
}

}  // namespace traclus::cluster
