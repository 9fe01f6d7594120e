#include "cluster/neighborhood_index.h"

#include <algorithm>
#include <cmath>

namespace traclus::cluster {

namespace {

// Mixes three 21-bit-truncated cell coordinates into one key. Collisions are
// harmless (cells just share a bucket); correctness never depends on the key.
uint64_t Mix(int64_t x, int64_t y, int64_t z) {
  const uint64_t a = static_cast<uint64_t>(x) * 0x9E3779B97F4A7C15ull;
  const uint64_t b = static_cast<uint64_t>(y) * 0xC2B2AE3D27D4EB4Full;
  const uint64_t c = static_cast<uint64_t>(z) * 0x165667B19E3779F9ull;
  uint64_t h = a ^ (b >> 1) ^ (c << 1);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

}  // namespace

GridNeighborhoodIndex::GridNeighborhoodIndex(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    double cell_size, distance::BatchKernel kernel)
    : store_(store), dist_(dist), kernel_(kernel) {
  // Per-segment MBRs are an invariant the store already caches; the index
  // only derives its cell size from them.
  double extent_sum = 0.0;
  for (const geom::BBox& b : store_.bboxes()) {
    for (int d = 0; d < b.dims(); ++d) extent_sum += b.Extent(d);
  }
  dims_ = store_.dims();

  if (cell_size > 0.0) {
    cell_size_ = cell_size;
  } else {
    const double denom =
        std::max<size_t>(1, store_.size()) * std::max(1, dims_);
    const double mean_extent = extent_sum / static_cast<double>(denom);
    cell_size_ = std::max(2.0 * mean_extent, 1e-9);
  }

  for (size_t i = 0; i < store_.size(); ++i) {
    const geom::BBox& b = store_.bbox(i);
    const CellCoord lo = CellOf(b.lo(0), b.lo(1), dims_ == 3 ? b.lo(2) : 0.0);
    const CellCoord hi = CellOf(b.hi(0), b.hi(1), dims_ == 3 ? b.hi(2) : 0.0);
    for (int64_t cx = lo.x; cx <= hi.x; ++cx) {
      for (int64_t cy = lo.y; cy <= hi.y; ++cy) {
        for (int64_t cz = lo.z; cz <= hi.z; ++cz) {
          cells_[CellKey({cx, cy, cz})].push_back(i);
        }
      }
    }
  }
}

GridNeighborhoodIndex::CellCoord GridNeighborhoodIndex::CellOf(
    double x, double y, double z) const {
  return CellCoord{static_cast<int64_t>(std::floor(x / cell_size_)),
                   static_cast<int64_t>(std::floor(y / cell_size_)),
                   static_cast<int64_t>(std::floor(z / cell_size_))};
}

uint64_t GridNeighborhoodIndex::CellKey(const CellCoord& c) {
  return Mix(c.x, c.y, c.z);
}

std::vector<size_t> GridNeighborhoodIndex::Neighbors(size_t query_index,
                                                     double eps) const {
  // One scratch per thread makes the index-interface overload safe for
  // concurrent callers. Sharing the scratch across index instances on a
  // thread is fine: stamps grow monotonically per scratch, so marks left by
  // a different index (or an earlier query) are always stale, and the stamp
  // wrap-around path clears everything.
  thread_local QueryScratch per_thread_scratch;
  return Neighbors(query_index, eps, &per_thread_scratch);
}

std::vector<std::vector<size_t>> GridNeighborhoodIndex::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(store_.size());
  // One scratch per contiguous chunk: threads never share dedup stamps, and
  // every list lands in its own index-addressed slot, so the batch is both
  // race-free and bit-identical across thread counts.
  pool.ParallelForChunked(
      0, store_.size(), [this, eps, &lists](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t i = lo; i < hi; ++i) {
          lists[i] = Neighbors(i, eps, &scratch);
        }
      });
  return lists;
}

std::vector<size_t> GridNeighborhoodIndex::AllNeighborhoodSizes(
    double eps, common::ThreadPool& pool) const {
  std::vector<size_t> sizes(store_.size());
  pool.ParallelForChunked(
      0, store_.size(), [this, eps, &sizes](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t i = lo; i < hi; ++i) {
          sizes[i] = Neighbors(i, eps, &scratch).size();
        }
      });
  return sizes;
}

std::vector<std::vector<size_t>> GridNeighborhoodIndex::NeighborsBatch(
    const std::vector<size_t>& queries, double eps,
    common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(queries.size());
  pool.ParallelForChunked(
      0, queries.size(), [this, eps, &queries, &lists](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t k = lo; k < hi; ++k) {
          lists[k] = Neighbors(queries[k], eps, &scratch);
        }
      });
  return lists;
}

std::vector<size_t> GridNeighborhoodIndex::Neighbors(
    size_t query_index, double eps, QueryScratch* scratch) const {
  TRACLUS_DCHECK(query_index < store_.size());
  const double factor = dist_.LowerBoundFactor();
  std::vector<size_t> out;
  const common::Span<const size_t> query(&query_index, 1);

  if (factor <= 0.0) {
    // No usable lower bound for this weight configuration: every segment is
    // a candidate; the kernel refines all of them (its prune uses the same
    // factor and disables itself).
    distance::EpsilonRefineTile(dist_, store_, query, store_,
                                distance::Candidates::Range(0, store_.size()),
                                eps, &out, kernel_);
    return out;
  }

  const double radius = eps / factor;
  const geom::BBox& qbox = store_.bbox(query_index);

  std::vector<uint32_t>& visit_stamp = scratch->visit_stamp;
  visit_stamp.resize(store_.size(), 0u);
  ++scratch->stamp;
  if (scratch->stamp == 0) {  // Wrap-around: reset once every 2^32 queries.
    std::fill(visit_stamp.begin(), visit_stamp.end(), 0u);
    scratch->stamp = 1;
  }
  const uint32_t stamp = scratch->stamp;

  // Candidate generation: deduped cell members whose MBR can be within
  // reach. Exact membership is decided by the batched refine below.
  std::vector<size_t>& candidates = scratch->candidates;
  candidates.clear();
  const CellCoord lo = CellOf(qbox.lo(0) - radius, qbox.lo(1) - radius,
                              dims_ == 3 ? qbox.lo(2) - radius : 0.0);
  const CellCoord hi = CellOf(qbox.hi(0) + radius, qbox.hi(1) + radius,
                              dims_ == 3 ? qbox.hi(2) + radius : 0.0);
  for (int64_t cx = lo.x; cx <= hi.x; ++cx) {
    for (int64_t cy = lo.y; cy <= hi.y; ++cy) {
      for (int64_t cz = lo.z; cz <= hi.z; ++cz) {
        const auto it = cells_.find(CellKey({cx, cy, cz}));
        if (it == cells_.end()) continue;
        for (const size_t i : it->second) {
          if (visit_stamp[i] == stamp) continue;
          visit_stamp[i] = stamp;
          if (i == query_index) {
            candidates.push_back(i);
            continue;
          }
          // Sound prune on cached MBRs.
          if (store_.bbox(i).MinDist(qbox) > radius) continue;
          candidates.push_back(i);
        }
      }
    }
  }
  distance::EpsilonRefineTile(dist_, store_, query, store_,
                              distance::Candidates::List(candidates), eps,
                              &out, kernel_);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace traclus::cluster
