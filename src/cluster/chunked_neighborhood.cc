#include "cluster/chunked_neighborhood.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// Same cell-key mixer as GridNeighborhoodIndex (collisions are harmless;
// correctness never depends on the key).
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

// Pins chunk c; a spill I/O failure has no channel to the provider API.
std::shared_ptr<const traj::SegmentStore> PinChunk(
    const traj::ChunkedSegmentStore& store, size_t c) {
  auto chunk = store.Chunk(c);
  TRACLUS_CHECK(chunk.ok());
  return *std::move(chunk);
}

// Refines query_index against the candidates of chunk c (chunk-local
// indices) and appends the accepted ones as global indices. The query's own
// chunk passes the query store itself as the candidate store, so the tile
// loop applies Definition 4 self-inclusion exactly there.
void RefineChunk(const traj::ChunkedSegmentStore& store,
                 const distance::SegmentDistance& dist,
                 distance::BatchKernel kernel,
                 const traj::SegmentStore& query_store, size_t query_local,
                 size_t query_chunk, size_t c,
                 distance::Candidates candidates, double eps,
                 std::vector<size_t>* out) {
  std::shared_ptr<const traj::SegmentStore> pinned;
  if (c != query_chunk) pinned = PinChunk(store, c);
  const traj::SegmentStore& cand_store =
      c == query_chunk ? query_store : *pinned;
  const size_t before = out->size();
  distance::EpsilonRefineTile(dist, query_store,
                              common::Span<const size_t>(&query_local, 1),
                              cand_store, candidates, eps, out, kernel);
  const size_t base = store.chunk_begin(c);
  for (size_t k = before; k < out->size(); ++k) (*out)[k] += base;
}

}  // namespace

ChunkedGridNeighborhood::ChunkedGridNeighborhood(
    const traj::ChunkedSegmentStore& store,
    const distance::SegmentDistance& dist, double cell_size,
    distance::BatchKernel kernel)
    : store_(store),
      dist_(dist),
      // The shared resolve helper (distance::ResolveBatchKernel), not a
      // provider-local decision: capped streaming runs must honor the knob
      // with exactly the eager path's semantics.
      kernel_(distance::ResolveBatchKernel(kernel)) {
  TRACLUS_CHECK(store.finalized());
  // Identical heuristic to GridNeighborhoodIndex, fed by the catalog MBRs
  // (bit-identical to the monolithic store's): the cell population of this
  // grid equals the monolithic grid's exactly.
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

ChunkedGridNeighborhood::CellCoord ChunkedGridNeighborhood::CellOf(
    double x, double y, double z) const {
  return CellCoord{static_cast<int64_t>(std::floor(x / cell_size_)),
                   static_cast<int64_t>(std::floor(y / cell_size_)),
                   static_cast<int64_t>(std::floor(z / cell_size_))};
}

uint64_t ChunkedGridNeighborhood::CellKey(const CellCoord& c) {
  return Mix(c.x, c.y, c.z);
}

std::vector<size_t> ChunkedGridNeighborhood::Neighbors(size_t query_index,
                                                       double eps) const {
  // Concurrency contract: this class holds no mutex because it has no
  // shared mutable state — the grid (`cells_`, `cell_size_`) is immutable
  // after construction, and all query-time scratch is thread_local or
  // caller-owned. Concurrent Neighbors() calls from pool workers are safe
  // without locking; any future mutable caching must move behind a
  // common::Mutex with TRACLUS_GUARDED_BY annotations (see
  // cluster/neighborhood.h's bounded mode for the pattern).
  thread_local QueryScratch per_thread_scratch;
  return Neighbors(query_index, eps, &per_thread_scratch);
}

std::vector<std::vector<size_t>> ChunkedGridNeighborhood::AllNeighbors(
    double eps, common::ThreadPool& pool) const {
  std::vector<std::vector<size_t>> lists(store_.size());
  pool.ParallelForChunked(
      0, store_.size(), [this, eps, &lists](size_t lo, size_t hi) {
        QueryScratch scratch;
        for (size_t i = lo; i < hi; ++i) {
          lists[i] = Neighbors(i, eps, &scratch);
        }
      });
  return lists;
}

std::vector<size_t> ChunkedGridNeighborhood::AllNeighborhoodSizes(
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

std::vector<std::vector<size_t>> ChunkedGridNeighborhood::NeighborsBatch(
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

std::vector<size_t> ChunkedGridNeighborhood::Neighbors(
    size_t query_index, double eps, QueryScratch* scratch) const {
  TRACLUS_DCHECK(query_index < store_.size());
  const double factor = dist_.LowerBoundFactor();
  std::vector<size_t> out;

  const size_t query_chunk = store_.chunk_of(query_index);
  const size_t query_local = query_index - store_.chunk_begin(query_chunk);
  const std::shared_ptr<const traj::SegmentStore> query_store =
      PinChunk(store_, query_chunk);

  if (factor <= 0.0) {
    // No usable lower bound: full scan, chunks in ascending order — the same
    // ascending emission order as the monolithic whole-range refine.
    for (size_t c = 0; c < store_.num_chunks(); ++c) {
      RefineChunk(store_, dist_, kernel_, *query_store, query_local,
                  query_chunk, c,
                  distance::Candidates::Range(0, store_.chunk_size(c)), eps,
                  &out);
    }
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

  // Candidate generation — identical to the monolithic grid walk, reading
  // only catalog MBRs. Exact membership is decided by the refine below.
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
          if (store_.bbox(i).MinDist(qbox) > radius) continue;
          candidates.push_back(i);
        }
      }
    }
  }

  // Group candidates by chunk (ascending), faulting each candidate chunk
  // once. Accept/reject decisions are order-independent and bit-identical to
  // the monolithic refine; the final sort matches the monolithic path's and
  // erases the grouping order entirely.
  std::sort(candidates.begin(), candidates.end());
  std::vector<size_t>& local = scratch->local;
  size_t k = 0;
  while (k < candidates.size()) {
    const size_t c = store_.chunk_of(candidates[k]);
    const size_t base = store_.chunk_begin(c);
    size_t end = k;
    while (end < candidates.size() && store_.chunk_of(candidates[end]) == c) {
      ++end;
    }
    local.clear();
    for (size_t m = k; m < end; ++m) local.push_back(candidates[m] - base);
    RefineChunk(store_, dist_, kernel_, *query_store, query_local,
                query_chunk, c, distance::Candidates::List(local), eps, &out);
    k = end;
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> ChunkedBruteForceNeighborhood::Neighbors(
    size_t query_index, double eps) const {
  TRACLUS_DCHECK(query_index < store_.size());
  std::vector<size_t> out;
  const size_t query_chunk = store_.chunk_of(query_index);
  const size_t query_local = query_index - store_.chunk_begin(query_chunk);
  const std::shared_ptr<const traj::SegmentStore> query_store =
      PinChunk(store_, query_chunk);
  for (size_t c = 0; c < store_.num_chunks(); ++c) {
    RefineChunk(store_, dist_, kernel_, *query_store, query_local,
                query_chunk, c,
                distance::Candidates::Range(0, store_.chunk_size(c)), eps,
                &out);
  }
  return out;
}

}  // namespace traclus::cluster
