#include "cluster/segment_grid.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace traclus::cluster {

SegmentGrid::SegmentGrid(const std::vector<geom::BBox>& bboxes, int dims,
                         double cell_size)
    : bboxes_(bboxes), dims_(dims) {
  if (cell_size > 0.0) {
    cell_size_ = cell_size;
  } else {
    double extent_sum = 0.0;
    for (const geom::BBox& b : bboxes_) {
      for (int d = 0; d < b.dims(); ++d) extent_sum += b.Extent(d);
    }
    const double denom =
        std::max<size_t>(1, bboxes_.size()) * std::max(1, dims_);
    const double mean_extent = extent_sum / static_cast<double>(denom);
    cell_size_ = std::max(2.0 * mean_extent, 1e-9);
  }

  for (size_t i = 0; i < bboxes_.size(); ++i) {
    const CellCoord lo = CornerCell(bboxes_[i], 0.0, /*upper=*/false);
    const CellCoord hi = CornerCell(bboxes_[i], 0.0, /*upper=*/true);
    for (int64_t cx = lo.x; cx <= hi.x; ++cx) {
      for (int64_t cy = lo.y; cy <= hi.y; ++cy) {
        for (int64_t cz = lo.z; cz <= hi.z; ++cz) {
          cells_[CellKey(cx, cy, cz)].push_back(i);
        }
      }
    }
  }
}

SegmentGrid::CellCoord SegmentGrid::CornerCell(const geom::BBox& box,
                                               double pad, bool upper) const {
  const auto cell = [&](int d) {
    if (d >= dims_) return int64_t{0};
    const double v = upper ? box.hi(d) + pad : box.lo(d) - pad;
    return static_cast<int64_t>(std::floor(v / cell_size_));
  };
  return CellCoord{cell(0), cell(1), cell(2)};
}

// Mixes three cell coordinates into one key. Collisions are harmless (cells
// just share a bucket); correctness never depends on the key.
uint64_t SegmentGrid::CellKey(int64_t x, int64_t y, int64_t z) {
  const uint64_t a = static_cast<uint64_t>(x) * 0x9E3779B97F4A7C15ull;
  const uint64_t b = static_cast<uint64_t>(y) * 0xC2B2AE3D27D4EB4Full;
  const uint64_t c = static_cast<uint64_t>(z) * 0x165667B19E3779F9ull;
  uint64_t h = a ^ (b >> 1) ^ (c << 1);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

std::vector<size_t>& SegmentGrid::Gather(size_t query, double radius) const {
  TRACLUS_DCHECK(query < bboxes_.size());
  // One scratch per thread, shared by every grid the thread queries: stamps
  // grow monotonically per scratch, so marks left by another grid (or an
  // earlier query) are always stale, and the wrap-around path clears them.
  struct Scratch {
    std::vector<uint32_t> visit_stamp;
    uint32_t stamp = 0;
    std::vector<size_t> candidates;
  };
  thread_local Scratch scratch;
  std::vector<uint32_t>& visit_stamp = scratch.visit_stamp;
  if (visit_stamp.size() > bboxes_.size()) {
    // A smaller grid than this thread's last: give the surplus back, so a
    // pool worker retains scratch for the grid it last queried, not the
    // largest it ever did.
    scratch = Scratch{};
  }
  visit_stamp.resize(bboxes_.size(), 0u);
  if (++scratch.stamp == 0) {  // Wrap-around: reset once every 2^32 queries.
    std::fill(visit_stamp.begin(), visit_stamp.end(), 0u);
    scratch.stamp = 1;
  }
  const uint32_t stamp = scratch.stamp;

  std::vector<size_t>& candidates = scratch.candidates;
  candidates.clear();
  const geom::BBox& qbox = bboxes_[query];
  const CellCoord lo = CornerCell(qbox, radius, /*upper=*/false);
  const CellCoord hi = CornerCell(qbox, radius, /*upper=*/true);
  for (int64_t cx = lo.x; cx <= hi.x; ++cx) {
    for (int64_t cy = lo.y; cy <= hi.y; ++cy) {
      for (int64_t cz = lo.z; cz <= hi.z; ++cz) {
        const auto it = cells_.find(CellKey(cx, cy, cz));
        if (it == cells_.end()) continue;
        for (const size_t i : it->second) {
          if (visit_stamp[i] == stamp) continue;
          visit_stamp[i] = stamp;
          // Sound prune on the MBRs; the query is always its own candidate.
          if (i != query && bboxes_[i].MinDist(qbox) > radius) continue;
          candidates.push_back(i);
        }
      }
    }
  }
  return candidates;
}

}  // namespace traclus::cluster
