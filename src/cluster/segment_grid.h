#ifndef TRACLUS_CLUSTER_SEGMENT_GRID_H_
#define TRACLUS_CLUSTER_SEGMENT_GRID_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "geom/bbox.h"

namespace traclus::cluster {

/// The candidate side of the exact ε-neighborhood index: a uniform grid of
/// segment bounding boxes with lower-bound pruning.
///
/// Lemma 3 observes that a spatial index drops clustering from O(n²) to
/// O(n log n), but §4.2 notes the TRACLUS distance is not a metric, so an
/// index cannot prune with the query distance directly. The grid prunes with
/// plain Euclidean geometry instead, through the provable bound
///   dist(Li, Lj) ≥ c · mindist(Li, Lj),  c = min(w⊥/2, w∥)
/// (see SegmentDistance::LowerBoundFactor): a query with radius ε only needs
/// the segments whose MBR mindist is ≤ ε / c. The providers built on it
/// (GridNeighborhoodIndex, ChunkedGridNeighborhood) check every candidate
/// with the exact distance, so their lists equal brute force.
///
/// The grid is built from a bboxes() column plus dims(), so the same cells
/// serve a traj::SegmentStore and the always-resident catalog of a
/// traj::ChunkedSegmentStore (whose MBRs are bit-identical to the merged
/// store's). The cell edge defaults to twice the mean segment MBR extent,
/// keeping per-segment cell fan-out O(1) on the paper's workloads. This plays
/// the role of the R-tree suggested in Lemma 3; a uniform grid has the same
/// asymptotics for the densely populated evaluation data sets and far simpler
/// invariants.
///
/// Immutable after construction. Gather keeps its dedup stamps (one 32-bit
/// stamp per segment) and candidate list in per-thread scratch, so
/// concurrent calls from any number of threads are safe. The scratch
/// outlives the grid: each thread that queried keeps it, sized for the last
/// grid it queried, until the thread exits or queries a smaller grid.
class SegmentGrid {
 public:
  /// `bboxes` (one MBR per segment, all of dimensionality `dims`) must
  /// outlive the grid. `cell_size` ≤ 0 selects the automatic heuristic.
  SegmentGrid(const std::vector<geom::BBox>& bboxes, int dims,
              double cell_size);

  /// Segment `query` itself plus every other segment whose MBR lies within
  /// `radius` of the query's MBR, each once, in cell-walk order. The vector
  /// is the calling thread's scratch: the caller may reorder or rewrite it,
  /// and it stays valid until the same thread calls Gather again.
  std::vector<size_t>& Gather(size_t query, double radius) const;

  double cell_size() const { return cell_size_; }

  /// Number of grid cells materialized (diagnostics/tests).
  size_t NumCells() const { return cells_.size(); }

 private:
  struct CellCoord {
    int64_t x;
    int64_t y;
    int64_t z;
  };

  /// The cell holding `box`'s low (`upper` false) or high corner, after
  /// growing the box by `pad` on every side.
  CellCoord CornerCell(const geom::BBox& box, double pad, bool upper) const;
  static uint64_t CellKey(int64_t x, int64_t y, int64_t z);

  const std::vector<geom::BBox>& bboxes_;
  int dims_;
  double cell_size_ = 1.0;
  std::unordered_map<uint64_t, std::vector<size_t>> cells_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_SEGMENT_GRID_H_
