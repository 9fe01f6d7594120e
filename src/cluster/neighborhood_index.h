#ifndef TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_
#define TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_

#include <vector>

#include "cluster/neighborhood.h"
#include "cluster/segment_grid.h"

namespace traclus::cluster {

/// Exact ε-neighborhood index over a traj::SegmentStore: the SegmentGrid walk
/// gathers the MBR-pruned candidates, and one distance::EpsilonRefineTile
/// over the store decides exact membership (after its own midpoint /
/// half-length prune), so lists equal brute force. When the distance has no
/// usable lower bound (c = 0, a degenerate weight configuration) every query
/// is the BruteForceNeighborhood scan.
///
/// `Neighbors` is safe to call from any number of threads (the grid's scratch
/// is per thread), so the provider's batch queries are the
/// NeighborhoodProvider fan-outs.
class GridNeighborhoodIndex : public NeighborhoodProvider {
 public:
  /// Builds the index; `store` and `dist` must outlive it. Per-segment MBRs
  /// come straight from the store's invariant cache (no rebuild here).
  /// `cell_size` ≤ 0 selects the automatic heuristic; `kernel` selects the
  /// refinement kernel (results identical for every choice).
  GridNeighborhoodIndex(
      const traj::SegmentStore& store, const distance::SegmentDistance& dist,
      double cell_size = 0.0,
      distance::BatchKernel kernel = distance::BatchKernel::kAuto);

  std::vector<size_t> Neighbors(size_t query_index, double eps) const override;
  size_t size() const override { return scan_.size(); }

  double cell_size() const { return grid_.cell_size(); }

  /// Number of grid cells materialized (diagnostics/tests).
  size_t NumCells() const { return grid_.NumCells(); }

 private:
  /// The c = 0 fallback; also the one home of the store, distance and
  /// kernel bindings.
  BruteForceNeighborhood scan_;
  SegmentGrid grid_;
};

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_NEIGHBORHOOD_INDEX_H_
