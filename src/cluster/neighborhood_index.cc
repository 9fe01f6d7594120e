#include "cluster/neighborhood_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/span.h"

namespace traclus::cluster {

GridNeighborhoodIndex::GridNeighborhoodIndex(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    double cell_size, distance::BatchKernel kernel)
    : scan_(store, dist, kernel),
      grid_(store.bboxes(), store.dims(), cell_size) {}

std::vector<size_t> GridNeighborhoodIndex::Neighbors(size_t query_index,
                                                     double eps) const {
  const traj::SegmentStore& store = scan_.store();
  TRACLUS_DCHECK(query_index < store.size());
  const double factor = scan_.dist().LowerBoundFactor();
  if (factor <= 0.0) return scan_.Neighbors(query_index, eps);

  const std::vector<size_t>& candidates =
      grid_.Gather(query_index, eps / factor);
  std::vector<size_t> out;
  distance::EpsilonRefineTile(
      scan_.dist(), store, common::Span<const size_t>(&query_index, 1), store,
      distance::Candidates::List(candidates), eps, &out, scan_.kernel());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace traclus::cluster
