#ifndef TRACLUS_BASELINE_KMEDOIDS_H_
#define TRACLUS_BASELINE_KMEDOIDS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "distance/batch_kernels.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::baseline {

/// Configuration of the k-medoids clusterer.
struct KMedoidsConfig {
  int k = 3;
  int max_iterations = 50;
  uint64_t seed = 11;
  /// Worker threads for the upfront pairwise distance matrix (0 = hardware
  /// concurrency, 1 = serial). The distance callback must then be safe to
  /// invoke concurrently — true for the warping/trajectory distances, which
  /// are pure functions. Seeding and iteration stay serial (they are cheap
  /// and RNG-ordered), so results are identical for every value.
  int num_threads = 1;
};

/// k-medoids result.
struct KMedoidsResult {
  std::vector<size_t> medoids;   ///< Indices of the k medoid objects.
  std::vector<int> assignments;  ///< Per-object medoid index in [0, k).
  double total_cost = 0.0;       ///< Σ distance(object, its medoid).
  int iterations = 0;
};

/// Batched matrix-fill callback: writes dist(i, j) for every j in
/// [j_begin, j_end) into out[0 .. j_end − j_begin). Lets distance sources
/// that can evaluate one-vs-many batches (the segment-store kernels, a
/// vectorized DTW, a remote service) fill a whole row stripe per call
/// instead of being driven pair by pair. `j_begin` may be ≤ i (the tiled
/// fill below hands every row of a block the same column range); the filler
/// must handle it (any symmetric distance with dist(i, i) = 0 does).
using KMedoidsRowFill =
    std::function<void(size_t i, size_t j_begin, size_t j_end, double* out)>;

/// Tiled matrix-fill callback: writes dist(i, j) for every i in
/// [i_begin, i_end) and j in [j_begin, j_end) into
/// out[(i − i_begin) * ldo + (j − j_begin)] — the many-vs-many shape of
/// distance::DistanceTile, which lets the segment-store kernels reuse
/// each candidate block across all rows of the tile.
using KMedoidsTileFill =
    std::function<void(size_t i_begin, size_t i_end, size_t j_begin,
                       size_t j_end, double* out, size_t ldo)>;

/// PAM-style k-medoids over an arbitrary object set given by a pairwise
/// distance callback (objects are identified by index, 0..n−1).
///
/// Combined with a whole-trajectory distance (DTW/LCSS/EDR) this forms the
/// generic "cluster trajectories as a whole" strawman of §1: a reasonable
/// distance-based whole-trajectory clusterer that still cannot isolate common
/// sub-trajectories. Greedy k-medoids++ seeding, then alternating
/// assignment/medoid-update until stable. Deterministic for a fixed seed.
KMedoidsResult KMedoids(size_t n,
                        const std::function<double(size_t, size_t)>& dist,
                        const KMedoidsConfig& config);

/// Row-batched overload: adapts `row_fill` onto the tiled overload below
/// (one row per tile row). The per-pair overload above delegates here, so
/// all overloads share one fill/iterate implementation and produce identical
/// results for identical distances.
KMedoidsResult KMedoids(size_t n, const KMedoidsRowFill& row_fill,
                        const KMedoidsConfig& config);

/// Tiled overload — the primary implementation: the upfront symmetric
/// distance matrix is filled in row-block × column-stripe tiles (upper
/// triangle plus the tile's sub-diagonal corner, which is discarded; the
/// mirror is written by the filler loop, one writer per element, so the
/// matrix is identical for every thread count).
KMedoidsResult KMedoids(size_t n, const KMedoidsTileFill& tile_fill,
                        const KMedoidsConfig& config);

/// k-medoids over the segments of a SegmentStore with the §2.3 TRACLUS
/// distance: the matrix fill streams through the many-vs-many tile kernel
/// (distance::DistanceTile) instead of the pair-at-a-time path.
/// `kernel` selects scalar/SIMD; assignments are identical for every choice
/// (the kernels are bit-identical).
KMedoidsResult KMedoidsOverSegments(
    const traj::SegmentStore& store, const distance::SegmentDistance& dist,
    const KMedoidsConfig& config,
    distance::BatchKernel kernel = distance::BatchKernel::kAuto);

}  // namespace traclus::baseline

#endif  // TRACLUS_BASELINE_KMEDOIDS_H_
