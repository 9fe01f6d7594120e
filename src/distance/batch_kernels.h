#ifndef TRACLUS_DISTANCE_BATCH_KERNELS_H_
#define TRACLUS_DISTANCE_BATCH_KERNELS_H_

// The batched §2.3 distance: one tile loop that evaluates queries from one
// SegmentStore against candidates from another (or the same) store. Every
// ε-query of the grouping phase (Lemma 3) ends here, and so do the
// parameter heuristic (§4.2/§4.4), the all-pairs consumers (distance
// matrix, entropy profile, k-medoids), OPTICS, the sieve and sharded stages
// and snapshot assignment.
//
//   candidates ──▶ lower-bound prune ──▶ hoisted row kernel ──▶ face
//
//   * Candidates are an index list or a [first, last) range, chosen once per
//     call. The loop walks them in blocks of 256 (about 24 KiB of SoA
//     columns, cache-resident while every query row of the call walks it).
//   * The prune is a midpoint/half-length triangle inequality: every point
//     of segment L lies within half_length(L) of midpoint(L), so with the
//     provable factor c = min(w⊥/2, w∥) from SegmentDistance::LowerBoundFactor
//       dist(Li, Lj) ≥ c · (‖mid_i − mid_j‖ − h_i − h_j).
//     A candidate whose bound (with a conservative rounding margin) exceeds
//     ε is provably outside the neighborhood and skips the evaluation.
//   * The row kernel hoists the query's columns once per block and streams
//     the candidates' columns, scalar or AVX2 (four candidate lanes). Both
//     execute EXACTLY the floating-point expressions of the pair path
//     SegmentDistance::operator()(store, i, j); IEEE-754 lanes round like
//     scalar ops and the build forbids FP contraction, so every face is
//     bit-identical to the pair path for every kernel, block split, store
//     split and thread count (tests/segment_distance_test.cc pins this).
//   * A call is same-store when &query_store == &cand_store. Only then does
//     a candidate equal to the query skip the prune and count as within ε
//     (Definition 4 self-inclusion). Chunk-local stores of a
//     traj::ChunkedSegmentStore cache bit-identical invariants, so a
//     cross-chunk call decides every pair exactly like the merged store.
//
// The three faces differ only in what they keep of each distance: all of
// them (DistanceTile), those within ε (EpsilonRefineTile), or the nearest
// within ε (NearestWithinEps).
//
// Kernel selection is a per-run knob (core::RunContext::distance_kernel,
// CLI --kernel auto|scalar|simd); ParseBatchKernel is the single
// string→kernel parsing path in the tree.
//
// Thread-safety contract: the loop is lock-free by construction — inputs are
// the stores' immutable columns, outputs go to caller-owned buffers, and the
// only cross-call state is thread_local staging. Concurrent calls from pool
// workers are safe with no mutex; state shared across calls would have to
// sit behind common::Mutex with TRACLUS_GUARDED_BY.

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "distance/segment_distance.h"
#include "traj/segment_store.h"

namespace traclus::distance {

/// Which row kernel evaluates a tile.
enum class BatchKernel {
  kAuto = 0,    ///< kSimd when compiled in, else kScalar.
  kScalar = 1,  ///< Hoisted scalar row loop.
  kSimd = 2,    ///< AVX2 four-lane row loop over the SoA coordinate columns.
};

/// True when the SIMD kernel is compiled into this binary (AVX2 target).
constexpr bool SimdCompiled() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

/// Resolves kAuto to the best compiled kernel; kSimd degrades to kScalar
/// when the binary was built without AVX2 (results are identical either way,
/// only throughput differs).
BatchKernel ResolveBatchKernel(BatchKernel kernel);

/// "auto" / "scalar" / "simd".
const char* BatchKernelName(BatchKernel kernel);

/// Parses a kernel name (as spelled by BatchKernelName). Anything else is
/// kInvalidArgument naming the accepted spellings. This is the ONLY
/// string→BatchKernel conversion in the tree: every knob surface (CLI
/// --kernel, RunContext::distance_kernel feeders, heuristic/OPTICS options,
/// the sieve stage) routes through it, so the accepted vocabulary can never
/// drift between callers.
common::Result<BatchKernel> ParseBatchKernel(std::string_view name);

/// Counters of EpsilonRefineTile, accumulated over all query rows of a call
/// (pruned / candidates is the prune rate).
struct RefineStats {
  size_t candidates = 0;  ///< Query × candidate pairs examined.
  size_t pruned = 0;      ///< Skipped by the lower bound (provably > ε).
  size_t refined = 0;     ///< Full three-component evaluations.
  size_t accepted = 0;    ///< Emitted into a neighborhood.
};

/// The candidate set of one call, indexing the candidate store. Position k
/// of a list is list[k] (any order, duplicates allowed); position k of a
/// range is first + k.
struct Candidates {
  static Candidates List(common::Span<const size_t> indices) {
    return Candidates{indices.data(), 0, indices.size()};
  }
  static Candidates Range(size_t first, size_t last) {
    return Candidates{nullptr, first, last};
  }
  size_t size() const { return last - first; }

  const size_t* list;  ///< nullptr for a range.
  size_t first;
  size_t last;
};

/// dist(queries[qi], candidate k) → out[qi * ldo + k] for every query and
/// candidate position. `ldo` (the row stride of the caller's row-major
/// block, in doubles) must be ≥ candidates.size().
void DistanceTile(const SegmentDistance& dist,
                  const traj::SegmentStore& query_store,
                  common::Span<const size_t> queries,
                  const traj::SegmentStore& cand_store, Candidates candidates,
                  double* out, size_t ldo,
                  BatchKernel kernel = BatchKernel::kAuto);

/// Appends to out_lists[qi] every candidate index within `eps` of
/// queries[qi], in candidate order — exactly the per-pair loop
///   for j in candidates: if (self(q, j) || dist(q, j) <= eps) emit j
/// where self(q, j) means a same-store call with j == q. `out_lists` must
/// point to queries.size() vectors. Returns the number of indices appended;
/// `stats` (optional) accumulates the counters.
size_t EpsilonRefineTile(const SegmentDistance& dist,
                         const traj::SegmentStore& query_store,
                         common::Span<const size_t> queries,
                         const traj::SegmentStore& cand_store,
                         Candidates candidates, double eps,
                         std::vector<size_t>* out_lists,
                         BatchKernel kernel = BatchKernel::kAuto,
                         RefineStats* stats = nullptr);

/// "No candidate within ε" marker of NearestWithinEps.
inline constexpr size_t kNoNearest = static_cast<size_t>(-1);

/// For each query, the candidate position with the smallest distance among
/// those EpsilonRefineTile would keep, ties broken toward the earliest
/// position. Writes the position to out_position[qi] (kNoNearest when none
/// qualifies) and the distance to out_distance[qi] (+inf when none). The
/// prune is against ε only, never against the running minimum, so the
/// argmin does not depend on evaluation order. Both out spans must have
/// queries.size() entries.
void NearestWithinEps(const SegmentDistance& dist,
                      const traj::SegmentStore& query_store,
                      common::Span<const size_t> queries,
                      const traj::SegmentStore& cand_store,
                      Candidates candidates, double eps,
                      common::Span<size_t> out_position,
                      common::Span<double> out_distance,
                      BatchKernel kernel = BatchKernel::kAuto);

/// Kernel-selecting overload of PairwiseDistanceMatrix (segment_distance.h):
/// the same symmetric n×n matrix, filled through upper-triangle tiles — the
/// chunk owning rows [lo, hi) walks candidate blocks once for all its rows
/// and writes the mirrored columns as a blocked transpose instead of a
/// full-column stride per row. The chunk owning row i writes dist(i, j) and
/// its mirror for every j > i, so every element has exactly one writer and
/// the matrix is identical for every thread count; entries are bit-identical
/// to the pair path.
common::Matrix PairwiseDistanceMatrix(const traj::SegmentStore& store,
                                      const SegmentDistance& dist,
                                      common::ThreadPool& pool,
                                      BatchKernel kernel);

/// The exact prune predicate the tile loop applies: true when the
/// midpoint/half-length bound (including its conservative rounding margin)
/// proves dist(store, a, b) > eps. Admissibility — this never returns true
/// for a true ε-neighbor — is what makes the refine exact; exposed so tests
/// can attack the claim directly.
bool PruneProvablyFar(const traj::SegmentStore& store,
                      const SegmentDistance& dist, size_t a, size_t b,
                      double eps);

}  // namespace traclus::distance

#endif  // TRACLUS_DISTANCE_BATCH_KERNELS_H_
