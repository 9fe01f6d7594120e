#include "distance/batch_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "distance/store_kernel_detail.h"
#include "geom/point.h"

namespace traclus::distance {

namespace {

// Candidates per block: ~256 candidates × ~12 SoA columns × 8 B ≈ 24 KiB,
// resident in L1/L2 while every query row of the call walks the block. Each
// pair's evaluation reads only that pair's columns, so the block split never
// changes a bit; it bounds the staging buffers at O(block).
constexpr size_t kBlock = 256;

// Relative margin of the prune comparison. The bound arithmetic (a squared
// midpoint distance, two additions, one multiply) accumulates at most a few
// ulps (~1e-15 relative) of rounding; pruning only when the bound exceeds ε
// by this much larger margin keeps the prune admissible for every input the
// arithmetic can represent. The admissibility test in
// tests/segment_distance_test.cc attacks this claim on randomized data.
constexpr double kPruneSlack = 1e-9;

// Query-side state of the midpoint/half-length lower-bound prune, hoisted
// out of the per-candidate loop.
struct PruneContext {
  bool usable = false;
  double reach = 0.0;  // ε / c: the Euclidean radius that could matter.
  double half_q = 0.0;
  double mid_q[geom::kMaxDims] = {0.0, 0.0, 0.0};
  int dims = 2;
};

PruneContext MakePruneContext(const traj::SegmentStore& store,
                              const SegmentDistance& dist, size_t query,
                              double eps) {
  PruneContext p;
  p.dims = store.dims();
  const double c = dist.LowerBoundFactor();
  // A zero factor (degenerate weights) or a non-finite/negative ε leaves no
  // provable prune; refine everything.
  if (!(c > 0.0) || !std::isfinite(eps) || eps < 0.0) return p;
  p.usable = true;
  p.reach = eps / c;
  p.half_q = store.half_length(query);
  for (int d = 0; d < p.dims; ++d) {
    p.mid_q[d] = store.midpoint_coords(d)[query];
  }
  return p;
}

// True when candidate j of `cands` is provably farther than ε from the
// query:
//   dist ≥ c·mindist ≥ c·(‖mid_q − mid_j‖ − h_q − h_j) > ε
// evaluated in squared form (no per-candidate sqrt) with the kPruneSlack
// margin absorbing the bound's own rounding.
inline bool PrunedFar(const PruneContext& p, const traj::SegmentStore& cands,
                      size_t j) {
  double dmid_sq = 0.0;
  for (int d = 0; d < p.dims; ++d) {
    const double diff = cands.midpoint_coords(d)[j] - p.mid_q[d];
    dmid_sq += diff * diff;
  }
  const double threshold = p.reach + p.half_q + cands.half_length(j);
  // threshold may round to +inf for extreme ε/c; the comparison then never
  // prunes, which is the safe direction.
  return dmid_sq > threshold * threshold * (1.0 + kPruneSlack);
}

// The columns the row kernels read, resolved once per call.
struct Columns {
  explicit Columns(const traj::SegmentStore& s)
      : store(&s),
        len(s.lengths().data()),
        sqlen(s.squared_lengths().data()) {
    for (int d = 0; d < geom::kMaxDims; ++d) {
      start[d] = s.start_coords(d).data();
      end[d] = s.end_coords(d).data();
      dir[d] = s.direction_coords(d).data();
    }
  }
  const traj::SegmentStore* store;
  const double* len;
  const double* sqlen;
  const double* start[geom::kMaxDims];
  const double* end[geom::kMaxDims];
  const double* dir[geom::kMaxDims];
};

// The fixed inputs of one call: query store, candidate store, weights and
// resolved kernel.
struct Tile {
  Tile(const traj::SegmentStore& query_store,
       const traj::SegmentStore& cand_store, const SegmentDistance& dist,
       BatchKernel kernel)
      : q(query_store),
        c(cand_store),
        cfg(dist.config()),
        kernel(ResolveBatchKernel(kernel)),
        dims(query_store.dims()),
        same_store(&query_store == &cand_store) {
    TRACLUS_DCHECK_EQ(query_store.dims(), cand_store.dims());
  }
  Columns q;
  Columns c;
  const SegmentDistanceConfig& cfg;
  BatchKernel kernel;
  int dims;
  bool same_store;
};

// Candidate accessors: position k → candidate-store index. The loop picks
// one per call, so the choice costs nothing per pair; kContiguous lets the
// SIMD kernel use plain vector loads for ranges.
struct RangeAt {
  static constexpr bool kContiguous = true;
  size_t first;
  size_t operator()(size_t k) const { return first + k; }
  RangeAt From(size_t k) const { return RangeAt{first + k}; }
};
struct ListAt {
  static constexpr bool kContiguous = false;
  const size_t* list;
  size_t operator()(size_t k) const { return list[k]; }
  ListAt From(size_t k) const { return ListAt{list + k}; }
};

// Canonical kernel over raw (Li, Lj) coordinate arrays: exactly the
// floating-point expressions of internal::StoreComponentsCanonicalInto plus
// the weighted fold of SegmentDistance::operator(), with the Point
// temporaries replaced by compile-time-unrolled loops over D dimensions. Every sum accumulates in
// ascending dimension order from 0.0 — the geom::Dot / Point::SquaredNorm
// order — and the build forbids FP contraction, so results are bit-identical
// to the store-backed pair kernel (the tile-vs-pair bitwise tests pin
// this on the adversarial corpus). Callers resolve the Lemma 2 swap first.
template <int D>
inline double RawWeightedCanonical(const double* s, const double* e,
                                   const double* se, double den, double len_i,
                                   const double* js, const double* je,
                                   const double* dj, double len_j,
                                   bool directed, double w_perpendicular,
                                   double w_parallel, double w_angle) {
  // ProjectOntoLine of both Lj endpoints: u = Dot(p − s, se) / ‖se‖².
  double dot1 = 0.0;
  double dot2 = 0.0;
  for (int d = 0; d < D; ++d) {
    dot1 += (js[d] - s[d]) * se[d];
    dot2 += (je[d] - s[d]) * se[d];
  }
  const double u1 = den == 0.0 ? 0.0 : dot1 / den;
  const double u2 = den == 0.0 ? 0.0 : dot2 / den;

  // proj = s + se·u; the six projection-relative squared norms (to Lj's
  // endpoints for d⊥, to Li's endpoints for d∥).
  double sq_perp1 = 0.0, sq_perp2 = 0.0;
  double sq_ps_s = 0.0, sq_ps_e = 0.0, sq_pe_s = 0.0, sq_pe_e = 0.0;
  for (int d = 0; d < D; ++d) {
    const double ps = s[d] + se[d] * u1;
    const double pe = s[d] + se[d] * u2;
    const double d1 = js[d] - ps;
    sq_perp1 += d1 * d1;
    const double d2 = je[d] - pe;
    sq_perp2 += d2 * d2;
    const double d3 = ps - s[d];
    sq_ps_s += d3 * d3;
    const double d4 = ps - e[d];
    sq_ps_e += d4 * d4;
    const double d5 = pe - s[d];
    sq_pe_s += d5 * d5;
    const double d6 = pe - e[d];
    sq_pe_e += d6 * d6;
  }

  // Perpendicular (Definition 1): Lehmer mean of order 2 over the root-ed
  // distances (l·l after the sqrt, like the reference — not the raw squares).
  const double l1 = std::sqrt(sq_perp1);
  const double l2 = std::sqrt(sq_perp2);
  const double perp_denom = l1 + l2;
  const double perpendicular =
      perp_denom == 0.0 ? 0.0 : (l1 * l1 + l2 * l2) / perp_denom;

  // Parallel (Definition 2): MIN over projections of the distance to the
  // nearer Li endpoint.
  const double lpar1 = std::min(std::sqrt(sq_ps_s), std::sqrt(sq_ps_e));
  const double lpar2 = std::min(std::sqrt(sq_pe_s), std::sqrt(sq_pe_e));
  const double parallel = std::min(lpar1, lpar2);

  // Angle (Definition 3): zero for a point-like Lj, cos forced to 1 for a
  // point-like Li, the directed regime contributing ‖Lj‖ outright.
  double angle = 0.0;
  if (len_j != 0.0) {
    double cos_theta = 1.0;
    if (len_i != 0.0) {
      double dot_ij = 0.0;
      for (int d = 0; d < D; ++d) dot_ij += se[d] * dj[d];
      cos_theta = std::clamp(dot_ij / (len_i * len_j), -1.0, 1.0);
    }
    if (directed && cos_theta <= 0.0) {
      angle = len_j;
    } else {
      const double sin_theta =
          std::sqrt(std::max(0.0, 1.0 - cos_theta * cos_theta));
      angle = len_j * sin_theta;
    }
  }

  return w_perpendicular * perpendicular + w_parallel * parallel +
         w_angle * angle;
}

// Hoisted scalar row kernel: dist(query, at(k)) → out[k] for k < n. The
// query's columns stay in registers for the whole row, and the Lemma 2
// swap resolves inline (the strict length compare covers almost every pair;
// exact ties fall back to the full tie-break across the two stores).
template <int D, typename At>
void RowScalar(const Tile& t, size_t query, const At& at, size_t n,
               double* out) {
  double qs[D], qe[D], qd[D];
  for (int d = 0; d < D; ++d) {
    qs[d] = t.q.start[d][query];
    qe[d] = t.q.end[d][query];
    qd[d] = t.q.dir[d][query];
  }
  const double q_den = t.q.sqlen[query];
  const double q_len = t.q.len[query];
  const SegmentDistanceConfig& cfg = t.cfg;

  for (size_t k = 0; k < n; ++k) {
    const size_t j = at(k);
    double cs[D], ce[D], cd[D];
    for (int d = 0; d < D; ++d) {
      cs[d] = t.c.start[d][j];
      ce[d] = t.c.end[d][j];
      cd[d] = t.c.dir[d][j];
    }
    const double c_len = t.c.len[j];
    // Lemma 2 canonical roles: the candidate takes Li when strictly longer;
    // an exact length tie runs the id / lexicographic tie-break. NaN lengths
    // fail both compares, leaving the query as Li — CrossCanonicalSwap's
    // behavior exactly.
    bool swap = q_len < c_len;
    if (q_len == c_len) {
      swap = internal::CrossCanonicalSwap(*t.q.store, query, *t.c.store, j);
    }
    out[k] = swap ? RawWeightedCanonical<D>(cs, ce, cd, t.c.sqlen[j], c_len,
                                            qs, qe, qd, q_len, cfg.directed,
                                            cfg.w_perpendicular,
                                            cfg.w_parallel, cfg.w_angle)
                  : RawWeightedCanonical<D>(qs, qe, qd, q_den, q_len, cs, ce,
                                            cd, c_len, cfg.directed,
                                            cfg.w_perpendicular,
                                            cfg.w_parallel, cfg.w_angle);
  }
}

template <typename At>
void RowScalarDims(const Tile& t, size_t query, const At& at, size_t n,
                   double* out) {
  if (t.dims == 2) {
    RowScalar<2>(t, query, at, n, out);
  } else {
    RowScalar<3>(t, query, at, n, out);
  }
}

#if defined(__AVX2__)

// std::min(a, b) ≡ (b < a) ? b : a, lane-wise with identical NaN/zero
// semantics (blendv takes `b` exactly where the ordered compare holds).
inline __m256d MinStd(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
}

// Broadcast weights of the four-lane canonical kernel.
struct SimdWeights {
  __m256d w_perp;
  __m256d w_par;
  __m256d w_ang;
  bool directed;
};

// The four-lane canonical arithmetic body of the SIMD row kernel. Each lane
// executes the exact operation sequence of the scalar canonical
// kernel (store_kernel_detail.h) on already-canonicalized (Li, Lj) role
// registers, with branches replaced by blends whose selected value matches
// the scalar ternary in every case (including NaN propagation and signed
// zeros). Every vector op is an IEEE-754 double op per lane and the build
// forbids FMA contraction, so lane results are bit-identical to the scalar
// kernel — asserted exhaustively in tests/segment_distance_test.cc.
inline __m256d CanonicalLanes(int dims, const __m256d* s_v, const __m256d* e_v,
                              const __m256d* se_v, const __m256d* js_v,
                              const __m256d* je_v, const __m256d* dj_v,
                              __m256d den, __m256d len_i, __m256d len_j,
                              const SimdWeights& w) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_one = _mm256_set1_pd(-1.0);
  const __m256d den_zero = _mm256_cmp_pd(den, zero, _CMP_EQ_OQ);

  // ProjectOntoLine of both Lj endpoints: u = Dot(p − s, se) / ‖se‖²
  // (0 for a degenerate Li), accumulated dimension-by-dimension exactly
  // like geom::Dot.
  __m256d dot1 = zero;
  __m256d dot2 = zero;
  for (int d = 0; d < dims; ++d) {
    dot1 = _mm256_add_pd(
        dot1, _mm256_mul_pd(_mm256_sub_pd(js_v[d], s_v[d]), se_v[d]));
    dot2 = _mm256_add_pd(
        dot2, _mm256_mul_pd(_mm256_sub_pd(je_v[d], s_v[d]), se_v[d]));
  }
  const __m256d u1 =
      _mm256_blendv_pd(_mm256_div_pd(dot1, den), zero, den_zero);
  const __m256d u2 =
      _mm256_blendv_pd(_mm256_div_pd(dot2, den), zero, den_zero);

  // proj = s + se·u; accumulate the four projection-relative squared
  // norms (to Lj's endpoints for d⊥, to Li's endpoints for d∥) in
  // dimension order, exactly like Point::SquaredNorm.
  __m256d sq_perp1 = zero, sq_perp2 = zero;
  __m256d sq_ps_s = zero, sq_ps_e = zero, sq_pe_s = zero, sq_pe_e = zero;
  for (int d = 0; d < dims; ++d) {
    const __m256d ps = _mm256_add_pd(s_v[d], _mm256_mul_pd(se_v[d], u1));
    const __m256d pe = _mm256_add_pd(s_v[d], _mm256_mul_pd(se_v[d], u2));
    const __m256d d1 = _mm256_sub_pd(js_v[d], ps);
    sq_perp1 = _mm256_add_pd(sq_perp1, _mm256_mul_pd(d1, d1));
    const __m256d d2 = _mm256_sub_pd(je_v[d], pe);
    sq_perp2 = _mm256_add_pd(sq_perp2, _mm256_mul_pd(d2, d2));
    const __m256d d3 = _mm256_sub_pd(ps, s_v[d]);
    sq_ps_s = _mm256_add_pd(sq_ps_s, _mm256_mul_pd(d3, d3));
    const __m256d d4 = _mm256_sub_pd(ps, e_v[d]);
    sq_ps_e = _mm256_add_pd(sq_ps_e, _mm256_mul_pd(d4, d4));
    const __m256d d5 = _mm256_sub_pd(pe, s_v[d]);
    sq_pe_s = _mm256_add_pd(sq_pe_s, _mm256_mul_pd(d5, d5));
    const __m256d d6 = _mm256_sub_pd(pe, e_v[d]);
    sq_pe_e = _mm256_add_pd(sq_pe_e, _mm256_mul_pd(d6, d6));
  }

  // Perpendicular (Definition 1): Lehmer mean of order 2, zero when both
  // endpoints sit on the line.
  const __m256d l1 = _mm256_sqrt_pd(sq_perp1);
  const __m256d l2 = _mm256_sqrt_pd(sq_perp2);
  const __m256d perp_den = _mm256_add_pd(l1, l2);
  const __m256d perp_raw = _mm256_div_pd(
      _mm256_add_pd(_mm256_mul_pd(l1, l1), _mm256_mul_pd(l2, l2)),
      perp_den);
  const __m256d perp = _mm256_blendv_pd(
      perp_raw, zero, _mm256_cmp_pd(perp_den, zero, _CMP_EQ_OQ));

  // Parallel (Definition 2): MIN over projections of the distance to the
  // nearer Li endpoint.
  const __m256d lpar1 =
      MinStd(_mm256_sqrt_pd(sq_ps_s), _mm256_sqrt_pd(sq_ps_e));
  const __m256d lpar2 =
      MinStd(_mm256_sqrt_pd(sq_pe_s), _mm256_sqrt_pd(sq_pe_e));
  const __m256d par = MinStd(lpar1, lpar2);

  // Angle (Definition 3). cos θ = Dot(dir_i, dir_j) / (‖i‖·‖j‖), clamped
  // to [−1, 1] with std::clamp's exact selection order, forced to 1 for a
  // degenerate Li; a degenerate Lj zeroes the whole component.
  __m256d dot_ij = zero;
  for (int d = 0; d < dims; ++d) {
    dot_ij = _mm256_add_pd(dot_ij, _mm256_mul_pd(se_v[d], dj_v[d]));
  }
  const __m256d len_i_zero = _mm256_cmp_pd(len_i, zero, _CMP_EQ_OQ);
  const __m256d len_j_zero = _mm256_cmp_pd(len_j, zero, _CMP_EQ_OQ);
  const __m256d cos_raw =
      _mm256_div_pd(dot_ij, _mm256_mul_pd(len_i, len_j));
  // std::clamp(v, −1, 1): (v < lo) ? lo : (hi < v) ? hi : v.
  __m256d cos_t = _mm256_blendv_pd(
      cos_raw, neg_one, _mm256_cmp_pd(cos_raw, neg_one, _CMP_LT_OQ));
  cos_t =
      _mm256_blendv_pd(cos_t, one, _mm256_cmp_pd(one, cos_t, _CMP_LT_OQ));
  cos_t = _mm256_blendv_pd(cos_t, one, len_i_zero);
  // sin θ = sqrt(std::max(0, 1 − cos²)); std::max(0, x) ≡ (0 < x) ? x : 0.
  const __m256d one_minus_sq =
      _mm256_sub_pd(one, _mm256_mul_pd(cos_t, cos_t));
  const __m256d sin_arg = _mm256_blendv_pd(
      zero, one_minus_sq, _mm256_cmp_pd(zero, one_minus_sq, _CMP_LT_OQ));
  __m256d ang = _mm256_mul_pd(len_j, _mm256_sqrt_pd(sin_arg));
  if (w.directed) {
    // θ ∈ [90°, 180°] contributes ‖Lj‖ outright.
    ang = _mm256_blendv_pd(ang, len_j,
                           _mm256_cmp_pd(cos_t, zero, _CMP_LE_OQ));
  }
  ang = _mm256_blendv_pd(ang, zero, len_j_zero);

  // Weighted fold, grouped (w⊥·d⊥ + w∥·d∥) + wθ·dθ like the scalar path.
  return _mm256_add_pd(
      _mm256_add_pd(_mm256_mul_pd(w.w_perp, perp),
                    _mm256_mul_pd(w.w_par, par)),
      _mm256_mul_pd(w.w_ang, ang));
}

inline SimdWeights MakeSimdWeights(const SegmentDistanceConfig& cfg) {
  SimdWeights w;
  w.w_perp = _mm256_set1_pd(cfg.w_perpendicular);
  w.w_par = _mm256_set1_pd(cfg.w_parallel);
  w.w_ang = _mm256_set1_pd(cfg.w_angle);
  w.directed = cfg.directed;
  return w;
}

// Four candidate lanes of one column: a vector load for a range, a lane
// gather for a list. Either way only bits move.
template <typename At>
inline __m256d Load4(const double* col, const At& at, size_t k) {
  if constexpr (At::kContiguous) {
    return _mm256_loadu_pd(col + at(k));
  } else {
    return _mm256_set_pd(col[at(k + 3)], col[at(k + 2)], col[at(k + 1)],
                         col[at(k)]);
  }
}

// Four-lane row kernel. The query side is broadcast once per row; each
// 4-candidate step is column loads + a vectorized Lemma 2 swap mask + role
// blends + the shared arithmetic body. The blends only move bits between
// registers, so the lanes are bit-identical to the scalar row kernel.
template <typename At>
void RowSimd(const Tile& t, size_t query, const At& at, size_t n,
             double* out) {
  const int dims = t.dims;
  __m256d qs_v[geom::kMaxDims], qe_v[geom::kMaxDims], qd_v[geom::kMaxDims];
  for (int d = 0; d < dims; ++d) {
    qs_v[d] = _mm256_set1_pd(t.q.start[d][query]);
    qe_v[d] = _mm256_set1_pd(t.q.end[d][query]);
    qd_v[d] = _mm256_set1_pd(t.q.dir[d][query]);
  }
  const __m256d q_den = _mm256_set1_pd(t.q.sqlen[query]);
  const __m256d q_len = _mm256_set1_pd(t.q.len[query]);
  const SimdWeights w = MakeSimdWeights(t.cfg);

  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d cs_v[geom::kMaxDims], ce_v[geom::kMaxDims], cd_v[geom::kMaxDims];
    for (int d = 0; d < dims; ++d) {
      cs_v[d] = Load4(t.c.start[d], at, k);
      ce_v[d] = Load4(t.c.end[d], at, k);
      cd_v[d] = Load4(t.c.dir[d], at, k);
    }
    const __m256d c_den = Load4(t.c.sqlen, at, k);
    const __m256d c_len = Load4(t.c.len, at, k);

    // Lemma 2 swap mask: the candidate takes the Li role where the query is
    // strictly shorter. Exact length ties (and only those — NaN lengths fail
    // both compares and keep the query as Li, like CrossCanonicalSwap) fall
    // back to the scalar id / lexicographic tie-break, patched lane-wise.
    __m256d swap = _mm256_cmp_pd(q_len, c_len, _CMP_LT_OQ);
    const int eq =
        _mm256_movemask_pd(_mm256_cmp_pd(q_len, c_len, _CMP_EQ_OQ));
    if (eq != 0) {
      alignas(32) uint64_t mask_l[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(mask_l),
                         _mm256_castpd_si256(swap));
      for (int lane = 0; lane < 4; ++lane) {
        if ((eq & (1 << lane)) != 0) {
          mask_l[lane] = internal::CrossCanonicalSwap(
                             *t.q.store, query, *t.c.store,
                             at(k + static_cast<size_t>(lane)))
                             ? ~uint64_t{0}
                             : uint64_t{0};
        }
      }
      swap = _mm256_castsi256_pd(
          _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_l)));
    }

    // Role blends: Li ← candidate where swapped, else query (and vice versa
    // for Lj). Pure bit moves — no rounding.
    __m256d s_v[geom::kMaxDims], e_v[geom::kMaxDims], se_v[geom::kMaxDims];
    __m256d js_v[geom::kMaxDims], je_v[geom::kMaxDims], dj_v[geom::kMaxDims];
    for (int d = 0; d < dims; ++d) {
      s_v[d] = _mm256_blendv_pd(qs_v[d], cs_v[d], swap);
      e_v[d] = _mm256_blendv_pd(qe_v[d], ce_v[d], swap);
      se_v[d] = _mm256_blendv_pd(qd_v[d], cd_v[d], swap);
      js_v[d] = _mm256_blendv_pd(cs_v[d], qs_v[d], swap);
      je_v[d] = _mm256_blendv_pd(ce_v[d], qe_v[d], swap);
      dj_v[d] = _mm256_blendv_pd(cd_v[d], qd_v[d], swap);
    }
    const __m256d den = _mm256_blendv_pd(q_den, c_den, swap);
    const __m256d len_i = _mm256_blendv_pd(q_len, c_len, swap);
    const __m256d len_j = _mm256_blendv_pd(c_len, q_len, swap);

    const __m256d total = CanonicalLanes(dims, s_v, e_v, se_v, js_v, je_v,
                                         dj_v, den, len_i, len_j, w);
    _mm256_storeu_pd(out + k, total);
  }

  // Tail lanes (< 4 remaining) run the scalar row kernel — same bits.
  RowScalarDims(t, query, at.From(k), n - k, out + k);
}

#endif  // __AVX2__

// dist(query, at(k)) → out[k] for k < n through the call's kernel.
template <typename At>
void Row(const Tile& t, size_t query, const At& at, size_t n, double* out) {
#if defined(__AVX2__)
  if (t.kernel == BatchKernel::kSimd) {
    RowSimd(t, query, at, n, out);
    return;
  }
#endif
  RowScalarDims(t, query, at, n, out);
}

// The one tile loop behind the three faces. Candidate-block-major: each
// block of candidate columns serves every query row while hot. With `eps`
// finite, each query holds one prune context; candidates it proves farther
// than ε are skipped (never the query itself in a same-store call) and the
// survivors are evaluated as one gathered row. Without a usable prune the
// block is evaluated as it stands. For every evaluated pair the face's
// `sink(qi, position, candidate, distance, within)` runs, in ascending
// position order per query; `within` is the Definition 4 test
// (same-store self, or distance ≤ ε).
template <typename At, typename Sink>
void TileLoop(const Tile& t, const SegmentDistance& dist,
              common::Span<const size_t> queries, const At& at, size_t n,
              double eps, Sink&& sink, RefineStats* stats) {
  // Per-thread staging keeps the hot path allocation-free across calls;
  // nothing here is shared between threads.
  thread_local std::vector<PruneContext> prune;
  thread_local std::vector<size_t> pos;
  thread_local std::vector<size_t> idx;
  thread_local std::vector<double> d;
  prune.clear();
  for (const size_t q : queries) {
    TRACLUS_DCHECK(q < t.q.store->size());
    prune.push_back(MakePruneContext(*t.q.store, dist, q, eps));
  }
  pos.resize(kBlock);
  idx.resize(kBlock);
  d.resize(kBlock);

  size_t pruned = 0;
  size_t refined = 0;
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t m = std::min(kBlock, n - base);
    const At block = at.From(base);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const size_t q = queries[qi];
      const auto self = [&](size_t j) { return t.same_store && j == q; };
      if (!prune[qi].usable) {
        Row(t, q, block, m, d.data());
        refined += m;
        for (size_t k = 0; k < m; ++k) {
          const size_t j = block(k);
          TRACLUS_DCHECK(j < t.c.store->size());
          sink(qi, base + k, j, d[k], self(j) || d[k] <= eps);
        }
        continue;
      }
      size_t s = 0;
      for (size_t k = 0; k < m; ++k) {
        const size_t j = block(k);
        TRACLUS_DCHECK(j < t.c.store->size());
        if (!self(j) && PrunedFar(prune[qi], *t.c.store, j)) continue;
        pos[s] = base + k;
        idx[s] = j;
        ++s;
      }
      pruned += m - s;
      refined += s;
      Row(t, q, ListAt{idx.data()}, s, d.data());
      for (size_t k = 0; k < s; ++k) {
        sink(qi, pos[k], idx[k], d[k], self(idx[k]) || d[k] <= eps);
      }
    }
  }

  if (stats != nullptr) {
    stats->candidates += queries.size() * n;
    stats->pruned += pruned;
    stats->refined += refined;
  }
}

// Runs `fn` with the accessor for `c`, chosen once per call.
template <typename Fn>
void WithCandidates(const Candidates& c,
                    [[maybe_unused]] const traj::SegmentStore& cand_store,
                    Fn&& fn) {
  TRACLUS_DCHECK(c.first <= c.last);
  TRACLUS_DCHECK(c.list != nullptr || c.last <= cand_store.size());
  if (c.list != nullptr) {
    fn(ListAt{c.list});
  } else {
    fn(RangeAt{c.first});
  }
}

}  // namespace

BatchKernel ResolveBatchKernel(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::kAuto:
      return SimdCompiled() ? BatchKernel::kSimd : BatchKernel::kScalar;
    case BatchKernel::kSimd:
      return SimdCompiled() ? BatchKernel::kSimd : BatchKernel::kScalar;
    case BatchKernel::kScalar:
      return BatchKernel::kScalar;
  }
  return BatchKernel::kScalar;
}

const char* BatchKernelName(BatchKernel kernel) {
  switch (kernel) {
    case BatchKernel::kAuto:
      return "auto";
    case BatchKernel::kScalar:
      return "scalar";
    case BatchKernel::kSimd:
      return "simd";
  }
  return "auto";
}

common::Result<BatchKernel> ParseBatchKernel(std::string_view name) {
  if (name == "auto") return BatchKernel::kAuto;
  if (name == "scalar") return BatchKernel::kScalar;
  if (name == "simd") return BatchKernel::kSimd;
  return common::Status::InvalidArgument(
      "unknown distance kernel '" + std::string(name) +
      "' (expected auto, scalar, or simd)");
}

void DistanceTile(const SegmentDistance& dist,
                  const traj::SegmentStore& query_store,
                  common::Span<const size_t> queries,
                  const traj::SegmentStore& cand_store, Candidates candidates,
                  double* out, size_t ldo, BatchKernel kernel) {
  TRACLUS_DCHECK(ldo >= candidates.size());
  const Tile t(query_store, cand_store, dist, kernel);
  // A NaN ε disables the prune: every distance is written.
  const double no_prune = std::numeric_limits<double>::quiet_NaN();
  WithCandidates(candidates, cand_store, [&](const auto& at) {
    TileLoop(
        t, dist, queries, at, candidates.size(), no_prune,
        [&](size_t qi, size_t k, size_t, double d, bool) {
          out[qi * ldo + k] = d;
        },
        nullptr);
  });
}

size_t EpsilonRefineTile(const SegmentDistance& dist,
                         const traj::SegmentStore& query_store,
                         common::Span<const size_t> queries,
                         const traj::SegmentStore& cand_store,
                         Candidates candidates, double eps,
                         std::vector<size_t>* out_lists, BatchKernel kernel,
                         RefineStats* stats) {
  TRACLUS_DCHECK(out_lists != nullptr || queries.empty());
  const Tile t(query_store, cand_store, dist, kernel);
  size_t appended = 0;
  WithCandidates(candidates, cand_store, [&](const auto& at) {
    TileLoop(
        t, dist, queries, at, candidates.size(), eps,
        [&](size_t qi, size_t, size_t j, double, bool within) {
          if (within) {
            out_lists[qi].push_back(j);
            ++appended;
          }
        },
        stats);
  });
  if (stats != nullptr) stats->accepted += appended;
  return appended;
}

void NearestWithinEps(const SegmentDistance& dist,
                      const traj::SegmentStore& query_store,
                      common::Span<const size_t> queries,
                      const traj::SegmentStore& cand_store,
                      Candidates candidates, double eps,
                      common::Span<size_t> out_position,
                      common::Span<double> out_distance, BatchKernel kernel) {
  TRACLUS_DCHECK_EQ(queries.size(), out_position.size());
  TRACLUS_DCHECK_EQ(queries.size(), out_distance.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    out_position[qi] = kNoNearest;
    out_distance[qi] = std::numeric_limits<double>::infinity();
  }
  const Tile t(query_store, cand_store, dist, kernel);
  // Positions reach the sink in ascending order per query, so the strict <
  // keeps the earliest of tied minima.
  WithCandidates(candidates, cand_store, [&](const auto& at) {
    TileLoop(
        t, dist, queries, at, candidates.size(), eps,
        [&](size_t qi, size_t k, size_t, double d, bool within) {
          if (within && d < out_distance[qi]) {
            out_distance[qi] = d;
            out_position[qi] = k;
          }
        },
        nullptr);
  });
}

common::Matrix PairwiseDistanceMatrix(const traj::SegmentStore& store,
                                      const SegmentDistance& dist,
                                      common::ThreadPool& pool,
                                      BatchKernel kernel) {
  const size_t n = store.size();
  common::Matrix m(n, n, 0.0);
  const Tile t(store, store, dist, kernel);
  // Upper-triangle tile fill. The chunk owning rows [lo, hi) walks candidate
  // blocks outermost so each block's SoA columns serve every row of the
  // chunk while hot; the ragged diagonal start (row i owns columns > i) only
  // trims the first block each row intersects. After a block is filled, its
  // mirrored column entries are written as a blocked transpose — short
  // contiguous runs instead of one full-column stride per row. The chunk
  // owning row i writes dist(i, j) and its mirror m(j, i) for every j > i,
  // so every element has exactly one writer and the matrix is identical for
  // every thread count. The diagonal stays 0 (dist(L, L) = 0).
  pool.ParallelForChunked(0, n, [&](size_t lo, size_t hi) {
    for (size_t jb = lo + 1; jb < n; jb += kBlock) {
      const size_t je = std::min(n, jb + kBlock);
      const size_t row_end = std::min(hi, je);
      for (size_t i = lo; i < row_end; ++i) {
        const size_t first = std::max(i + 1, jb);
        if (first >= je) continue;
        Row(t, i, RangeAt{first}, je - first, &m(i, first));
      }
      for (size_t j = jb; j < je; ++j) {
        const size_t i_end = std::min(hi, j);
        for (size_t i = lo; i < i_end; ++i) m(j, i) = m(i, j);
      }
    }
  });
  return m;
}

bool PruneProvablyFar(const traj::SegmentStore& store,
                      const SegmentDistance& dist, size_t a, size_t b,
                      double eps) {
  const PruneContext p = MakePruneContext(store, dist, a, eps);
  return a != b && p.usable && PrunedFar(p, store, b);
}

}  // namespace traclus::distance
