// Tests for the TRACLUS line-segment distance function (§2.3, Definitions 1-3)
// and the naive endpoint baselines (Appendix A).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "distance/batch_kernels.h"
#include "distance/endpoint_distance.h"
#include "distance/segment_distance.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"

namespace traclus::distance {
namespace {

using geom::Point;
using geom::Segment;

// Worked example used throughout: Li horizontal (0,0)→(10,0), Lj = (2,2)→(5,4).
//   l⊥1 = 2, l⊥2 = 4            ⇒ d⊥ = (4 + 16) / (2 + 4) = 10/3
//   ps = (2,0) ⇒ l∥1 = 2; pe = (5,0) ⇒ l∥2 = 5 ⇒ d∥ = 2
//   sinθ = 2/√13, ‖Lj‖ = √13    ⇒ dθ = 2
class WorkedExampleTest : public ::testing::Test {
 protected:
  const Segment li_{Point(0, 0), Point(10, 0)};
  const Segment lj_{Point(2, 2), Point(5, 4)};
  const SegmentDistance dist_{};
};

TEST_F(WorkedExampleTest, PerpendicularIsLehmerMeanOfOrder2) {
  EXPECT_NEAR(dist_.Perpendicular(li_, lj_), 10.0 / 3.0, 1e-12);
}

TEST_F(WorkedExampleTest, ParallelIsMinOfProjectionGaps) {
  EXPECT_NEAR(dist_.Parallel(li_, lj_), 2.0, 1e-12);
}

TEST_F(WorkedExampleTest, AngleIsShorterLengthTimesSine) {
  EXPECT_NEAR(dist_.Angle(li_, lj_), 2.0, 1e-12);
}

TEST_F(WorkedExampleTest, TotalIsWeightedSum) {
  EXPECT_NEAR(dist_(li_, lj_), 10.0 / 3.0 + 2.0 + 2.0, 1e-12);
}

TEST_F(WorkedExampleTest, ComponentsBundleMatchesIndividualCalls) {
  const DistanceComponents c = dist_.Components(li_, lj_);
  EXPECT_DOUBLE_EQ(c.perpendicular, dist_.Perpendicular(li_, lj_));
  EXPECT_DOUBLE_EQ(c.parallel, dist_.Parallel(li_, lj_));
  EXPECT_DOUBLE_EQ(c.angle, dist_.Angle(li_, lj_));
}

TEST_F(WorkedExampleTest, CustomWeightsScaleComponents) {
  SegmentDistanceConfig cfg;
  cfg.w_perpendicular = 2.0;
  cfg.w_parallel = 0.5;
  cfg.w_angle = 3.0;
  const SegmentDistance weighted(cfg);
  EXPECT_NEAR(weighted(li_, lj_), 2.0 * 10.0 / 3.0 + 0.5 * 2.0 + 3.0 * 2.0,
              1e-12);
}

TEST(SegmentDistanceTest, IdenticalSegmentsHaveZeroDistance) {
  const Segment s(Point(3, 4), Point(8, 1));
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist(s, s), 0.0);
}

TEST(SegmentDistanceTest, EnclosedParallelSegmentUsesNearestEndpointGap) {
  // Lj strictly inside Li's span, offset by 1 vertically.
  const Segment li(Point(0, 0), Point(100, 0));
  const Segment lj(Point(40, 1), Point(60, 1));
  const SegmentDistance dist;
  EXPECT_NEAR(dist.Perpendicular(li, lj), 1.0, 1e-12);
  // ps=(40,0): min(40,60)=40; pe=(60,0): min(60,40)=40 ⇒ d∥ = 40.
  EXPECT_NEAR(dist.Parallel(li, lj), 40.0, 1e-12);
  EXPECT_NEAR(dist.Angle(li, lj), 0.0, 1e-12);
}

TEST(SegmentDistanceTest, AdjacentSegmentsOfATrajectoryHaveZeroParallel) {
  // §4.1.1: "the parallel distance between two adjacent line segments in a
  // trajectory is always zero" — they share an endpoint, so one projection gap
  // is zero.
  const Segment a(Point(0, 0), Point(10, 0));
  const Segment b(Point(10, 0), Point(15, 7));
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist.Parallel(a, b), 0.0);
}

TEST(SegmentDistanceTest, DirectedAngleUsesFullLengthBeyond90Degrees) {
  const Segment li(Point(0, 0), Point(10, 0));
  const Segment opposite(Point(5, 1), Point(1, 1));  // θ = 180°.
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist.Angle(li, opposite), 4.0);  // ‖Lj‖.

  const Segment backward_diag(Point(5, 1), Point(2, 4));  // θ = 135°.
  EXPECT_DOUBLE_EQ(dist.Angle(li, backward_diag), backward_diag.Length());
}

TEST(SegmentDistanceTest, UndirectedAngleFoldsBeyond90Degrees) {
  SegmentDistanceConfig cfg;
  cfg.directed = false;
  const SegmentDistance dist(cfg);
  const Segment li(Point(0, 0), Point(10, 0));
  const Segment opposite(Point(5, 1), Point(1, 1));  // θ = 180° folds to 0°.
  EXPECT_NEAR(dist.Angle(li, opposite), 0.0, 1e-12);

  const Segment backward_diag(Point(5, 1), Point(2, 4));  // 135° folds to 45°.
  EXPECT_NEAR(dist.Angle(li, backward_diag),
              backward_diag.Length() * std::sin(M_PI / 4), 1e-12);
}

TEST(SegmentDistanceTest, PointLikeSegmentHasZeroAngle) {
  // §4.1.3: a very short segment has no directional strength; the limit case
  // (zero length) must contribute zero angle distance, not NaN.
  const Segment li(Point(0, 0), Point(10, 0));
  const Segment pt(Point(5, 3), Point(5, 3));
  const SegmentDistance dist;
  EXPECT_DOUBLE_EQ(dist.Angle(li, pt), 0.0);
  EXPECT_TRUE(std::isfinite(dist(li, pt)));
}

TEST(SegmentDistanceTest, ShortSegmentShrinksAngleDistanceFig11) {
  // Fig. 11: with L1 and L3 at a fixed mutual angle, a very short connector L2
  // yields small dθ to both, while a long L2 yields large dθ — the
  // over-clustering hazard the partition-suppression heuristic addresses.
  const Segment l1(Point(0, 0), Point(10, 0));
  const Segment short_l2(Point(11, 0.5), Point(11.5, 1.0));
  const Segment long_l2(Point(11, 0.5), Point(16, 5.5));
  const SegmentDistance dist;
  EXPECT_LT(dist.Angle(l1, short_l2), 0.51);
  EXPECT_GT(dist.Angle(l1, long_l2), 4.9);
}

// --- Symmetry (Lemma 2) as a parameterized property over random pairs. ---

class SymmetryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SymmetryPropertyTest, DistanceIsSymmetric) {
  common::Rng rng(GetParam());
  const SegmentDistance dist;
  SegmentDistanceConfig undirected_cfg;
  undirected_cfg.directed = false;
  const SegmentDistance undirected(undirected_cfg);
  for (int i = 0; i < 100; ++i) {
    Segment a(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              /*id=*/2 * i, /*trajectory_id=*/0);
    Segment b(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              /*id=*/2 * i + 1, /*trajectory_id=*/1);
    EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a)) << a.ToString() << " / "
                                             << b.ToString();
    EXPECT_DOUBLE_EQ(undirected(a, b), undirected(b, a));
  }
}

TEST_P(SymmetryPropertyTest, EqualLengthTieBreakIsStillSymmetric) {
  // Equal-length pairs exercise the id / lexicographic tie-breaks.
  common::Rng rng(GetParam() + 1000);
  const SegmentDistance dist;
  for (int i = 0; i < 100; ++i) {
    const Point s1(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    const Point s2(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    const double angle1 = rng.Uniform(0, 2 * M_PI);
    const double angle2 = rng.Uniform(0, 2 * M_PI);
    const double len = rng.Uniform(0.5, 10.0);
    Segment a(s1, s1 + Point(std::cos(angle1), std::sin(angle1)) * len);
    Segment b(s2, s2 + Point(std::cos(angle2), std::sin(angle2)) * len);
    EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a));
  }
}

TEST_P(SymmetryPropertyTest, ComponentsAreNonNegativeAndFinite) {
  common::Rng rng(GetParam() + 2000);
  const SegmentDistance dist;
  for (int i = 0; i < 100; ++i) {
    Segment a(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)));
    Segment b(Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)),
              Point(rng.Uniform(-50, 50), rng.Uniform(-50, 50)));
    const DistanceComponents c = dist.Components(a, b);
    EXPECT_GE(c.perpendicular, 0.0);
    EXPECT_GE(c.parallel, 0.0);
    EXPECT_GE(c.angle, 0.0);
    EXPECT_TRUE(std::isfinite(c.perpendicular));
    EXPECT_TRUE(std::isfinite(c.parallel));
    EXPECT_TRUE(std::isfinite(c.angle));
  }
}

TEST_P(SymmetryPropertyTest, LowerBoundHoldsForRandomWeights) {
  // DESIGN.md §4.1: dist ≥ min(w⊥/2, w∥) · EuclideanSegmentDistance — the
  // inequality that makes exact grid-index pruning possible.
  common::Rng rng(GetParam() + 3000);
  for (int i = 0; i < 100; ++i) {
    SegmentDistanceConfig cfg;
    cfg.w_perpendicular = rng.Uniform(0.1, 3.0);
    cfg.w_parallel = rng.Uniform(0.1, 3.0);
    cfg.w_angle = rng.Uniform(0.0, 3.0);
    cfg.directed = rng.Bernoulli(0.5);
    const SegmentDistance dist(cfg);
    Segment a(Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)),
              Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)));
    Segment b(Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)),
              Point(rng.Uniform(-30, 30), rng.Uniform(-30, 30)));
    const double lower =
        dist.LowerBoundFactor() * geom::SegmentToSegmentDistance(a, b);
    EXPECT_GE(dist(a, b), lower - 1e-9)
        << a.ToString() << " / " << b.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SymmetryPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(SegmentDistanceTest, TriangleInequalityCanFail) {
  // §4.2: the distance is not a metric. Collinear chain: L2 touches both L1 and
  // L3 (distance 0 each) while L1 and L3 are 10 apart.
  const SegmentDistance dist;
  const Segment l1(Point(0, 0), Point(10, 0));
  const Segment l2(Point(10, 0), Point(20, 0));
  const Segment l3(Point(20, 0), Point(30, 0));
  EXPECT_DOUBLE_EQ(dist(l1, l2), 0.0);
  EXPECT_DOUBLE_EQ(dist(l2, l3), 0.0);
  EXPECT_GT(dist(l1, l3), dist(l1, l2) + dist(l2, l3));
}

TEST(SegmentDistanceTest, ThreeDimensionalSegmentsSupported) {
  const SegmentDistance dist;
  const Segment a(Point(0, 0, 0), Point(10, 0, 0));
  const Segment b(Point(2, 3, 4), Point(7, 3, 4));
  const DistanceComponents c = dist.Components(a, b);
  EXPECT_NEAR(c.perpendicular, 5.0, 1e-12);  // Both offsets are √(9+16) = 5.
  EXPECT_NEAR(c.angle, 0.0, 1e-12);
  EXPECT_NEAR(c.parallel, 2.0, 1e-12);  // ps=(2,0,0) → min(2, 8) = 2.
}

TEST(SegmentDistanceTest, TranslationInvariance) {
  common::Rng rng(77);
  const SegmentDistance dist;
  for (int i = 0; i < 50; ++i) {
    const Point shift(rng.Uniform(-1000, 1000), rng.Uniform(-1000, 1000));
    Segment a(Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)),
              Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)));
    Segment b(Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)),
              Point(rng.Uniform(-10, 10), rng.Uniform(-10, 10)));
    Segment a2(a.start() + shift, a.end() + shift);
    Segment b2(b.start() + shift, b.end() + shift);
    EXPECT_NEAR(dist(a, b), dist(a2, b2), 1e-7);
  }
}

// --- Appendix A baselines. ---

TEST(EndpointDistanceTest, AppendixAExampleNaiveMeasureCannotRank) {
  const Segment l1(Point(0, 0), Point(200, 0));
  const Segment l2(Point(100, 100), Point(300, 100));
  const Segment l3(Point(100, 100), Point(200, 200));
  // Both nearest-endpoint sums are exactly 200·√2 — the naive measure ties.
  const double expected = 200.0 * std::sqrt(2.0);
  EXPECT_NEAR(DirectedNearestEndpointSum(l1, l2), expected, 1e-9);
  EXPECT_NEAR(DirectedNearestEndpointSum(l1, l3), expected, 1e-9);
  // The TRACLUS distance ranks L2 (parallel) closer than L3 (45° rotated).
  const SegmentDistance dist;
  EXPECT_LT(dist(l1, l2), dist(l1, l3));
}

TEST(EndpointDistanceTest, CorrespondingSumIsOrientationInsensitive) {
  const Segment a(Point(0, 0), Point(10, 0));
  const Segment b(Point(10, 1), Point(0, 1));  // Reversed parallel.
  EXPECT_NEAR(EndpointSumDistance(a, b), 2.0, 1e-12);
}

TEST(EndpointDistanceTest, SymmetrizedNearestEndpointIsSymmetric) {
  common::Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    Segment a(Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)),
              Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)));
    Segment b(Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)),
              Point(rng.Uniform(-20, 20), rng.Uniform(-20, 20)));
    EXPECT_DOUBLE_EQ(NearestEndpointSumDistance(a, b),
                     NearestEndpointSumDistance(b, a));
  }
}

TEST(EndpointDistanceTest, IdenticalSegmentsAreZeroUnderAllMeasures) {
  const Segment s(Point(1, 2), Point(3, 4));
  EXPECT_DOUBLE_EQ(EndpointSumDistance(s, s), 0.0);
  EXPECT_DOUBLE_EQ(NearestEndpointSumDistance(s, s), 0.0);
}

// --- The tile primitive (distance/batch_kernels.h): bitwise equality of
// --- all three faces with the cached pair path, and prune admissibility.

// Adversarial segment corpus: general-position, degenerate (point-like),
// exactly tied lengths (translates, with and without usable ids), shared
// endpoints, and collinear chains — every branch of the canonical kernel.
// `copies` repeats the 63-segment recipe (fresh draws, fresh ids) to reach
// store sizes past the tile loop's 256-candidate block.
traj::SegmentStore AdversarialStore(uint64_t seed, bool three_d,
                                    int copies = 1) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  auto random_point = [&](double lo, double hi) {
    return three_d ? Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi),
                           rng.Uniform(lo, hi))
                   : Point(rng.Uniform(lo, hi), rng.Uniform(lo, hi));
  };
  const auto id_of = [&](size_t k) {
    // A sprinkle of -1 ids forces the lexicographic tie-break path.
    return k % 7 == 3 ? geom::SegmentId{-1}
                      : static_cast<geom::SegmentId>(k);
  };
  for (int copy = 0; copy < copies; ++copy) {
    // General position.
    for (int i = 0; i < 40; ++i) {
      segs.emplace_back(random_point(-50, 50), random_point(-50, 50),
                        id_of(segs.size()),
                        static_cast<geom::TrajectoryId>(i % 5));
    }
    // Point-like (zero-length) segments.
    for (int i = 0; i < 6; ++i) {
      const Point p = random_point(-50, 50);
      segs.emplace_back(p, p, id_of(segs.size()), 0);
    }
    // Exact translates: identical FP lengths, so the Lemma 2 tie-breaks fire.
    for (int i = 0; i < 6; ++i) {
      const Point s = random_point(-40, 40);
      const Point d = random_point(-5, 5);
      const Point shift = random_point(-20, 20);
      segs.emplace_back(s, s + d, id_of(segs.size()), 1);
      segs.emplace_back(s + shift, s + shift + d, id_of(segs.size()), 2);
    }
    // Shared endpoints / collinear chain (zero parallel / zero perpendicular
    // regimes).
    const Point base = random_point(-10, 10);
    const Point step = three_d ? Point(7, 0, 0) : Point(7, 0);
    for (int i = 0; i < 5; ++i) {
      segs.emplace_back(base + step * static_cast<double>(i),
                        base + step * static_cast<double>(i + 1),
                        id_of(segs.size()), 3);
    }
  }
  return traj::SegmentStore(std::move(segs));
}

std::vector<SegmentDistanceConfig> KernelTestConfigs() {
  SegmentDistanceConfig defaults;
  SegmentDistanceConfig undirected;
  undirected.directed = false;
  SegmentDistanceConfig weighted;
  weighted.w_perpendicular = 2.5;
  weighted.w_parallel = 0.25;
  weighted.w_angle = 1.75;
  SegmentDistanceConfig no_bound;  // LowerBoundFactor == 0: prune disabled.
  no_bound.w_parallel = 0.0;
  return {defaults, undirected, weighted, no_bound};
}

std::vector<BatchKernel> CompiledKernels() {
  std::vector<BatchKernel> kernels = {BatchKernel::kScalar};
  if (SimdCompiled()) kernels.push_back(BatchKernel::kSimd);
  return kernels;
}

// Bit-level equality matters: EXPECT_EQ on doubles would treat -0.0 == +0.0
// and NaN != NaN; the kernels promise the same bit pattern.
void ExpectBitEqual(double a, double b, const char* what, size_t q, size_t j) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  EXPECT_EQ(ab, bb) << what << " mismatch at pair (" << q << ", " << j
                    << "): " << a << " vs " << b;
}

// One call of the tile primitive and its pair-path reference: queries index
// `qs`, candidates index `cs`, and global index = local index + base in the
// reference store both sides were cut from.
struct TileCall {
  const char* name;
  const traj::SegmentStore* qs;
  size_t q_base;
  std::vector<size_t> queries;
  const traj::SegmentStore* cs;
  size_t c_base;
  bool use_list;
  std::vector<size_t> list;  // When use_list.
  size_t first = 0;          // Otherwise the range [first, first + count).
  size_t count = 0;

  Candidates candidates() const {
    return use_list ? Candidates::List(list)
                    : Candidates::Range(first, first + count);
  }
  size_t size() const { return use_list ? list.size() : count; }
  size_t at(size_t k) const { return use_list ? list[k] : first + k; }
  bool self(size_t q, size_t j) const { return qs == cs && q == j; }
};

// Candidate counts straddling the fixed 256-candidate block: one lane, a
// partial block, an exact block, one past it, and two blocks plus one.
constexpr size_t kTileCounts[] = {1, 255, 256, 257, 513};

// Every call shape for candidate count `c`: same-store range and strided
// list with duplicates over the whole store, and cross-store calls between
// the chunk-local stores of a ChunkedSegmentStore and against the whole
// store (so the query's own segment is a candidate in a *different* store).
std::vector<TileCall> TileCalls(const traj::SegmentStore& store,
                                const traj::SegmentStore& chunk0,
                                const traj::SegmentStore& chunk1, size_t c) {
  const size_t n = store.size();
  const size_t m0 = chunk0.size();
  const std::vector<size_t> queries = {0, 3, 10, 101, 101, 257, n - 1};
  const std::vector<size_t> chunk_queries = {0, 3, 10, 101, m0 - 1};
  // Strided over half the store: duplicates once c > n / 2, and it hits
  // queries 3, 10 and 101.
  std::vector<size_t> strided(c);
  for (size_t k = 0; k < c; ++k) strided[k] = (k * 7 + 3) % (n / 2);
  std::vector<size_t> strided1(c);
  for (size_t k = 0; k < c; ++k) strided1[k] = (k * 5 + 1) % chunk1.size();

  std::vector<TileCall> calls;
  calls.push_back({"same-range", &store, 0, queries, &store, 0, false, {},
                   n - c, c});
  calls.push_back({"same-list", &store, 0, queries, &store, 0, true, strided});
  calls.push_back({"chunk-same-list", &chunk0, 0, chunk_queries, &chunk0, 0,
                   true, strided1});
  calls.push_back({"cross-chunk-list", &chunk0, 0, chunk_queries, &chunk1, m0,
                   true, strided1});
  if (c <= chunk1.size()) {
    calls.push_back({"cross-chunk-range", &chunk0, 0, chunk_queries, &chunk1,
                     m0, false, {}, chunk1.size() - c, c});
  }
  calls.push_back({"whole-vs-chunk-list", &store, 0, queries, &chunk0, 0,
                   true, strided});
  return calls;
}

TEST(TilePrimitiveTest, FacesMatchPerPairReferenceBitForBit) {
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(19, three_d, 18);
    ASSERT_GE(store.size(), 1000u);
    traj::ChunkedStoreOptions chunking;
    chunking.chunk_capacity = (store.size() + 1) / 2;
    traj::ChunkedSegmentStore chunked(chunking);
    ASSERT_TRUE(chunked.AppendAll(store.segments()).ok());
    ASSERT_TRUE(chunked.Finalize().ok());
    ASSERT_EQ(chunked.num_chunks(), 2u);
    const auto chunk0 = chunked.Chunk(0);
    const auto chunk1 = chunked.Chunk(1);
    ASSERT_TRUE(chunk0.ok() && chunk1.ok());
    ASSERT_GE((*chunk1)->size(), 513u);

    for (const SegmentDistanceConfig& cfg : KernelTestConfigs()) {
      const SegmentDistance dist(cfg);
      for (const size_t c : kTileCounts) {
        for (const TileCall& call : TileCalls(store, **chunk0, **chunk1, c)) {
          const size_t nq = call.queries.size();
          const size_t nc = call.size();
          // The reference: the cached pair path on the whole store.
          std::vector<double> ref(nq * nc);
          for (size_t qi = 0; qi < nq; ++qi) {
            for (size_t k = 0; k < nc; ++k) {
              ref[qi * nc + k] = dist(store, call.q_base + call.queries[qi],
                                      call.c_base + call.at(k));
            }
          }
          for (const BatchKernel kernel : CompiledKernels()) {
            SCOPED_TRACE(testing::Message()
                         << call.name << " count " << c << " "
                         << BatchKernelName(kernel) << (three_d ? " 3-D" : ""));
            // DistanceTile: every bit, and nothing past the row width.
            const size_t ldo = nc + 3;
            std::vector<double> tile(nq * ldo, -1.0);
            DistanceTile(dist, *call.qs, call.queries, *call.cs,
                         call.candidates(), tile.data(), ldo, kernel);
            for (size_t qi = 0; qi < nq; ++qi) {
              for (size_t k = 0; k < nc; ++k) {
                ExpectBitEqual(tile[qi * ldo + k], ref[qi * nc + k], "tile",
                               call.queries[qi], call.at(k));
              }
              for (size_t k = nc; k < ldo; ++k) {
                EXPECT_EQ(tile[qi * ldo + k], -1.0) << "wrote past row";
              }
            }
            // ε = −1 admits nothing but Definition 4 self-inclusion, which
            // the reference grants only when qs == cs: the whole-vs-chunk
            // call holds each query's own segment in another store.
            for (const double eps : {-1.0, 0.01, 2.0, 9.0, 1e300}) {
              std::vector<std::vector<size_t>> expect(nq);
              std::vector<size_t> expect_pos(nq, kNoNearest);
              std::vector<double> expect_dist(
                  nq, std::numeric_limits<double>::infinity());
              size_t expect_total = 0;
              for (size_t qi = 0; qi < nq; ++qi) {
                for (size_t k = 0; k < nc; ++k) {
                  const double d = ref[qi * nc + k];
                  if (!call.self(call.queries[qi], call.at(k)) && !(d <= eps)) {
                    continue;
                  }
                  expect[qi].push_back(call.at(k));
                  ++expect_total;
                  if (d < expect_dist[qi]) {
                    expect_dist[qi] = d;
                    expect_pos[qi] = k;
                  }
                }
              }

              std::vector<std::vector<size_t>> lists(nq);
              RefineStats stats;
              const size_t appended =
                  EpsilonRefineTile(dist, *call.qs, call.queries, *call.cs,
                                    call.candidates(), eps, lists.data(),
                                    kernel, &stats);
              EXPECT_EQ(lists, expect) << "eps " << eps;
              EXPECT_EQ(appended, expect_total);
              EXPECT_EQ(stats.candidates, nq * nc);
              EXPECT_EQ(stats.pruned + stats.refined, nq * nc);
              EXPECT_EQ(stats.accepted, expect_total);

              std::vector<size_t> pos(nq);
              std::vector<double> dmin(nq);
              NearestWithinEps(dist, *call.qs, call.queries, *call.cs,
                               call.candidates(), eps,
                               common::Span<size_t>(pos.data(), nq),
                               common::Span<double>(dmin.data(), nq), kernel);
              EXPECT_EQ(pos, expect_pos) << "eps " << eps;
              for (size_t qi = 0; qi < nq; ++qi) {
                ExpectBitEqual(dmin[qi], expect_dist[qi], "nearest",
                               call.queries[qi], expect_pos[qi]);
              }
            }
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, PruneIsAdmissible) {
  // The lower bound must NEVER prune a true ε-neighbor: whenever the
  // predicate fires, the exact distance must exceed ε. Swept over the
  // adversarial corpus, random weight configurations, and an ε ladder.
  common::Rng rng(41);
  for (const bool three_d : {false, true}) {
    const traj::SegmentStore store = AdversarialStore(37, three_d);
    const size_t n = store.size();
    for (int trial = 0; trial < 8; ++trial) {
      SegmentDistanceConfig cfg;
      cfg.w_perpendicular = rng.Uniform(0.05, 3.0);
      cfg.w_parallel = rng.Uniform(0.05, 3.0);
      cfg.w_angle = rng.Uniform(0.0, 3.0);
      cfg.directed = rng.Bernoulli(0.5);
      const SegmentDistance dist(cfg);
      for (const double eps : {0.01, 1.0, 5.0, 25.0, 120.0}) {
        size_t pruned = 0;
        for (size_t q = 0; q < n; ++q) {
          for (size_t j = 0; j < n; ++j) {
            if (!PruneProvablyFar(store, dist, q, j, eps)) continue;
            ++pruned;
            EXPECT_GT(dist(store, q, j), eps)
                << "inadmissible prune at (" << q << ", " << j << ") eps "
                << eps;
          }
        }
        // The sweep must actually exercise the prune somewhere.
        if (eps <= 1.0) {
          EXPECT_GT(pruned, 0u);
        }
      }
    }
  }
}

TEST(BatchKernelTest, PairwiseMatrixBatchedMatchesPerPair) {
  const traj::SegmentStore store = AdversarialStore(43, false);
  const SegmentDistance dist;
  for (const BatchKernel kernel : CompiledKernels()) {
    for (const int threads : {1, 4}) {
      const common::Matrix m = PairwiseDistanceMatrix(
          store, dist, common::SharedPool(threads), kernel);
      for (size_t i = 0; i < store.size(); ++i) {
        for (size_t j = 0; j < store.size(); ++j) {
          ExpectBitEqual(m(i, j), i == j ? 0.0 : dist(store, i, j), "matrix",
                         i, j);
        }
      }
    }
  }
}

TEST(BatchKernelTest, KernelSelectionHelpers) {
  EXPECT_STREQ(BatchKernelName(BatchKernel::kAuto), "auto");
  EXPECT_STREQ(BatchKernelName(BatchKernel::kScalar), "scalar");
  EXPECT_STREQ(BatchKernelName(BatchKernel::kSimd), "simd");
  // Round trip: every kernel's name parses back to itself through the one
  // string→kernel path in the tree.
  for (const BatchKernel k :
       {BatchKernel::kAuto, BatchKernel::kScalar, BatchKernel::kSimd}) {
    const auto parsed = ParseBatchKernel(BatchKernelName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  const auto bad = ParseBatchKernel("avx512");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), common::StatusCode::kInvalidArgument);
  // Resolution never yields kAuto, and kSimd only when compiled in.
  EXPECT_NE(ResolveBatchKernel(BatchKernel::kAuto), BatchKernel::kAuto);
  if (!SimdCompiled()) {
    EXPECT_EQ(ResolveBatchKernel(BatchKernel::kSimd), BatchKernel::kScalar);
  } else {
    EXPECT_EQ(ResolveBatchKernel(BatchKernel::kSimd), BatchKernel::kSimd);
  }
}

}  // namespace
}  // namespace traclus::distance
