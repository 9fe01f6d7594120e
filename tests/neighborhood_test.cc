// Tests for ε-neighborhood providers: the brute-force oracle and the grid
// index and their chunked counterparts, including the exactness property that
// makes Lemma 3's index usable.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "cluster/chunked_neighborhood.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "traj/chunked_store.h"
#include "traj/segment_store.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "distance/segment_distance.h"

namespace traclus::cluster {
namespace {

using distance::SegmentDistance;
using distance::SegmentDistanceConfig;
using geom::Point;
using geom::Segment;

traj::SegmentStore RandomSegments(size_t n, double world, double max_len,
                                  uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Segment> segs;
  segs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point s(rng.Uniform(0, world), rng.Uniform(0, world));
    const double angle = rng.Uniform(0, 2 * M_PI);
    const double len = rng.Uniform(0.1, max_len);
    const Point e(s.x() + len * std::cos(angle), s.y() + len * std::sin(angle));
    segs.emplace_back(s, e, static_cast<geom::SegmentId>(i),
                      static_cast<geom::TrajectoryId>(i % 7));
  }
  return traj::SegmentStore(std::move(segs));
}

TEST(BruteForceNeighborhoodTest, IncludesSelf) {
  const auto segs = RandomSegments(20, 100, 5, 1);
  const SegmentDistance dist;
  const BruteForceNeighborhood provider(segs, dist);
  for (size_t i = 0; i < segs.size(); ++i) {
    const auto n = provider.Neighbors(i, 0.0001);
    EXPECT_NE(std::find(n.begin(), n.end(), i), n.end());
  }
}

TEST(BruteForceNeighborhoodTest, LargeEpsReturnsEverything) {
  const auto segs = RandomSegments(25, 50, 5, 2);
  const SegmentDistance dist;
  const BruteForceNeighborhood provider(segs, dist);
  EXPECT_EQ(provider.Neighbors(0, 1e9).size(), segs.size());
}

TEST(BruteForceNeighborhoodTest, NeighborsRespectEps) {
  const auto segs = RandomSegments(40, 100, 8, 3);
  const SegmentDistance dist;
  const BruteForceNeighborhood provider(segs, dist);
  const double eps = 15.0;
  for (size_t i = 0; i < segs.size(); ++i) {
    for (const size_t j : provider.Neighbors(i, eps)) {
      EXPECT_LE(dist(segs[i], segs[j]), eps);
    }
  }
}

TEST(GridNeighborhoodIndexTest, AutoCellSizeIsPositive) {
  const auto segs = RandomSegments(30, 100, 5, 4);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  EXPECT_GT(index.cell_size(), 0.0);
  EXPECT_GT(index.NumCells(), 0u);
}

TEST(GridNeighborhoodIndexTest, ExplicitCellSizeHonored) {
  const auto segs = RandomSegments(30, 100, 5, 4);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist, 7.5);
  EXPECT_DOUBLE_EQ(index.cell_size(), 7.5);
}

// The core exactness property: for every workload/ε/weight configuration the
// grid index must return exactly the brute-force neighborhoods.
struct IndexExactnessCase {
  uint64_t seed;
  size_t n;
  double world;
  double max_len;
  double eps;
  double w_perp;
  double w_par;
  double w_angle;
  bool directed;
};

class IndexExactnessTest
    : public ::testing::TestWithParam<IndexExactnessCase> {};

TEST_P(IndexExactnessTest, MatchesBruteForceExactly) {
  const IndexExactnessCase& c = GetParam();
  const auto segs = RandomSegments(c.n, c.world, c.max_len, c.seed);
  SegmentDistanceConfig cfg;
  cfg.w_perpendicular = c.w_perp;
  cfg.w_parallel = c.w_par;
  cfg.w_angle = c.w_angle;
  cfg.directed = c.directed;
  const SegmentDistance dist(cfg);
  const BruteForceNeighborhood brute(segs, dist);
  const GridNeighborhoodIndex index(segs, dist);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(index.Neighbors(i, c.eps), brute.Neighbors(i, c.eps))
        << "query " << i << " eps " << c.eps;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IndexExactnessTest,
    ::testing::Values(
        IndexExactnessCase{1, 150, 100, 5, 3.0, 1, 1, 1, true},
        IndexExactnessCase{2, 150, 100, 5, 10.0, 1, 1, 1, true},
        IndexExactnessCase{3, 150, 100, 5, 40.0, 1, 1, 1, true},
        IndexExactnessCase{4, 200, 50, 20, 5.0, 1, 1, 1, true},  // Long segs.
        IndexExactnessCase{5, 100, 300, 2, 8.0, 1, 1, 1, true},      // Sparse.
        IndexExactnessCase{6, 150, 100, 5, 5.0, 2.0, 0.5, 1.5, true},// Weights.
        IndexExactnessCase{7, 150, 100, 5, 5.0, 0.3, 2.0, 0.0, true},
        IndexExactnessCase{8, 150, 100, 5, 5.0, 1, 1, 1, false},  // Undirected.
        IndexExactnessCase{9, 60, 10, 4, 2.0, 1, 1, 1, true},        // Dense.
        // Tiny eps.
        IndexExactnessCase{10, 150, 100, 5, 0.05, 1, 1, 1, true}));

TEST(GridNeighborhoodIndexTest, ZeroWeightFallsBackToExactScan) {
  // w∥ = 0 kills the lower bound; the index must still be exact (via scan).
  const auto segs = RandomSegments(80, 60, 6, 21);
  SegmentDistanceConfig cfg;
  cfg.w_parallel = 0.0;
  const SegmentDistance dist(cfg);
  EXPECT_DOUBLE_EQ(dist.LowerBoundFactor(), 0.0);
  const BruteForceNeighborhood brute(segs, dist);
  const GridNeighborhoodIndex index(segs, dist);
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(index.Neighbors(i, 6.0), brute.Neighbors(i, 6.0));
  }
}

TEST(GridNeighborhoodIndexTest, CollinearChainsAreFound) {
  // Collinear far-apart segments have d⊥ = dθ = 0; only d∥ separates them.
  // This is the regime where a naive "prune by ε directly" index would be
  // wrong, and where the 2·d⊥ + d∥ bound is tight.
  std::vector<Segment> segs;
  for (int i = 0; i < 10; ++i) {
    segs.emplace_back(Point(i * 10.0, 0), Point(i * 10.0 + 8.0, 0),
                      /*id=*/i, /*trajectory_id=*/i);
  }
  const SegmentDistance dist;
  const traj::SegmentStore store(std::move(segs));
  const BruteForceNeighborhood brute(store, dist);
  const GridNeighborhoodIndex index(store, dist);
  for (double eps : {1.0, 2.0, 5.0, 12.0, 30.0}) {
    for (size_t i = 0; i < store.size(); ++i) {
      EXPECT_EQ(index.Neighbors(i, eps), brute.Neighbors(i, eps));
    }
  }
}

TEST(GridNeighborhoodIndexTest, ThreeDimensionalSegments) {
  common::Rng rng(31);
  std::vector<Segment> segs;
  for (int i = 0; i < 80; ++i) {
    const Point s(rng.Uniform(0, 50), rng.Uniform(0, 50), rng.Uniform(0, 50));
    const Point e(s.x() + rng.Uniform(-4, 4), s.y() + rng.Uniform(-4, 4),
                  s.z() + rng.Uniform(-4, 4));
    segs.emplace_back(s, e, i, i % 5);
  }
  const SegmentDistance dist;
  const traj::SegmentStore store(std::move(segs));
  const BruteForceNeighborhood brute(store, dist);
  const GridNeighborhoodIndex index(store, dist);
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(index.Neighbors(i, 6.0), brute.Neighbors(i, 6.0));
  }
}

TEST(GridNeighborhoodIndexTest, RepeatedQueriesAreConsistent) {
  // The visit-stamp dedup must not leak state between queries.
  const auto segs = RandomSegments(60, 40, 5, 77);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  const auto first = index.Neighbors(5, 8.0);
  for (int rep = 0; rep < 50; ++rep) {
    EXPECT_EQ(index.Neighbors(5, 8.0), first);
  }
}

TEST(GridNeighborhoodIndexTest, SingleArgNeighborsIsThreadSafe) {
  // Regression (CHANGES.md known issue): the index-interface overload used to
  // funnel every caller through one shared mutable scratch, racing the visit
  // stamps under concurrent queries. It now routes through a per-thread
  // scratch; hammering it from the pool must agree with the brute-force
  // oracle on every query. (Write/write races on the old shared stamps
  // produced duplicate or missing neighbors, so a mismatch here is the
  // TSAN-visible corruption surfacing; under TSAN the race itself reports.)
  const auto segs = RandomSegments(400, 60, 4, 97);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  const BruteForceNeighborhood oracle(segs, dist);
  const double eps = 5.0;

  std::vector<std::vector<size_t>> expect(segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    expect[i] = oracle.Neighbors(i, eps);
  }

  common::ThreadPool& pool = common::SharedPool(8);
  const NeighborhoodProvider& provider = index;  // The interface overload.
  std::atomic<size_t> mismatches{0};
  for (int round = 0; round < 4; ++round) {
    pool.ParallelFor(0, 4 * segs.size(), [&](size_t k) {
      const size_t i = k % segs.size();
      if (provider.Neighbors(i, eps) != expect[i]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(NeighborhoodCacheTest, BoundedModeBoundsPeakListResidency) {
  // Satellite regression: the eager cache materializes all n lists even when
  // the consumer only streams each list once. Bounded mode must serve the
  // exact same lists through NeighborsBatch blocks while never holding more
  // than `block` of them.
  const auto segs = RandomSegments(120, 50, 5, 51);
  const SegmentDistance dist;
  const BruteForceNeighborhood brute(segs, dist);
  const double eps = 6.0;
  common::ThreadPool& pool = common::SharedPool(4);

  for (const size_t block : {size_t{1}, size_t{4}, size_t{16}}) {
    const NeighborhoodCache cache(brute, eps, pool, block);
    // The streaming access pattern of a blocked grouping pass.
    for (size_t i = 0; i < segs.size(); ++i) {
      EXPECT_EQ(cache.Neighbors(i, eps), brute.Neighbors(i, eps))
          << "block " << block << " query " << i;
      EXPECT_LE(cache.resident_lists(), block);
    }
    EXPECT_LE(cache.peak_resident_lists(), block);
    EXPECT_GE(cache.peak_resident_lists(), std::min<size_t>(block, 1));
  }
}

TEST(NeighborhoodCacheTest, BoundedModeExactUnderArbitraryAccess) {
  // Re-queries and out-of-order access must stay exact (evicted lists are
  // recomputed through the base), and residency stays bounded throughout.
  const auto segs = RandomSegments(80, 40, 5, 53);
  const SegmentDistance dist;
  const BruteForceNeighborhood brute(segs, dist);
  const double eps = 5.0;
  const size_t block = 8;
  const NeighborhoodCache cache(brute, eps, common::SharedPool(2), block);

  common::Rng rng(99);
  for (int round = 0; round < 400; ++round) {
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(segs.size()) - 1));
    EXPECT_EQ(cache.Neighbors(i, eps), brute.Neighbors(i, eps));
    EXPECT_LE(cache.resident_lists(), block);
  }
  EXPECT_LE(cache.peak_resident_lists(), block);
}

TEST(NeighborhoodCacheTest, EagerModeKeepsEverythingResident) {
  const auto segs = RandomSegments(40, 40, 5, 57);
  const SegmentDistance dist;
  const BruteForceNeighborhood brute(segs, dist);
  const double eps = 5.0;
  const NeighborhoodCache cache(brute, eps, common::SharedPool(2));
  EXPECT_EQ(cache.resident_lists(), segs.size());
  EXPECT_EQ(cache.peak_resident_lists(), segs.size());
  for (size_t i = 0; i < segs.size(); ++i) {
    EXPECT_EQ(cache.Neighbors(i, eps), brute.Neighbors(i, eps));
  }
}

TEST(ProviderKernelTest, AllProvidersAgreeForEveryCompiledKernel) {
  // The providers delegate refinement to the batch kernels; every kernel
  // selection must produce the exact brute-force-per-pair neighborhoods
  // through every provider — the eager pair and the chunked pair, for every
  // chunk capacity and residency cap. The w⊥ = 0 weight set has no usable
  // lower bound, so both grids run their full-scan fallback.
  const auto segs = RandomSegments(150, 60, 6, 61);
  const double eps = 7.0;
  common::ThreadPool& pool = common::SharedPool(4);

  SegmentDistanceConfig no_bound;
  no_bound.w_perpendicular = 0.0;
  for (const SegmentDistanceConfig& cfg : {SegmentDistanceConfig{}, no_bound}) {
    const SegmentDistance dist(cfg);
    SCOPED_TRACE(testing::Message()
                 << "w_perpendicular " << cfg.w_perpendicular);

    // Reference: the raw per-pair loop, independent of the kernel layer.
    std::vector<std::vector<size_t>> expect(segs.size());
    for (size_t i = 0; i < segs.size(); ++i) {
      for (size_t j = 0; j < segs.size(); ++j) {
        if (j == i || dist(segs, i, j) <= eps) expect[i].push_back(j);
      }
    }

    std::vector<distance::BatchKernel> kernels = {
        distance::BatchKernel::kScalar};
    if (distance::SimdCompiled()) {
      kernels.push_back(distance::BatchKernel::kSimd);
    }
    for (const distance::BatchKernel kernel : kernels) {
      SCOPED_TRACE(testing::Message()
                   << "kernel " << static_cast<int>(kernel));
      const BruteForceNeighborhood brute(segs, dist, kernel);
      const GridNeighborhoodIndex grid(segs, dist, 0.0, kernel);
      for (size_t i = 0; i < segs.size(); ++i) {
        EXPECT_EQ(brute.Neighbors(i, eps), expect[i]) << "brute query " << i;
        EXPECT_EQ(grid.Neighbors(i, eps), expect[i]) << "grid query " << i;
      }
      EXPECT_EQ(grid.AllNeighbors(eps, pool), expect);

      for (const size_t capacity : {size_t{1}, size_t{7}, segs.size()}) {
        for (const size_t cap : {size_t{0}, size_t{2}}) {
          SCOPED_TRACE(testing::Message() << "chunk_capacity " << capacity
                                          << " max_resident_chunks " << cap);
          traj::ChunkedStoreOptions options;
          options.chunk_capacity = capacity;
          options.max_resident_chunks = cap;
          traj::ChunkedSegmentStore chunked(options);
          ASSERT_TRUE(chunked.AppendAll(segs.segments()).ok());
          ASSERT_TRUE(chunked.Finalize().ok());
          const ChunkedBruteForceNeighborhood chunked_brute(chunked, dist,
                                                            kernel);
          const ChunkedGridNeighborhood chunked_grid(chunked, dist, 0.0,
                                                     kernel);
          for (size_t i = 0; i < segs.size(); ++i) {
            EXPECT_EQ(chunked_brute.Neighbors(i, eps), expect[i])
                << "chunked brute query " << i;
            EXPECT_EQ(chunked_grid.Neighbors(i, eps), expect[i])
                << "chunked grid query " << i;
          }
          EXPECT_EQ(chunked_grid.AllNeighbors(eps, pool), expect);
        }
      }
    }
  }
}

TEST(GridNeighborhoodIndexTest, NeighborsBatchMatchesPerQuery) {
  const auto segs = RandomSegments(200, 50, 4, 11);
  const SegmentDistance dist;
  const GridNeighborhoodIndex index(segs, dist);
  const double eps = 6.0;
  std::vector<size_t> queries = {7, 3, 3, 199, 0, 42};  // Dups are fine.
  const auto lists = index.NeighborsBatch(queries, eps, common::SharedPool(4));
  ASSERT_EQ(lists.size(), queries.size());
  for (size_t k = 0; k < queries.size(); ++k) {
    EXPECT_EQ(lists[k], index.Neighbors(queries[k], eps)) << "query " << k;
  }
}

}  // namespace
}  // namespace traclus::cluster
