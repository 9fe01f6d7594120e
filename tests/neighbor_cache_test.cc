// Tests for the persistent neighbor cache (cluster/neighbor_cache_file.h)
// and its content-hash keying (distance/hashing.h): every key input
// perturbation must miss, every bad file must fail with the documented typed
// status (never a silent wrong answer), and served lists must be
// byte-identical to the base provider on both the cold and the warm path —
// through the raw provider API and through the full engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/neighbor_cache_file.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "distance/hashing.h"
#include "distance/segment_distance.h"
#include "geom/segment.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace traclus::cluster {
namespace {

// A fresh directory under the gtest temp root, unique per test.
std::string CacheDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "neighbor_cache_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// A small two-bundle segment set: enough structure for non-trivial
// neighborhoods, small enough that every list is easy to cross-check.
std::vector<geom::Segment> BaseSegments() {
  std::vector<geom::Segment> segments;
  geom::SegmentId id = 0;
  for (int b = 0; b < 2; ++b) {
    const double y0 = b * 50.0;
    for (int i = 0; i < 6; ++i) {
      segments.emplace_back(geom::Point(i * 0.3, y0 + 0.1 * i),
                            geom::Point(i * 0.3 + 4.0, y0 + 0.1 * i + 0.2),
                            id, /*trajectory_id=*/b * 6 + i);
      ++id;
    }
  }
  return segments;
}

constexpr double kEps = 2.5;

// The files in `dir`, by name.
std::vector<std::string> FilesIn(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  return files;
}

// The cluster labels of the committed hurricane golden run (ε = 0.94,
// MinLns = 5), as tools/golden_gen.cc wrote them.
std::vector<int> HurricaneGoldenLabels() {
  std::ifstream in(std::string(TRACLUS_TEST_GOLDEN_DIR) +
                   "/hurricane_default.golden");
  EXPECT_TRUE(in.good());
  std::vector<int> labels;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("labels ", 0) != 0) continue;
    std::istringstream row(line.substr(7));
    int label = 0;
    while (row >> label) labels.push_back(label);
  }
  return labels;
}

TEST(NeighborCacheKeyTest, EveryKeyInputPerturbationChangesTheKey) {
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistanceConfig config;
  const uint64_t key = distance::NeighborhoodCacheKey(store, config, kEps);

  // Stability first: rebuilding the same store yields the same key.
  EXPECT_EQ(distance::NeighborhoodCacheKey(traj::SegmentStore(BaseSegments()),
                                           config, kEps),
            key);

  // One-ULP coordinate change.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] = geom::Segment(
        geom::Point(std::nextafter(s.start().x(), 1e9), s.start().y()),
        s.end(), s.id(), s.trajectory_id(), s.weight());
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Segment id.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] = geom::Segment(s.start(), s.end(), s.id() + 100,
                                s.trajectory_id(), s.weight());
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Trajectory id.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] = geom::Segment(s.start(), s.end(), s.id(),
                                s.trajectory_id() + 100, s.weight());
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Segment weight.
  {
    auto segments = BaseSegments();
    const geom::Segment& s = segments[3];
    segments[3] =
        geom::Segment(s.start(), s.end(), s.id(), s.trajectory_id(), 2.0);
    EXPECT_NE(distance::NeighborhoodCacheKey(traj::SegmentStore(segments),
                                             config, kEps),
              key);
  }
  // Each distance weight, one ULP.
  for (int which = 0; which < 3; ++which) {
    distance::SegmentDistanceConfig perturbed = config;
    double* w = which == 0   ? &perturbed.w_perpendicular
                : which == 1 ? &perturbed.w_parallel
                             : &perturbed.w_angle;
    *w = std::nextafter(*w, 2.0);
    EXPECT_NE(distance::NeighborhoodCacheKey(store, perturbed, kEps), key)
        << "distance weight " << which;
  }
  // Directed flag.
  {
    distance::SegmentDistanceConfig undirected = config;
    undirected.directed = false;
    EXPECT_NE(distance::NeighborhoodCacheKey(store, undirected, kEps), key);
  }
  // ε, one ULP.
  EXPECT_NE(distance::NeighborhoodCacheKey(store, config,
                                           std::nextafter(kEps, 1e9)),
            key);
}

TEST(NeighborCacheFileTest, ColdMissThenWarmHitServesIdenticalLists) {
  const std::string dir = CacheDir("miss_then_hit");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(2);

  auto cold = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE((*cold)->loaded_from_file());
  EXPECT_TRUE(std::filesystem::exists((*cold)->file_path()));

  auto warm = FileNeighborhoodCache::Create(base, store, dist.config(), kEps,
                                            dir, pool);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE((*warm)->loaded_from_file());
  EXPECT_EQ((*warm)->key(), (*cold)->key());
  EXPECT_EQ((*warm)->size(), store.size());

  // Every query method, on both sides, equals the base provider exactly.
  const auto expect = base.AllNeighbors(kEps, pool);
  std::vector<size_t> all_queries(store.size());
  for (size_t i = 0; i < store.size(); ++i) all_queries[i] = i;
  for (const FileNeighborhoodCache* cache : {cold->get(), warm->get()}) {
    EXPECT_EQ(cache->AllNeighbors(kEps, pool), expect);
    EXPECT_EQ(cache->NeighborsBatch(all_queries, kEps, pool), expect);
    const auto sizes = cache->AllNeighborhoodSizes(kEps, pool);
    ASSERT_EQ(sizes.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(sizes[i], expect[i].size());
      EXPECT_EQ(cache->Neighbors(i, kEps), expect[i]);
    }
  }

  // Perturbing a key input routes to a DIFFERENT file: the stale file stays,
  // a second one appears.
  auto segments = BaseSegments();
  const geom::Segment& s = segments[0];
  segments[0] =
      geom::Segment(s.start(), s.end(), s.id(), s.trajectory_id(), 3.0);
  const traj::SegmentStore perturbed(segments);
  const BruteForceNeighborhood perturbed_base(perturbed, dist);
  auto other = FileNeighborhoodCache::Create(perturbed_base, perturbed,
                                             dist.config(), kEps, dir, pool);
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_FALSE((*other)->loaded_from_file());
  EXPECT_NE((*other)->key(), (*cold)->key());
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST(NeighborCacheFileTest, LoadFailsWithTypedStatusOnEveryBadFile) {
  const std::string dir = CacheDir("typed_errors");
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  common::ThreadPool& pool = common::SharedPool(1);
  const uint64_t key = distance::NeighborhoodCacheKey(store, dist.config(),
                                                      kEps);
  const std::string path = NeighborCacheFilePath(dir, key);

  // Missing file → NotFound.
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kNotFound);

  ASSERT_TRUE(WriteNeighborCacheFile(path, key, base, kEps, pool).ok());
  ASSERT_TRUE(
      LoadNeighborCacheFileHeader(path, key, store.size(), kEps).ok());

  // Stale expectations → FailedPrecondition, each key component separately.
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key + 1, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size() + 1, kEps)
                .status()
                .code(),
            common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(),
                                        std::nextafter(kEps, 1e9))
                .status()
                .code(),
            common::StatusCode::kFailedPrecondition);

  // Truncation → IOError: drop the trailing sentinel.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 4);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kIOError);
  // Shorter than even the fixed header → IOError too.
  std::filesystem::resize_file(path, 16);
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kIOError);

  // Corrupt magic → InvalidArgument.
  ASSERT_TRUE(WriteNeighborCacheFile(path, key, base, kEps, pool).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const uint32_t bad = 0xDEADBEEFu;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  EXPECT_EQ(LoadNeighborCacheFileHeader(path, key, store.size(), kEps)
                .status()
                .code(),
            common::StatusCode::kInvalidArgument);

  // Create() must recover from ALL of the above by recomputing: hand it the
  // corrupt file and expect a fresh (cold) cache with correct lists.
  auto recovered = FileNeighborhoodCache::Create(base, store, dist.config(),
                                                 kEps, dir, pool);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE((*recovered)->loaded_from_file());
  EXPECT_EQ((*recovered)->AllNeighbors(kEps, pool),
            base.AllNeighbors(kEps, pool));
  // ... and the rewrite healed the file for the next run.
  auto healed = FileNeighborhoodCache::Create(base, store, dist.config(),
                                              kEps, dir, pool);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE((*healed)->loaded_from_file());
}

TEST(NeighborCacheFileTest, EngineRunsAreByteIdenticalColdWarmAndUncached) {
  const std::string dir = CacheDir("engine");
  const traj::TrajectoryDatabase db =
      datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  core::DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5.0;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto engine = core::TraclusEngine::Builder()
                          .UseMdlPartitioning()
                          .UseDbscanGrouping(group)
                          .UseSweepRepresentatives(reps)
                          .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // A run whose context names no directory leaves the cache untouched.
  const auto expect = engine->Run(db);
  ASSERT_TRUE(expect.ok());
  EXPECT_TRUE(FilesIn(dir).empty());

  core::RunContext ctx;
  ctx.neighbor_cache_dir = dir;
  const auto cold = engine->Run(db, ctx);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const auto warm = engine->Run(db, ctx);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  for (const auto* run : {&cold, &warm}) {
    EXPECT_EQ((*run)->clustering.labels, expect->clustering.labels);
    EXPECT_EQ((*run)->clustering.num_noise, expect->clustering.num_noise);
    ASSERT_EQ((*run)->representatives.size(), expect->representatives.size());
    for (size_t r = 0; r < expect->representatives.size(); ++r) {
      ASSERT_EQ((*run)->representatives[r].size(),
                expect->representatives[r].size());
      for (size_t p = 0; p < expect->representatives[r].size(); ++p) {
        EXPECT_EQ((*run)->representatives[r][p],
                  expect->representatives[r][p]);
      }
    }
  }

  // The warm run reused the cold run's file: exactly one file in the
  // directory after both runs.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(NeighborCacheFileTest, ConcurrentColdWritersShareOneDirectory) {
  // Two cold runs racing on one directory: each writer has its own temp
  // file, so both succeed and both serve the base provider's lists.
  const traj::SegmentStore store(BaseSegments());
  const distance::SegmentDistance dist;
  const BruteForceNeighborhood base(store, dist);
  const auto expect = base.AllNeighbors(kEps, common::SharedPool(1));
  for (int trial = 0; trial < 20; ++trial) {
    const std::string dir = CacheDir("concurrent_writers");
    std::vector<std::vector<std::vector<size_t>>> served(2);
    std::vector<common::Status> status(2, common::Status::OK());
    std::vector<std::thread> writers;
    for (size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] {
        auto cache = FileNeighborhoodCache::Create(
            base, store, dist.config(), kEps, dir, common::SharedPool(1));
        status[w] = cache.status();
        if (cache.ok()) {
          served[w] = (*cache)->AllNeighbors(kEps, common::SharedPool(1));
        }
      });
    }
    for (std::thread& t : writers) t.join();
    for (size_t w = 0; w < 2; ++w) {
      ASSERT_TRUE(status[w].ok()) << "trial " << trial << " writer " << w
                                  << ": " << status[w].ToString();
      EXPECT_EQ(served[w], expect) << "trial " << trial << " writer " << w;
    }
    // No temp file is left behind: the directory holds the one cache file.
    EXPECT_EQ(FilesIn(dir).size(), 1u) << "trial " << trial;
  }
}

TEST(NeighborCacheFileTest, OutOfRangePayloadIndexIsRecomputed) {
  const std::string dir = CacheDir("bad_payload_index");
  const traj::TrajectoryDatabase db =
      datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  core::DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 5.0;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto engine = core::TraclusEngine::Builder()
                          .UseMdlPartitioning()
                          .UseDbscanGrouping(group)
                          .UseSweepRepresentatives(reps)
                          .Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  core::RunContext ctx;
  ctx.neighbor_cache_dir = dir;
  const std::vector<int> golden = HurricaneGoldenLabels();
  ASSERT_FALSE(golden.empty());

  const auto cold = engine->Run(db, ctx);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->clustering.labels, golden);
  const std::vector<std::string> files = FilesIn(dir);
  ASSERT_EQ(files.size(), 1u);
  const std::string path = files.front();

  // The same inputs through the raw API hit the engine's file.
  const traj::SegmentStore& store = cold->store;
  const distance::SegmentDistance dist;
  const GridNeighborhoodIndex base(store, dist);
  common::ThreadPool& pool = common::SharedPool(2);
  {
    auto warm = FileNeighborhoodCache::Create(base, store, dist.config(),
                                              group.eps, dir, pool);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    ASSERT_TRUE((*warm)->loaded_from_file());
  }

  // Overwrites the first payload index (the header is magic, version, key,
  // n, ε and the index count, then n + 1 offsets) with n + 7777.
  const auto corrupt_first_index = [&path] {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    uint64_t n = 0;
    f.seekg(16);
    f.read(reinterpret_cast<char*>(&n), sizeof(n));
    const uint64_t bad = n + 7777;
    f.seekp(static_cast<std::streamoff>(40 + (n + 1) * sizeof(uint64_t)));
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
    ASSERT_TRUE(f.good());
  };

  corrupt_first_index();
  {
    auto reopened = FileNeighborhoodCache::Create(base, store, dist.config(),
                                                  group.eps, dir, pool);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_FALSE((*reopened)->loaded_from_file());
    EXPECT_EQ((*reopened)->Neighbors(0, group.eps),
              base.Neighbors(0, group.eps));
  }

  // A run over the corrupted file recomputes and reproduces the golden.
  corrupt_first_index();
  const auto rerun = engine->Run(db, ctx);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->clustering.labels, golden);
  auto healed = FileNeighborhoodCache::Create(base, store, dist.config(),
                                              group.eps, dir, pool);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE((*healed)->loaded_from_file());
}

}  // namespace
}  // namespace traclus::cluster
