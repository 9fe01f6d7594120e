// Tests for core::ClusterSnapshot (core/snapshot.h): exact file round-trip
// on the golden hurricane and deer pipelines, assignment determinism across
// thread counts × kernels (and across FromResult vs Load), the typed error
// surface of Load/FromResult, and a concurrent Assign hammer that the TSan
// CI lane runs to certify the serving path race-free.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"
#include "distance/batch_kernels.h"
#include "traj/segment_store.h"
#include "traj/trajectory_database.h"

namespace traclus::core {
namespace {

struct GoldenCase {
  const char* name;
  traj::TrajectoryDatabase db;
  double eps;
  double min_lns;
};

// The two golden pipelines (tests/golden/): hurricane at ε = 0.94 /
// MinLns = 5, deer at ε = 1.8 / MinLns = 8.
std::vector<GoldenCase> GoldenCases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"hurricane",
                   datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
                   0.94, 5.0});
  cases.push_back({"deer", datagen::GenerateAnimals(datagen::Deer1995Config()),
                   1.8, 8.0});
  return cases;
}

common::Result<TraclusResult> RunPipeline(const GoldenCase& c,
                                          SnapshotParams* params) {
  DbscanGroupOptions group;
  group.eps = c.eps;
  group.min_lns = c.min_lns;
  SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  const auto engine = TraclusEngine::Builder()
                          .UseMdlPartitioning()
                          .UseDbscanGrouping(group)
                          .UseSweepRepresentatives(reps)
                          .Build();
  if (!engine.ok()) return engine.status();
  if (params != nullptr) {
    params->eps = group.eps;
    params->distance = group.distance;
  }
  return engine->Run(c.db);
}

std::string SnapshotPath(const std::string& name) {
  return ::testing::TempDir() + "snapshot_test_" + name + ".snap";
}

// A snapshot of a few dozen segments (five hurricanes at MinLns = 2) with
// clusters and representatives, small enough for exhaustive file sweeps.
const ClusterSnapshot& SmallSnapshot() {
  static const ClusterSnapshot* snapshot = [] {
    datagen::HurricaneConfig gen;
    gen.num_trajectories = 5;
    const GoldenCase c = {"small", datagen::GenerateHurricanes(gen), 0.94,
                          2.0};
    SnapshotParams params;
    const auto run = RunPipeline(c, &params);
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    auto built = ClusterSnapshot::FromResult(*run, params);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return std::move(built).ValueOrDie().release();
  }();
  return *snapshot;
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

template <typename T>
std::string Patched(std::string bytes, size_t offset, T value) {
  EXPECT_LE(offset + sizeof(value), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  return bytes;
}

// Writes `bytes` to `path` and loads it back: the load must fail with a
// typed status — IOError for a short file, InvalidArgument for a corrupt
// one — and never crash.
common::StatusCode LoadFailureCode(const std::string& path,
                                   const std::string& bytes) {
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto loaded = ClusterSnapshot::Load(path);
  EXPECT_FALSE(loaded.ok());
  if (loaded.ok()) return common::StatusCode::kOk;
  const common::StatusCode code = loaded.status().code();
  EXPECT_TRUE(code == common::StatusCode::kIOError ||
              code == common::StatusCode::kInvalidArgument)
      << loaded.status().ToString();
  return code;
}

void ExpectSameAssignment(const common::Span<const int> a_labels,
                          const common::Span<const double> a_dist,
                          const common::Span<const int> b_labels,
                          const common::Span<const double> b_dist) {
  ASSERT_EQ(a_labels.size(), b_labels.size());
  for (size_t i = 0; i < a_labels.size(); ++i) {
    EXPECT_EQ(a_labels[i], b_labels[i]) << "query " << i;
    // Bitwise distance equality (covers +inf == +inf and exact doubles).
    EXPECT_EQ(a_dist[i], b_dist[i]) << "query " << i;
  }
}

TEST(ClusterSnapshotTest, RoundTripAndAssignDeterminismOnGoldenPipelines) {
  for (const GoldenCase& c : GoldenCases()) {
    SCOPED_TRACE(c.name);
    SnapshotParams params;
    const auto run = RunPipeline(c, &params);
    ASSERT_TRUE(run.ok()) << run.status().ToString();

    const auto built = ClusterSnapshot::FromResult(*run, params);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ClusterSnapshot& snapshot = **built;
    EXPECT_GT(snapshot.candidate_store().size(), 0u);
    ASSERT_EQ(snapshot.candidate_labels().size(),
              snapshot.candidate_store().size());

    // Save → Load round-trips the full state exactly.
    const std::string path = SnapshotPath(c.name);
    ASSERT_TRUE(snapshot.Save(path).ok());
    const auto loaded = ClusterSnapshot::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const ClusterSnapshot& reloaded = **loaded;
    EXPECT_EQ(reloaded.clustering().labels, snapshot.clustering().labels);
    EXPECT_EQ(reloaded.clustering().num_noise,
              snapshot.clustering().num_noise);
    ASSERT_EQ(reloaded.store().size(), snapshot.store().size());
    for (int d = 0; d < snapshot.store().dims(); ++d) {
      EXPECT_EQ(reloaded.store().start_coords(d),
                snapshot.store().start_coords(d));
      EXPECT_EQ(reloaded.store().end_coords(d),
                snapshot.store().end_coords(d));
    }
    ASSERT_EQ(reloaded.representatives().size(),
              snapshot.representatives().size());
    for (size_t r = 0; r < snapshot.representatives().size(); ++r) {
      ASSERT_EQ(reloaded.representatives()[r].size(),
                snapshot.representatives()[r].size());
      for (size_t p = 0; p < snapshot.representatives()[r].size(); ++p) {
        EXPECT_EQ(reloaded.representatives()[r][p],
                  snapshot.representatives()[r][p]);
      }
    }
    ASSERT_EQ(reloaded.candidate_store().size(),
              snapshot.candidate_store().size());
    EXPECT_EQ(reloaded.candidate_labels(), snapshot.candidate_labels());
    EXPECT_EQ(reloaded.params().eps, snapshot.params().eps);

    // Self-assignment of the run's own store as the reference answer:
    // threads {1, 4} × kernels {scalar, simd, auto}, on BOTH the built and
    // the reloaded snapshot, must all agree bit for bit.
    const traj::SegmentStore& queries = run->store;
    std::vector<int> ref_labels(queries.size());
    std::vector<double> ref_dist(queries.size());
    AssignOptions ref_options;
    ref_options.kernel = distance::BatchKernel::kScalar;
    ref_options.num_threads = 1;
    ASSERT_TRUE(snapshot
                    .AssignSegments(queries, common::Span<int>(ref_labels),
                                    common::Span<double>(ref_dist),
                                    ref_options)
                    .ok());
    // Sanity: members of a cluster whose candidates include them sit at
    // distance 0 of themselves only if they are candidates; weaker but
    // universal: every label is kNoise or a valid cluster id.
    for (const int label : ref_labels) {
      EXPECT_GE(label, cluster::kNoise);
      EXPECT_LT(label, static_cast<int>(run->clustering.clusters.size()));
    }

    for (const ClusterSnapshot* s : {&snapshot, &reloaded}) {
      for (const int threads : {1, 4}) {
        for (const distance::BatchKernel kernel :
             {distance::BatchKernel::kScalar, distance::BatchKernel::kSimd,
              distance::BatchKernel::kAuto}) {
          AssignOptions options;
          options.kernel = kernel;
          options.num_threads = threads;
          std::vector<int> labels(queries.size());
          std::vector<double> dist(queries.size());
          ASSERT_TRUE(s->AssignSegments(queries, common::Span<int>(labels),
                                        common::Span<double>(dist), options)
                          .ok());
          ExpectSameAssignment(
              common::Span<const int>(ref_labels),
              common::Span<const double>(ref_dist),
              common::Span<const int>(labels),
              common::Span<const double>(dist));
        }
      }
    }
  }
}

TEST(ClusterSnapshotTest, AssignTrajectoryVotesAndMatchesSegmentPath) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const ClusterSnapshot& snapshot = **built;

  size_t assigned = 0;
  for (const traj::Trajectory& t : c.db.trajectories()) {
    const auto a = snapshot.AssignTrajectory(t);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_EQ(a->segment_labels.size(), a->segment_distances.size());
    // The vote is consistent with the per-segment labels: the winning
    // cluster (when not noise) appears among them at least as often as any
    // other cluster.
    if (a->cluster != cluster::kNoise) {
      ++assigned;
      size_t wins = 0;
      for (const int label : a->segment_labels) {
        if (label == a->cluster) ++wins;
      }
      EXPECT_GT(wins, 0u);
      for (size_t cl = 0; cl < run->clustering.clusters.size(); ++cl) {
        size_t votes = 0;
        for (const int label : a->segment_labels) {
          if (label == static_cast<int>(cl)) ++votes;
        }
        EXPECT_LE(votes, wins);
      }
    } else {
      for (size_t i = 0; i < a->segment_labels.size(); ++i) {
        EXPECT_EQ(a->segment_labels[i], cluster::kNoise);
        EXPECT_EQ(a->segment_distances[i],
                  std::numeric_limits<double>::infinity());
      }
    }
  }
  // The corpus that produced the clustering overwhelmingly assigns back
  // into it.
  EXPECT_GT(assigned, c.db.size() / 2);

  // A two-point degenerate trajectory still assigns; a one-point one is a
  // typed error.
  traj::Trajectory tiny(9999);
  tiny.Add(geom::Point(0.0, 0.0));
  EXPECT_EQ(snapshot.AssignTrajectory(tiny).status().code(),
            common::StatusCode::kInvalidArgument);
  tiny.Add(geom::Point(1.0, 1.0));
  EXPECT_TRUE(snapshot.AssignTrajectory(tiny).ok());
}

TEST(ClusterSnapshotTest, LoadFailsWithTypedStatusOnBadFiles) {
  // Missing → NotFound.
  EXPECT_EQ(ClusterSnapshot::Load(SnapshotPath("never_written"))
                .status()
                .code(),
            common::StatusCode::kNotFound);

  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const std::string path = SnapshotPath("bad_files");
  ASSERT_TRUE((*built)->Save(path).ok());
  ASSERT_TRUE(ClusterSnapshot::Load(path).ok());

  // Truncated → IOError.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
            common::StatusCode::kIOError);

  // Corrupt magic → InvalidArgument.
  ASSERT_TRUE((*built)->Save(path).ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    const uint32_t bad = 0xDEADBEEFu;
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
            common::StatusCode::kInvalidArgument);

  // Trailing garbage → InvalidArgument (the sentinel + EOF check).
  ASSERT_TRUE((*built)->Save(path).ok());
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char junk = 'x';
    f.write(&junk, 1);
  }
  EXPECT_EQ(ClusterSnapshot::Load(path).status().code(),
            common::StatusCode::kInvalidArgument);

  // FromResult rejects a capped-streaming result (empty store with labels)
  // and a non-positive ε.
  TraclusResult empty;
  empty.clustering.labels.resize(4, cluster::kNoise);
  EXPECT_EQ(ClusterSnapshot::FromResult(empty, params).status().code(),
            common::StatusCode::kInvalidArgument);
  SnapshotParams bad_eps = params;
  bad_eps.eps = 0.0;
  EXPECT_EQ(ClusterSnapshot::FromResult(*run, bad_eps).status().code(),
            common::StatusCode::kInvalidArgument);

  // The exhaustive cases run on a small snapshot.
  const ClusterSnapshot& small = SmallSnapshot();
  const size_t n = small.store().size();
  ASSERT_GE(n, 24u);
  ASSERT_LE(n, 96u);
  ASSERT_FALSE(small.clustering().clusters.empty());
  ASSERT_EQ(small.representatives().size(),
            small.clustering().clusters.size());
  const std::string small_path = SnapshotPath("bad_files_small");
  ASSERT_TRUE(small.Save(small_path).ok());
  const std::string good = ReadBytes(small_path);

  // Every proper prefix of the file is a typed failure.
  for (size_t size = 0; size < good.size(); ++size) {
    SCOPED_TRACE(testing::Message() << "truncated to " << size << " bytes");
    LoadFailureCode(small_path, good.substr(0, size));
  }

  // Offsets of the count fields (format v1, snapshot.h): n at byte 72, then
  // n segment records, the cluster count, each cluster's id + member count +
  // members, n int32 labels, the noise count, the representative count, and
  // per representative id + weight + label length + label + point count.
  const size_t dims = static_cast<size_t>(small.store().dims());
  const size_t n_at = 72;
  const size_t clusters_at = 88 + n * 8 * (3 + 2 * dims);
  const size_t first_members_at = clusters_at + 16;
  size_t labels_at = clusters_at + 8;
  for (const cluster::Cluster& c : small.clustering().clusters) {
    labels_at += 16 + 8 * c.member_indices.size();
  }
  const size_t noise_at = labels_at + 4 * n;
  const size_t first_points_at =
      noise_at + 8 + 8 + 24 + small.representatives()[0].label().size();
  ASSERT_EQ(Patched<uint64_t>(good, n_at, n), good);
  ASSERT_EQ(Patched<uint64_t>(good, first_points_at,
                              small.representatives()[0].size()),
            good);

  // Each count field set to 2^60: rejected before anything is sized by it.
  for (const size_t at : {n_at, clusters_at, first_members_at,
                          first_points_at}) {
    SCOPED_TRACE(testing::Message() << "count at byte " << at);
    LoadFailureCode(small_path,
                    Patched<uint64_t>(good, at, uint64_t{1} << 60));
  }

  // Labels that disagree with the member lists: a label naming no cluster,
  // a clustered segment relabelled noise, and a miscounted noise total.
  const size_t member = small.clustering().clusters[0].member_indices[0];
  EXPECT_EQ(LoadFailureCode(small_path,
                            Patched<int32_t>(good, labels_at + 4 * member,
                                             7777)),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadFailureCode(small_path,
                            Patched<int32_t>(good, labels_at + 4 * member,
                                             cluster::kNoise)),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadFailureCode(small_path,
                            Patched<uint64_t>(good, noise_at,
                                              small.clustering().num_noise +
                                                  1)),
            common::StatusCode::kInvalidArgument);
  // A cluster id that is not its index.
  EXPECT_EQ(LoadFailureCode(small_path,
                            Patched<int64_t>(good, clusters_at + 8, 7)),
            common::StatusCode::kInvalidArgument);

  // The untouched bytes still load.
  {
    std::ofstream f(small_path, std::ios::binary | std::ios::trunc);
    f.write(good.data(), static_cast<std::streamsize>(good.size()));
  }
  EXPECT_TRUE(ClusterSnapshot::Load(small_path).ok());
}

// Two threads saving one snapshot to one path at once (the TSan lane runs
// this test): each writer has its own temp file, so both succeed and the
// path always holds one complete, loadable file.
TEST(ClusterSnapshotTest, ConcurrentSavesToOnePathInstallACompleteFile) {
  const ClusterSnapshot& snapshot = SmallSnapshot();
  const std::string dir = ::testing::TempDir() + "snapshot_test_saves";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/shared.snap";
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<common::Status> status(2, common::Status::OK());
    std::vector<std::thread> writers;
    for (size_t w = 0; w < 2; ++w) {
      writers.emplace_back([&, w] { status[w] = snapshot.Save(path); });
    }
    for (std::thread& t : writers) t.join();
    for (size_t w = 0; w < 2; ++w) {
      ASSERT_TRUE(status[w].ok()) << "trial " << trial << " writer " << w
                                  << ": " << status[w].ToString();
    }
    const auto loaded = ClusterSnapshot::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->clustering().labels, snapshot.clustering().labels);
    // No temp file is left behind.
    size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      (void)entry;
      ++files;
    }
    EXPECT_EQ(files, 1u) << "trial " << trial;
  }
}

// Concurrent serving: many threads assigning through one snapshot while the
// main thread does the same. No synchronization between them — the TSan CI
// lane runs this test to certify the serving path race-free; in all builds
// every thread must also get the bit-identical reference answer.
TEST(ClusterSnapshotTest, ConcurrentAssignHammerIsRaceFreeAndDeterministic) {
  const GoldenCase c = {
      "hurricane", datagen::GenerateHurricanes(datagen::HurricaneConfig{}),
      0.94, 5.0};
  SnapshotParams params;
  const auto run = RunPipeline(c, &params);
  ASSERT_TRUE(run.ok());
  const auto built = ClusterSnapshot::FromResult(*run, params);
  ASSERT_TRUE(built.ok());
  const ClusterSnapshot& snapshot = **built;
  const traj::SegmentStore& queries = run->store;

  std::vector<int> ref_labels(queries.size());
  std::vector<double> ref_dist(queries.size());
  ASSERT_TRUE(snapshot
                  .AssignSegments(queries, common::Span<int>(ref_labels),
                                  common::Span<double>(ref_dist))
                  .ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      AssignOptions options;
      options.kernel = (t % 2 == 0) ? distance::BatchKernel::kScalar
                                    : distance::BatchKernel::kAuto;
      options.num_threads = 1;
      std::vector<int> labels(queries.size());
      std::vector<double> dist(queries.size());
      for (int round = 0; round < kRounds; ++round) {
        const auto st =
            snapshot.AssignSegments(queries, common::Span<int>(labels),
                                    common::Span<double>(dist), options);
        if (!st.ok() || labels != ref_labels || dist != ref_dist) {
          ++failures[t];
          return;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "worker " << t;
  }
}

}  // namespace
}  // namespace traclus::core
