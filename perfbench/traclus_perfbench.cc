// traclus_perfbench — end-to-end and per-layer benchmark of the TRACLUS
// pipeline (partition → group → represent, plus the snapshot serving path).
//
// Usage:
//   traclus_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --work DIR --out REPORT.json [--golden FILE]
//
// The program generates its inputs from --seed and sets up four corpora
// (corpus, CSV file, engine, eager 1-thread reference runs, frozen
// snapshot). It then runs a closed loop from this one thread for about
// --seconds, each round on every corpus, and writes a JSON report to --out.
// With --trace 0 the report holds raw timing samples, per corpus, for the
// end-to-end metrics; with --trace 1 it holds the spans and counters of a
// traced run that calls each layer's public functions one at a time.
// perfbench/run.py builds this program, runs it and turns the report into
// metrics; perfbench/summarize.py prints a trace's self times.
//
// Every timed operation's output is compared with the set-up reference (and,
// with --golden, the reference with a golden file); a non-OK status or any
// difference counts as a failed operation.

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/chunked_neighborhood.h"
#include "cluster/dbscan_segments.h"
#include "cluster/neighbor_cache_file.h"
#include "cluster/neighborhood.h"
#include "cluster/neighborhood_index.h"
#include "cluster/representative.h"
#include "common/span.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"
#include "distance/hashing.h"
#include "partition/approximate_partitioner.h"
#include "perfbench/trace.h"
#include "traj/chunked_store.h"
#include "traj/csv_io.h"
#include "traj/segment_store.h"
#include "traj/source.h"

namespace {

using namespace traclus;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class CorpusKind { kHurricane, kDeer };
enum class OpKind { kRerun, kCapped, kAssign };
constexpr int kNumOpKinds = 3;

// One kind of round in a workload's closed loop: the share of the measuring
// window it should get, and how many rounds every run makes at least. A
// round runs its operation once on every corpus of the run.
struct RoundPlan {
  double share;
  int min_rounds;
};

// Every end-to-end metric is reported by every workload, so each workload
// runs all three kinds of round on its own corpora; what sets the workloads
// apart is the corpus. Rounds are interleaved (the kind furthest below its
// share runs next), so slow drift of the host's speed hits every metric
// alike.
struct Workload {
  const char* name;
  CorpusKind corpus;
  RoundPlan plan[kNumOpKinds];  ///< Indexed by OpKind.
};

// A rerun round costs several times a capped or assign round, so it has the
// lower minimum: with every minimum at 3, a hurricane run measured for
// about 58 s whatever --seconds said.
constexpr Workload kWorkloads[] = {
    {"hurricane", CorpusKind::kHurricane, {{0.50, 2}, {0.30, 3}, {0.20, 3}}},
    {"deer", CorpusKind::kDeer, {{0.50, 2}, {0.30, 3}, {0.20, 3}}},
};

// Corpora per run. Costs such as the sweep of the largest cluster differ
// between generator seeds by up to a factor of two, so a run sets up this
// many corpora from its seed, every round runs on all of them, and each
// metric averages over them.
constexpr int kCorpora = 4;
// Deer queries are the held-out tracks cut into windows of this many fixes
// (the mean hurricane track length), one request per window.
constexpr size_t kDeerQueryWindow = 31;
// Residency-capped runs stream the first 1/kCappedPart of the corpus's
// trajectories, split into kCappedChunks chunks of which kCappedResident
// stay resident. Their cost grows with the square of the input, and the
// whole corpus takes 11-14 s a run, too long to time several per corpus in
// one window.
constexpr size_t kCappedPart = 4;
constexpr size_t kCappedChunks = 4;
constexpr size_t kCappedResident = 2;

struct Inputs {
  traj::TrajectoryDatabase db;
  traj::TrajectoryDatabase queries;  ///< Held-out corpus from seed + 1.
  double eps = 0.0;
  double min_lns = 0.0;
};

traj::TrajectoryDatabase CutIntoWindows(const traj::TrajectoryDatabase& db,
                                        size_t window) {
  traj::TrajectoryDatabase out;
  geom::TrajectoryId next_id = 0;
  for (const traj::Trajectory& t : db.trajectories()) {
    for (size_t from = 0; from + 1 < t.size(); from += window) {
      traj::Trajectory piece(next_id++);
      for (size_t i = from; i < std::min(t.size(), from + window); ++i) {
        piece.Add(t[i]);
      }
      out.Add(std::move(piece));
    }
  }
  return out;
}

// Corpus `offset` of a run is the generator's default configuration with
// its seed advanced by `offset`; the held-out queries use the next seed.
// Offset 0 is the default corpus, the one the golden files freeze.
Inputs MakeInputs(CorpusKind kind, uint64_t offset) {
  Inputs in;
  if (kind == CorpusKind::kHurricane) {
    datagen::HurricaneConfig config;
    config.seed += offset;
    in.db = datagen::GenerateHurricanes(config);
    config.seed += 1;
    in.queries = datagen::GenerateHurricanes(config);
    in.eps = 0.94;
    in.min_lns = 5.0;
  } else {
    datagen::AnimalConfig config = datagen::Deer1995Config();
    config.seed += offset;
    in.db = datagen::GenerateAnimals(config);
    config.seed += 1;
    in.queries =
        CutIntoWindows(datagen::GenerateAnimals(config), kDeerQueryWindow);
    in.eps = 1.8;
    in.min_lns = 8.0;
  }
  return in;
}

// The engine's pool size T for the multi-threaded operations: half the
// cores, at most 4. A pool as wide as the machine waits for its slowest
// worker, and on a shared 4-vCPU host that made a 4-thread run vary by 29%
// of its median between samples, against 15% at 2 threads and 7% at 1.
int BenchThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw / 2, 1u, 4u));
}

// ---------------------------------------------------------------------------
// Output comparison
// ---------------------------------------------------------------------------

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string DiffTrajectories(const std::vector<traj::Trajectory>& want,
                             const std::vector<traj::Trajectory>& got) {
  if (want.size() != got.size()) return "representative count differs";
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& a = want[i].points();
    const auto& b = got[i].points();
    if (a.size() != b.size()) {
      return "representative " + std::to_string(i) + " length differs";
    }
    for (size_t p = 0; p < a.size(); ++p) {
      if (a[p].dims() != b[p].dims()) return "representative dims differ";
      for (int d = 0; d < a[p].dims(); ++d) {
        if (!SameBits(a[p][d], b[p][d])) {
          return "representative " + std::to_string(i) + " point " +
                 std::to_string(p) + " differs";
        }
      }
    }
  }
  return "";
}

std::string DiffClusterings(const cluster::ClusteringResult& want,
                            const cluster::ClusteringResult& got) {
  if (want.labels != got.labels) return "labels differ";
  if (want.num_noise != got.num_noise) return "noise count differs";
  if (want.clusters.size() != got.clusters.size()) {
    return "cluster count differs";
  }
  for (size_t c = 0; c < want.clusters.size(); ++c) {
    if (want.clusters[c].id != got.clusters[c].id ||
        want.clusters[c].member_indices != got.clusters[c].member_indices) {
      return "membership of cluster " + std::to_string(c) + " differs";
    }
  }
  return "";
}

std::string DiffStores(const traj::SegmentStore& want,
                       const traj::SegmentStore& got) {
  if (want.size() != got.size()) return "segment count differs";
  for (size_t i = 0; i < want.size(); ++i) {
    const geom::Segment& a = want.segments()[i];
    const geom::Segment& b = got.segments()[i];
    if (a.id() != b.id() || a.trajectory_id() != b.trajectory_id()) {
      return "segment " + std::to_string(i) + " provenance differs";
    }
    for (int d = 0; d < a.start().dims(); ++d) {
      if (!SameBits(a.start()[d], b.start()[d]) ||
          !SameBits(a.end()[d], b.end()[d])) {
        return "segment " + std::to_string(i) + " endpoints differ";
      }
    }
  }
  return "";
}

// `compare_store` is false for residency-capped runs, which leave the eager
// store empty by contract.
std::string DiffResults(const core::TraclusResult& want,
                        const core::TraclusResult& got, bool compare_store) {
  if (want.characteristic_points != got.characteristic_points) {
    return "characteristic points differ";
  }
  if (compare_store) {
    std::string diff = DiffStores(want.store, got.store);
    if (!diff.empty()) return diff;
  }
  std::string diff = DiffClusterings(want.clustering, got.clustering);
  if (!diff.empty()) return diff;
  return DiffTrajectories(want.representatives, got.representatives);
}

std::string DiffAssignments(const core::TrajectoryAssignment& want,
                            const core::TrajectoryAssignment& got) {
  if (want.cluster != got.cluster) return "trajectory vote differs";
  if (want.segment_labels != got.segment_labels) return "segment labels differ";
  if (want.segment_distances.size() != got.segment_distances.size()) {
    return "segment distance count differs";
  }
  for (size_t i = 0; i < want.segment_distances.size(); ++i) {
    if (!SameBits(want.segment_distances[i], got.segment_distances[i])) {
      return "segment distance differs";
    }
  }
  return "";
}

std::string DiffSnapshots(const core::ClusterSnapshot& want,
                          const core::ClusterSnapshot& got) {
  std::string diff = DiffStores(want.store(), got.store());
  if (!diff.empty()) return "snapshot store: " + diff;
  diff = DiffClusterings(want.clustering(), got.clustering());
  if (!diff.empty()) return "snapshot clustering: " + diff;
  diff = DiffTrajectories(want.representatives(), got.representatives());
  if (!diff.empty()) return "snapshot: " + diff;
  if (!SameBits(want.params().eps, got.params().eps)) {
    return "snapshot eps differs";
  }
  if (want.candidate_labels() != got.candidate_labels()) {
    return "snapshot serving set differs";
  }
  return DiffStores(want.candidate_store(), got.candidate_store());
}

// The text format of tools/golden_gen.cc, so a reference run can be compared
// byte for byte with tests/golden/*_default.golden.
std::string GoldenText(const core::TraclusResult& r) {
  std::string out;
  char buf[160];
  auto add = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  add("segments %zu\n", r.clustering.labels.size());
  for (const geom::Segment& s : r.segments()) {
    add("seg %lld %lld %.17g %.17g %.17g %.17g\n",
        static_cast<long long>(s.id()),
        static_cast<long long>(s.trajectory_id()), s.start().x(),
        s.start().y(), s.end().x(), s.end().y());
  }
  for (size_t t = 0; t < r.characteristic_points.size(); ++t) {
    add("cps %zu", t);
    for (const size_t cp : r.characteristic_points[t]) add(" %zu", cp);
    out += "\n";
  }
  out += "labels";
  for (const int label : r.clustering.labels) add(" %d", label);
  out += "\n";
  add("clusters %zu\n", r.clustering.clusters.size());
  add("noise %zu\n", r.clustering.num_noise);
  for (const auto& c : r.clustering.clusters) {
    add("cluster %d", c.id);
    for (const size_t m : c.member_indices) add(" %zu", m);
    out += "\n";
  }
  for (size_t i = 0; i < r.representatives.size(); ++i) {
    add("rep %zu", i);
    for (const auto& p : r.representatives[i].points()) {
      add(" %.17g %.17g", p.x(), p.y());
    }
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

// Returns a /proc/self/status field in kB, or -1.
long ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return -1;
}

// Resets VmHWM to the current RSS, so the peak covers only what follows.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// Heap bytes in use (small-block arenas plus mmapped blocks). Unlike an RSS
// delta, this does not hide an allocation that reuses pages freed earlier.
double HeapBytesInUse() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

// ---------------------------------------------------------------------------
// Files
// ---------------------------------------------------------------------------

bool ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  return fs::create_directories(dir, ec) && !ec;
}

// Identity of the single neighbor-cache file in `dir`: a rewrite replaces
// the file (temp file + rename), which changes its inode or mtime.
struct FileIdentity {
  std::string path;
  ino_t inode = 0;
  int64_t mtime_ns = 0;
  int64_t bytes = 0;
  bool operator==(const FileIdentity& o) const {
    return path == o.path && inode == o.inode && mtime_ns == o.mtime_ns &&
           bytes == o.bytes;
  }
};

std::optional<FileIdentity> SingleFileIn(const std::string& dir) {
  std::optional<FileIdentity> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (found) return std::nullopt;  // More than one file.
    struct stat st;
    if (::stat(entry.path().c_str(), &st) != 0) return std::nullopt;
    FileIdentity id;
    id.path = entry.path().string();
    id.inode = st.st_ino;
    id.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
                  st.st_mtim.tv_nsec;
    id.bytes = st.st_size;
    found = id;
  }
  if (ec) return std::nullopt;
  return found;
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? -1.0 : static_cast<double>(size);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out_path;
  std::string golden_path;
};

[[noreturn]] void SetupFailure(const std::string& what) {
  std::fprintf(stderr, "set-up failed: %s\n", what.c_str());
  std::exit(1);
}

core::TraclusEngine BuildEngine(const Inputs& in) {
  core::DbscanGroupOptions group;
  group.eps = in.eps;
  group.min_lns = in.min_lns;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = in.min_lns;
  auto engine = core::TraclusEngine::Builder()
                    .UseMdlPartitioning()
                    .UseDbscanGrouping(group)
                    .UseSweepRepresentatives(reps)
                    .Build();
  if (!engine.ok()) SetupFailure("engine build: " + engine.status().ToString());
  return std::move(engine).ValueOrDie();
}

// One corpus of a run and everything the timed phase compares against.
struct Fixture {
  Inputs in;
  std::optional<core::TraclusEngine> engine;
  core::TraclusResult reference;      ///< Eager 1-thread run.
  core::TraclusResult csv_reference;  ///< The same, over the CSV file.
  size_t csv_trajectories = 0;        ///< Trajectories in the CSV file:
                                      ///< the capped runs' input.
  std::unique_ptr<core::ClusterSnapshot> snapshot;
  std::string csv_path;
  std::string snapshot_path;
  std::string cache_dir;
  size_t chunk_capacity = 0;
  // Serving-path references (computed on the in-memory snapshot).
  traj::SegmentStore query_store;
  std::vector<core::TrajectoryAssignment> ref_assign;
  std::vector<int> ref_bulk_labels;
  std::vector<double> ref_bulk_distances;
};

// One timed set-up of corpus `index`: corpus generation, CSV write of the
// capped runs' input, engine build, the reference runs, snapshot build and
// save.
double SetupOnce(const Workload& w, const Options& opt, int index,
                 Fixture* fx) {
  const std::string dir = opt.work_dir + "/corpus" + std::to_string(index);
  if (!ResetDir(dir)) SetupFailure("cannot create " + dir);
  fx->csv_path = dir + "/corpus.csv";
  fx->snapshot_path = dir + "/corpus.snapshot";
  fx->cache_dir = dir + "/neighbor-cache";
  const auto start = Clock::now();
  fx->in = MakeInputs(w.corpus, opt.seed * kCorpora + index);
  traj::TrajectoryDatabase capped_input;
  const auto& all = fx->in.db.trajectories();
  fx->csv_trajectories = (all.size() + kCappedPart - 1) / kCappedPart;
  for (size_t i = 0; i < fx->csv_trajectories; ++i) capped_input.Add(all[i]);
  const common::Status written = traj::WriteCsv(capped_input, fx->csv_path);
  if (!written.ok()) SetupFailure("CSV write: " + written.ToString());
  fx->engine.emplace(BuildEngine(fx->in));
  core::RunContext ctx;
  ctx.num_threads = 1;
  auto ref = fx->engine->Run(fx->in.db, ctx);
  if (!ref.ok()) SetupFailure("reference run: " + ref.status().ToString());
  fx->reference = std::move(ref).ValueOrDie();
  // WriteCsv rounds coordinates to ten decimals, so runs that read the CSV
  // file are compared with an eager run over what the file holds.
  auto csv_db = traj::ReadCsv(fx->csv_path);
  if (!csv_db.ok()) SetupFailure("CSV read: " + csv_db.status().ToString());
  auto csv_ref = fx->engine->Run(*csv_db, ctx);
  if (!csv_ref.ok()) SetupFailure("CSV reference run: " +
                                  csv_ref.status().ToString());
  fx->csv_reference = std::move(csv_ref).ValueOrDie();
  core::SnapshotParams params;
  params.eps = fx->in.eps;
  auto snapshot = core::ClusterSnapshot::FromResult(fx->reference, params);
  if (!snapshot.ok()) SetupFailure("snapshot: " + snapshot.status().ToString());
  fx->snapshot = std::move(snapshot).ValueOrDie();
  const common::Status saved = fx->snapshot->Save(fx->snapshot_path);
  if (!saved.ok()) SetupFailure("snapshot save: " + saved.ToString());
  return SecondsSince(start);
}

// Builds the serving-path references, after the timed set-ups, and checks
// that bulk assignment agrees with per-trajectory assignment. `golden_path`
// (may be empty) is the golden file of this corpus.
void SetupReferences(const std::string& golden_path, Fixture* fx) {
  if (!golden_path.empty()) {
    std::ifstream in(golden_path);
    if (!in) SetupFailure("cannot read golden file " + golden_path);
    std::stringstream golden;
    golden << in.rdbuf();
    if (golden.str() != GoldenText(fx->reference)) {
      SetupFailure("reference run differs from " + golden_path);
    }
  }
  const size_t n = fx->csv_reference.store.size();
  fx->chunk_capacity = (n + kCappedChunks - 1) / kCappedChunks;

  core::RunContext ctx;
  ctx.num_threads = 1;
  auto queries = fx->engine->Partition(fx->in.queries, ctx);
  if (!queries.ok()) SetupFailure("query partition: " +
                                  queries.status().ToString());
  fx->query_store = std::move(queries->store);

  fx->ref_assign.clear();
  std::vector<int> concatenated;
  for (const traj::Trajectory& t : fx->in.queries.trajectories()) {
    auto a = fx->snapshot->AssignTrajectory(t);
    if (!a.ok()) SetupFailure("reference assign: " + a.status().ToString());
    concatenated.insert(concatenated.end(), a->segment_labels.begin(),
                        a->segment_labels.end());
    fx->ref_assign.push_back(std::move(a).ValueOrDie());
  }
  fx->ref_bulk_labels.assign(fx->query_store.size(), 0);
  fx->ref_bulk_distances.assign(fx->query_store.size(), 0.0);
  const common::Status bulk = fx->snapshot->AssignSegments(
      fx->query_store, common::Span<int>(fx->ref_bulk_labels),
      common::Span<double>(fx->ref_bulk_distances));
  if (!bulk.ok()) SetupFailure("reference bulk assign: " + bulk.ToString());
  if (concatenated != fx->ref_bulk_labels) {
    SetupFailure("AssignSegments disagrees with AssignTrajectory");
  }
}

// ---------------------------------------------------------------------------
// Operation bookkeeping
// ---------------------------------------------------------------------------

class Checker {
 public:
  // Records one attempted operation; `diff` empty means correct.
  bool Check(const std::string& what, const std::string& diff) {
    ++attempted_;
    if (diff.empty()) return true;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what + ": " + diff);
    std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), diff.c_str());
    return false;
  }
  template <typename T>
  bool CheckOk(const std::string& what, const common::Result<T>& r) {
    return r.ok() ? true : Check(what, r.status().ToString());
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> failures_;
};

std::string StatusDiff(const common::Status& s) {
  return s.ok() ? "" : s.ToString();
}

// ---------------------------------------------------------------------------
// End-to-end operations (tracing off)
// ---------------------------------------------------------------------------

// Timing samples of the operations that passed their check: metric name ->
// one list per corpus.
using Samples = std::map<std::string, std::vector<std::vector<double>>>;

class EndToEnd {
 public:
  EndToEnd(const std::vector<std::unique_ptr<Fixture>>& fixtures,
           Checker& check, Samples& samples)
      : fixtures_(fixtures),
        check_(check),
        samples_(samples),
        threads_(BenchThreads()) {}

  // Runs one round of `kind`: its operation once on every corpus.
  void Round(OpKind kind) {
    for (size_t c = 0; c < fixtures_.size(); ++c) {
      corpus_ = c;
      Fixture& fx = *fixtures_[c];
      switch (kind) {
        case OpKind::kRerun:
          RerunRound(fx);
          break;
        case OpKind::kCapped:
          CappedRound(fx);
          break;
        case OpKind::kAssign:
          AssignRound(fx);
          break;
      }
    }
  }

 private:
  void Record(const char* metric, double value) {
    auto& lists = samples_[metric];
    lists.resize(fixtures_.size());
    lists[corpus_].push_back(value);
  }

  // One eager run; records its time under `metric` and checks the output.
  void EagerRun(Fixture& fx, const char* metric, int threads,
                const std::string& cache) {
    core::RunContext ctx;
    ctx.num_threads = threads;
    ctx.neighbor_cache_dir = cache;
    const auto start = Clock::now();
    auto result = fx.engine->Run(fx.in.db, ctx);
    const double elapsed = SecondsSince(start);
    if (!check_.CheckOk(metric, result)) return;
    if (check_.Check(metric, DiffResults(fx.reference, *result, true))) {
      Record(metric, elapsed);
    }
  }

  void RerunRound(Fixture& fx) {
    EagerRun(fx, "uncached_s", threads_, "");
    EagerRun(fx, "uncached_1t_s", 1, "");
    if (!ResetDir(fx.cache_dir)) {
      check_.Check("cold_s", "cannot reset the cache directory");
      return;
    }
    EagerRun(fx, "cold_s", threads_, fx.cache_dir);
    const auto written = SingleFileIn(fx.cache_dir);
    check_.Check("cold_s cache file",
                 written ? "" : "expected exactly one cache file");
    EagerRun(fx, "warm_s", threads_, fx.cache_dir);
    const auto served = SingleFileIn(fx.cache_dir);
    check_.Check("warm_s cache hit", written && served && *written == *served
                                         ? ""
                                         : "warm run rewrote the cache file");
  }

  void CappedRound(Fixture& fx) {
    core::RunContext ctx;
    ctx.num_threads = threads_;
    ctx.chunk_capacity = fx.chunk_capacity;
    ctx.max_resident_chunks = kCappedResident;
    const auto start = Clock::now();
    auto source = traj::CsvFileSource::Open(fx.csv_path);
    if (!check_.CheckOk("capped_s open", source)) return;
    auto result = fx.engine->Run(**source, ctx);
    const double elapsed = SecondsSince(start);
    if (!check_.CheckOk("capped_s", result)) return;
    std::string diff = DiffResults(fx.csv_reference, *result, false);
    if (diff.empty()) {
      const auto& store = result->chunked_store;
      if (store == nullptr) {
        diff = "no chunked store";
      } else if (store->peak_resident_chunks() > kCappedResident) {
        diff = "peak resident chunks " +
               std::to_string(store->peak_resident_chunks()) + " > cap";
      } else if (store->num_chunks() <= kCappedResident) {
        diff = "run was not capped";
      }
    }
    if (check_.Check("capped_s", diff)) Record("capped_s", elapsed);
  }

  void AssignRound(Fixture& fx) {
    auto start = Clock::now();
    auto loaded = core::ClusterSnapshot::Load(fx.snapshot_path);
    const double load_s = SecondsSince(start);
    if (!check_.CheckOk("load_s", loaded)) return;
    if (check_.Check("load_s", DiffSnapshots(*fx.snapshot, **loaded))) {
      Record("load_s", load_s);
    }
    const core::ClusterSnapshot& snapshot = **loaded;

    const auto& queries = fx.in.queries.trajectories();
    for (size_t i = 0; i < queries.size(); ++i) {
      start = Clock::now();
      auto a = snapshot.AssignTrajectory(queries[i]);
      const double ms = SecondsSince(start) * 1e3;
      if (!check_.CheckOk("assign", a)) continue;
      if (check_.Check("assign", DiffAssignments(fx.ref_assign[i], *a))) {
        Record("assign_ms", ms);
      }
    }

    const size_t n = fx.query_store.size();
    std::vector<int> labels(n);
    std::vector<double> distances(n);
    core::AssignOptions options;
    options.num_threads = threads_;
    start = Clock::now();
    const common::Status st = snapshot.AssignSegments(
        fx.query_store, common::Span<int>(labels),
        common::Span<double>(distances), options);
    const double bulk_s = SecondsSince(start);
    std::string diff = StatusDiff(st);
    if (diff.empty() && labels != fx.ref_bulk_labels) diff = "labels differ";
    for (size_t i = 0; diff.empty() && i < n; ++i) {
      if (!SameBits(distances[i], fx.ref_bulk_distances[i])) {
        diff = "distances differ";
      }
    }
    if (check_.Check("bulk", diff)) Record("bulk_s", bulk_s);
  }

  const std::vector<std::unique_ptr<Fixture>>& fixtures_;
  Checker& check_;
  Samples& samples_;
  int threads_;
  size_t corpus_ = 0;  ///< Corpus of the operation running now.
};

// The end-to-end closed loop: until `seconds` have passed, run the round
// kind furthest below its share of the time spent so far, skipping a kind
// whose typical round would run past the window once its minimum is met;
// then finish the kinds still below their minimum round counts.
void RunWindow(const Workload& workload, double seconds, EndToEnd& e2e) {
  const auto start = Clock::now();
  double spent[kNumOpKinds] = {};
  int rounds[kNumOpKinds] = {};
  while (true) {
    const double elapsed = SecondsSince(start);
    int next = -1;
    for (int k = 0; k < kNumOpKinds; ++k) {
      const double typical = rounds[k] > 0 ? spent[k] / rounds[k] : 0.0;
      if (rounds[k] >= workload.plan[k].min_rounds &&
          elapsed + typical > seconds) {
        continue;
      }
      if (next < 0 || spent[k] / workload.plan[k].share <
                          spent[next] / workload.plan[next].share) {
        next = k;
      }
    }
    if (next < 0) return;
    const auto round_start = Clock::now();
    e2e.Round(static_cast<OpKind>(next));
    spent[next] += SecondsSince(round_start);
    ++rounds[next];
  }
}

// ---------------------------------------------------------------------------
// Traced run: each layer's public functions, one call at a time
// ---------------------------------------------------------------------------

constexpr int kPoolRounds = 500;
constexpr size_t kRefineSample = 512;

void TracedIteration(Fixture& fx, Tracer& tr, Checker& check) {
  using Scope = Tracer::Scope;
  const Inputs& in = fx.in;
  const int threads = BenchThreads();
  common::ThreadPool& pool = common::SharedPool(threads);
  common::ThreadPool& pool1 = common::SharedPool(1);
  const distance::SegmentDistance dist;
  const core::TraclusEngine& engine = *fx.engine;
  core::RunContext ctx;
  ctx.num_threads = threads;
  core::RunContext ctx1;
  ctx1.num_threads = 1;

  // The untraced end-to-end run the stage spans below are compared with.
  {
    const auto start = Clock::now();
    auto run = engine.Run(in.db, ctx);
    tr.Count("e2e.uncached_s", SecondsSince(start));
    if (check.CheckOk("e2e run", run)) {
      check.Check("e2e run", DiffResults(fx.reference, *run, true));
    }
  }
  Scope iteration(tr, "iteration");

  // common: thread-pool round trips, T empty tasks per Wait.
  {
    Scope s(tr, "common.pool");
    for (int r = 0; r < kPoolRounds; ++r) {
      for (int t = 0; t < threads; ++t) pool.Submit([] {});
      pool.Wait();
    }
  }
  tr.Count("common.pool_tasks", kPoolRounds * threads);

  // traj: CSV parse.
  {
    size_t parsed = 0;
    std::string diff;
    {
      Scope s(tr, "traj.csv_parse");
      auto source = traj::CsvFileSource::Open(fx.csv_path);
      if (!source.ok()) {
        diff = source.status().ToString();
      } else {
        traj::Trajectory t;
        while (true) {
          auto more = (*source)->Next(&t);
          if (!more.ok()) {
            diff = more.status().ToString();
            break;
          }
          if (!*more) break;
          ++parsed;
        }
      }
    }
    if (diff.empty() && parsed != fx.csv_trajectories) {
      diff = "trajectory count";
    }
    check.Check("traj.csv_parse", diff);
  }

  // partition: MDL characteristic points, one thread.
  {
    const partition::ApproximatePartitioner partitioner;
    std::vector<std::vector<size_t>> cps;
    cps.reserve(in.db.size());
    {
      Scope s(tr, "partition.mdl");
      for (const traj::Trajectory& t : in.db.trajectories()) {
        cps.push_back(partitioner.CharacteristicPoints(t));
      }
    }
    tr.Count("partition.trajectories", static_cast<double>(in.db.size()));
    check.Check("partition.mdl",
                cps == fx.reference.characteristic_points ? "" : "differs");
  }

  // core: partition stage.
  core::PartitionOutput part;
  {
    common::Result<core::PartitionOutput> out = [&] {
      Scope s(tr, "core.partition");
      return engine.Partition(in.db, ctx);
    }();
    if (!check.CheckOk("core.partition", out)) return;
    part = std::move(out).ValueOrDie();
    tr.Count("partition.segments", static_cast<double>(part.store.size()));
    std::string diff = DiffStores(fx.reference.store, part.store);
    if (diff.empty() &&
        part.characteristic_points != fx.reference.characteristic_points) {
      diff = "characteristic points differ";
    }
    check.Check("core.partition", diff);
  }

  // traj: freeze (the segment copy is made outside the span).
  const size_t n = part.store.size();
  traj::SegmentStore store;
  {
    std::vector<geom::Segment> segments = part.store.segments();
    const double heap0 = HeapBytesInUse();
    {
      Scope s(tr, "traj.freeze");
      store = traj::SegmentStore::FromSegments(std::move(segments));
    }
    tr.Count("traj.heap_growth_bytes", HeapBytesInUse() - heap0);
    check.Check("traj.freeze", DiffStores(fx.reference.store, store));
  }

  // distance: content hash of the cache key.
  {
    Scope s(tr, "distance.hash");
    static_cast<void>(
        distance::NeighborhoodCacheKey(store, dist.config(), in.eps));
  }

  // cluster: grid index and ε-neighborhoods.
  std::optional<cluster::GridNeighborhoodIndex> index;
  {
    Scope s(tr, "cluster.index_build");
    index.emplace(store, dist);
  }
  std::vector<std::vector<size_t>> lists;
  {
    Scope s(tr, "cluster.neighbors");
    lists = index->AllNeighbors(in.eps, pool);
  }
  {
    std::vector<std::vector<size_t>> lists1;
    {
      Scope s(tr, "cluster.neighbors_1t");
      lists1 = index->AllNeighbors(in.eps, pool1);
    }
    check.Check("cluster.neighbors_1t", lists1 == lists ? "" : "differs");
  }
  {
    std::vector<size_t> sizes;
    {
      Scope s(tr, "cluster.neighborhood_sizes");
      sizes = index->AllNeighborhoodSizes(in.eps, pool);
    }
    double pairs = 0.0;
    std::string diff = sizes.size() == n ? "" : "size count";
    for (size_t i = 0; diff.empty() && i < n; ++i) {
      pairs += static_cast<double>(sizes[i]);
      if (sizes[i] != lists[i].size()) diff = "differs from AllNeighbors";
    }
    tr.Count("cluster.neighbor_pairs", pairs);
    check.Check("cluster.neighborhood_sizes", diff);
  }

  // distance: brute-force refine of a fixed query sample against the store.
  {
    std::vector<size_t> sample;
    const size_t stride = std::max<size_t>(1, n / kRefineSample);
    for (size_t i = 0; i < n && sample.size() < kRefineSample; i += stride) {
      sample.push_back(i);
    }
    const cluster::BruteForceNeighborhood brute(store, dist);
    std::vector<std::vector<size_t>> got;
    {
      Scope s(tr, "distance.refine");
      got = brute.NeighborsBatch(sample, in.eps, pool);
    }
    tr.Count("distance.refine_pairs",
             static_cast<double>(sample.size()) * static_cast<double>(n));
    std::string diff = got.size() == sample.size() ? "" : "list count";
    for (size_t k = 0; diff.empty() && k < sample.size(); ++k) {
      if (got[k] != lists[sample[k]]) diff = "differs from the grid index";
    }
    check.Check("distance.refine", diff);
  }

  // cluster: DBSCAN expansion over precomputed lists.
  {
    const cluster::NeighborhoodCache cache(*index, in.eps, pool);
    cluster::DbscanOptions o;
    o.eps = in.eps;
    o.min_lns = in.min_lns;
    o.num_threads = threads;
    cluster::ClusteringResult clustering;
    {
      Scope s(tr, "cluster.dbscan_expand");
      clustering = cluster::DbscanSegments(store, cache, o);
    }
    check.Check("cluster.dbscan_expand",
                DiffClusterings(fx.reference.clustering, clustering));
  }

  // core: group stage under each cache state.
  auto group = [&](const char* name, const core::RunContext& c) {
    common::Result<cluster::ClusteringResult> g = [&] {
      Scope s(tr, name);
      return engine.Group(store, c);
    }();
    if (check.CheckOk(name, g)) {
      check.Check(name, DiffClusterings(fx.reference.clustering, *g));
    }
  };
  group("core.group_uncached", ctx);

  // cluster: the persistent neighbor cache, cold and warm.
  if (!ResetDir(fx.cache_dir)) {
    check.Check("cluster.cache", "cannot reset the cache directory");
    return;
  }
  {
    common::Result<std::unique_ptr<cluster::FileNeighborhoodCache>> cold = [&] {
      Scope s(tr, "cluster.cache_create_cold");
      return cluster::FileNeighborhoodCache::Create(
          *index, store, dist.config(), in.eps, fx.cache_dir, pool);
    }();
    if (check.CheckOk("cluster.cache_create_cold", cold)) {
      check.Check("cluster.cache_create_cold",
                  (*cold)->loaded_from_file() ? "cold open hit a file" : "");
      tr.Count("cluster.cache_bytes", FileBytes((*cold)->file_path()));
    }
    common::Result<std::unique_ptr<cluster::FileNeighborhoodCache>> warm = [&] {
      Scope s(tr, "cluster.cache_create_warm");
      return cluster::FileNeighborhoodCache::Create(
          *index, store, dist.config(), in.eps, fx.cache_dir, pool);
    }();
    if (check.CheckOk("cluster.cache_create_warm", warm)) {
      tr.Count("cluster.cache_opens", 1.0);
      tr.Count("cluster.cache_hits", (*warm)->loaded_from_file() ? 1.0 : 0.0);
      check.Check("cluster.cache_create_warm",
                  (*warm)->loaded_from_file() ? "" : "warm open missed");
      std::vector<std::vector<size_t>> served;
      {
        Scope s(tr, "cluster.cache_read");
        served = (*warm)->AllNeighbors(in.eps, pool);
      }
      check.Check("cluster.cache_read", served == lists ? "" : "differs");
    }
  }
  if (ResetDir(fx.cache_dir)) {
    core::RunContext cached = ctx;
    cached.neighbor_cache_dir = fx.cache_dir;
    group("core.group_cold", cached);
    group("core.group_warm", cached);
  }

  // core: representative stage at T and at 1 thread.
  auto represent = [&](const char* name, const core::RunContext& c) {
    common::Result<std::vector<traj::Trajectory>> reps = [&] {
      Scope s(tr, name);
      return engine.Representatives(store, fx.reference.clustering, c);
    }();
    if (check.CheckOk(name, reps)) {
      check.Check(name,
                  DiffTrajectories(fx.reference.representatives, *reps));
    }
  };
  represent("core.represent", ctx);
  represent("core.represent_1t", ctx1);

  // cluster: the store-backed sweep, one cluster at a time.
  {
    cluster::RepresentativeOptions ro;
    ro.min_lns = in.min_lns;
    std::vector<traj::Trajectory> reps;
    double max_members = 0.0;
    {
      Scope s(tr, "cluster.sweep");
      for (const cluster::Cluster& c : fx.reference.clustering.clusters) {
        Scope one(tr, "cluster.sweep_one");
        reps.push_back(cluster::RepresentativeTrajectory(store, c, ro));
        max_members = std::max(max_members, static_cast<double>(c.size()));
      }
    }
    tr.Count("cluster.sweep_max_members", max_members);
    check.Check("cluster.sweep",
                DiffTrajectories(fx.reference.representatives, reps));
  }

  // traj + cluster: the chunk store under the capped runs' residency cap,
  // holding the capped runs' input.
  {
    const traj::SegmentStore& capped_input = fx.csv_reference.store;
    std::vector<std::vector<size_t>> uncapped_lists;
    {
      const cluster::GridNeighborhoodIndex capped_index(capped_input, dist);
      Scope s(tr, "cluster.uncapped_neighbors");
      uncapped_lists = capped_index.AllNeighbors(in.eps, pool);
    }
    traj::ChunkedStoreOptions co;
    co.chunk_capacity = fx.chunk_capacity;
    co.max_resident_chunks = kCappedResident;
    traj::ChunkedSegmentStore chunked(co);
    common::Status st;
    {
      Scope s(tr, "traj.chunk_ingest");
      st = chunked.AppendAll(capped_input.segments());
      if (st.ok()) st = chunked.Finalize();
    }
    if (!check.Check("traj.chunk_ingest", StatusDiff(st))) return;
    // A cyclic scan over more chunks than the cap misses on every access
    // once the cache is full; only the second pass is timed.
    std::string diff;
    {
      Scope scan(tr, "traj.chunk_scan");
      for (int pass = 0; pass < 2 && diff.empty(); ++pass) {
        for (size_t c = 0; c < chunked.num_chunks() && diff.empty(); ++c) {
          std::optional<Scope> fault;
          if (pass == 1) fault.emplace(tr, "traj.chunk_fault");
          auto chunk = chunked.Chunk(c);
          if (fault) fault->End();
          if (!chunk.ok()) {
            diff = chunk.status().ToString();
          } else if ((*chunk)->size() != chunked.chunk_size(c)) {
            diff = "chunk size differs";
          }
        }
      }
    }
    check.Check("traj.chunk_fault", diff);

    const cluster::ChunkedGridNeighborhood chunked_index(chunked, dist);
    std::vector<std::vector<size_t>> chunked_lists;
    {
      Scope s(tr, "cluster.chunked_neighbors");
      chunked_lists = chunked_index.AllNeighbors(in.eps, pool);
    }
    check.Check("cluster.chunked_neighbors",
                chunked_lists == uncapped_lists ? "" : "differs");
    const size_t peak = chunked.peak_resident_chunks();
    tr.Count("traj.peak_resident_chunks", static_cast<double>(peak));
    check.Check("traj.peak_resident_chunks",
                peak <= kCappedResident ? "" : "exceeds the cap");
  }

  // core: the snapshot serving path.
  tr.Count("core.snapshot_bytes", FileBytes(fx.snapshot_path));
  auto assign = [&](const char* name, int assign_threads) {
    const size_t q = fx.query_store.size();
    std::vector<int> labels(q);
    std::vector<double> distances(q);
    core::AssignOptions options;
    options.num_threads = assign_threads;
    common::Status st;
    {
      Scope s(tr, name);
      st = fx.snapshot->AssignSegments(fx.query_store,
                                       common::Span<int>(labels),
                                       common::Span<double>(distances),
                                       options);
    }
    std::string diff = StatusDiff(st);
    if (diff.empty() && labels != fx.ref_bulk_labels) diff = "labels differ";
    check.Check(name, diff);
  };
  assign("core.assign_segments_1t", 1);
  tr.Count("distance.nearest_pairs",
           static_cast<double>(fx.query_store.size()) *
               static_cast<double>(fx.snapshot->candidate_store().size()));
  assign("core.assign_segments", threads);
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void WriteNumbers(std::FILE* f, const std::vector<double>& values) {
  std::fputc('[', f);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.17g", i == 0 ? "" : ", ", values[i]);
  }
  std::fputc(']', f);
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt->workload = value;
    } else if (key == "--seed") {
      opt->seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt->seconds = std::stod(value);
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--work") {
      opt->work_dir = value;
    } else if (key == "--out") {
      opt->out_path = value;
    } else if (key == "--golden") {
      opt->golden_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt->workload.empty() && !opt->work_dir.empty() &&
         !opt->out_path.empty() && opt->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool parsed = false;
  try {
    parsed = ParseArgs(argc, argv, &opt);
  } catch (const std::exception&) {
    parsed = false;
  }
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: traclus_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work DIR --out FILE "
                 "[--golden FILE]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  if (!ResetDir(opt.work_dir)) SetupFailure("cannot create " + opt.work_dir);

  std::vector<std::unique_ptr<Fixture>> fixtures;
  std::vector<double> setup_s;
  for (int i = 0; i < kCorpora; ++i) {
    fixtures.push_back(std::make_unique<Fixture>());
    setup_s.push_back(SetupOnce(*workload, opt, i, fixtures.back().get()));
  }
  for (int i = 0; i < kCorpora; ++i) {
    // Only corpus 0 of seed 0 is the generators' default corpus.
    SetupReferences(i == 0 ? opt.golden_path : "", fixtures[i].get());
  }

  Checker check;
  Samples samples;
  Tracer tracer;
  double peak_rss_mb = -1.0;
  const bool rss_reset = ResetPeakRss();
  const auto start = Clock::now();
  if (opt.trace) {
    int iteration = 0;
    do {
      tracer.set_iteration(iteration);
      TracedIteration(*fixtures[iteration % kCorpora], tracer, check);
      ++iteration;
    } while (SecondsSince(start) < opt.seconds);
  } else {
    EndToEnd e2e(fixtures, check, samples);
    RunWindow(*workload, opt.seconds, e2e);
  }
  const double measured_s = SecondsSince(start);
  const long hwm_kb = ProcStatusKb("VmHWM");
  if (rss_reset && hwm_kb > 0) peak_rss_mb = static_cast<double>(hwm_kb) / 1024.0;

  std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
  if (f == nullptr) SetupFailure("cannot write " + opt.out_path);
  std::fprintf(f, "{\"workload\": ");
  WriteJsonString(f, workload->name);
  std::fprintf(f,
               ", \"seed\": %llu, \"trace\": %s, \"threads\": %d, "
               "\"measured_s\": %.6f, "
               "\"attempted\": %zu, \"failed\": %zu, \"peak_rss_mb\": %.17g,\n",
               static_cast<unsigned long long>(opt.seed),
               opt.trace ? "true" : "false", BenchThreads(), measured_s,
               check.attempted(), check.failed(), peak_rss_mb);
  std::fprintf(f, "\"corpora\": [");
  for (size_t i = 0; i < fixtures.size(); ++i) {
    const Fixture& fx = *fixtures[i];
    std::fprintf(f,
                 "%s\n  {\"segments\": %zu, \"clusters\": %zu, "
                 "\"query_trajectories\": %zu, \"query_segments\": %zu, "
                 "\"chunk_capacity\": %zu}",
                 i == 0 ? "" : ",", fx.reference.store.size(),
                 fx.reference.clustering.clusters.size(),
                 fx.in.queries.size(), fx.query_store.size(),
                 fx.chunk_capacity);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "\"failures\": [");
  for (size_t i = 0; i < check.failures().size(); ++i) {
    if (i > 0) std::fprintf(f, ", ");
    WriteJsonString(f, check.failures()[i]);
  }
  std::fprintf(f, "],\n\"setup_s\": ");
  WriteNumbers(f, setup_s);
  std::fprintf(f, ",\n\"samples\": {");
  for (const auto& [name, lists] : samples) {
    std::fprintf(f, "%s\n  ", &name == &samples.begin()->first ? "" : ",");
    WriteJsonString(f, name);
    std::fprintf(f, ": [");
    for (size_t c = 0; c < lists.size(); ++c) {
      if (c > 0) std::fprintf(f, ", ");
      WriteNumbers(f, lists[c]);
    }
    std::fprintf(f, "]");
  }
  std::fprintf(f, "},\n");
  tracer.WriteJsonMembers(f);
  std::fprintf(f, "}\n");
  const bool closed = std::fclose(f) == 0;

  std::error_code ec;
  fs::remove_all(opt.work_dir, ec);
  common::ShutdownSharedPools();
  return closed ? 0 : 1;
}
