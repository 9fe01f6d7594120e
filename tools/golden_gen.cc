// golden_gen — regenerates the golden clustering files under tests/golden/.
//
// Each golden file freezes the full observable output of one engine run on a
// deterministic generated data set: segment count, per-segment cluster labels,
// cluster membership, noise count, and every representative trajectory point
// printed with %.17g (which round-trips IEEE doubles exactly). The
// engine-vs-golden tests in tests/engine_api_test.cc re-run the same configs
// and require byte-identical results, so any refactor that perturbs the
// pipeline output — even by one ULP in a representative coordinate — fails
// the suite instead of drifting silently.
//
// Usage: golden_gen <output-directory>
// Regenerate only when an intentional output change is reviewed and approved.

#include <cstdio>
#include <string>

#include "core/engine.h"
#include "datagen/animal_generator.h"
#include "datagen/hurricane_generator.h"

namespace {

using namespace traclus;

// The default assembly at (ε, MinLns), sweeping at the clustering MinLns.
bool WriteGolden(const std::string& path, double eps, double min_lns,
                 const traj::TrajectoryDatabase& db) {
  core::DbscanGroupOptions group;
  group.eps = eps;
  group.min_lns = min_lns;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = min_lns;
  const auto engine = core::TraclusEngine::Builder()
                          .UseDbscanGrouping(group)
                          .UseSweepRepresentatives(reps)
                          .Build();
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return false;
  }
  const auto run = engine->Run(db);
  if (!run.ok()) {
    std::fprintf(stderr, "run: %s\n", run.status().ToString().c_str());
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  const core::TraclusResult& r = *run;
  std::fprintf(f, "segments %zu\n", r.clustering.labels.size());
  // Partition-stage output: ids, provenance, and endpoints of every segment,
  // plus the characteristic points per trajectory — so a refactor that
  // perturbs partitioning without changing the clustering still fails.
  for (size_t i = 0; i < r.segments().size(); ++i) {
    const geom::Segment& s = r.segments()[i];
    std::fprintf(f, "seg %lld %lld %.17g %.17g %.17g %.17g\n",
                 static_cast<long long>(s.id()),
                 static_cast<long long>(s.trajectory_id()), s.start().x(),
                 s.start().y(), s.end().x(), s.end().y());
  }
  for (size_t t = 0; t < r.characteristic_points.size(); ++t) {
    std::fprintf(f, "cps %zu", t);
    for (const size_t cp : r.characteristic_points[t]) {
      std::fprintf(f, " %zu", cp);
    }
    std::fprintf(f, "\n");
  }
  std::fprintf(f, "labels");
  for (const int label : r.clustering.labels) std::fprintf(f, " %d", label);
  std::fprintf(f, "\n");
  std::fprintf(f, "clusters %zu\n", r.clustering.clusters.size());
  std::fprintf(f, "noise %zu\n", r.clustering.num_noise);
  for (const auto& cluster : r.clustering.clusters) {
    std::fprintf(f, "cluster %d", cluster.id);
    for (const size_t m : cluster.member_indices) {
      std::fprintf(f, " %zu", m);
    }
    std::fprintf(f, "\n");
  }
  for (size_t i = 0; i < r.representatives.size(); ++i) {
    std::fprintf(f, "rep %zu", i);
    for (const auto& p : r.representatives[i].points()) {
      std::fprintf(f, " %.17g %.17g", p.x(), p.y());
    }
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: golden_gen <output-directory>\n");
    return 1;
  }
  const std::string dir = argv[1];

  if (!WriteGolden(dir + "/hurricane_default.golden", 0.94, 5,
                   datagen::GenerateHurricanes(datagen::HurricaneConfig{}))) {
    return 2;
  }
  if (!WriteGolden(dir + "/deer_default.golden", 1.8, 8,
                   datagen::GenerateAnimals(datagen::Deer1995Config()))) {
    return 2;
  }
  return 0;
}
