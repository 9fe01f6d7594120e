// E1 — Fig. 16: entropy vs ε for the hurricane data.
//
// The paper sweeps ε = 1..60 (lat/long degrees) and finds the entropy minimum
// at ε = 31 with avg|Nε(L)| = 4.39, which its heuristic turns into the
// MinLns range 5..7. Our synthetic hurricane world uses the same degree-like
// frame but tighter corridors, so the minimum lands at a smaller ε; the SHAPE
// to verify is: entropy is maximal at both sweep ends and dips at cluster
// scale, and avg|Nε| at the minimum implies a single-digit MinLns range.

#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"
#include "datagen/hurricane_generator.h"
#include "params/parameter_heuristic.h"

int main() {
  using namespace traclus;
  bench::PrintHeader("E1 / bench_fig16_entropy_hurricane",
                     "Figure 16 (entropy vs eps, hurricane data)",
                     "minimum at eps = 31, avg|N(L)| = 4.39, MinLns in 5..7");

  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  bench::PrintDatabaseStats("hurricane", db);

  const auto segments = bench::PartitionOnly(
      bench::BuildOrDie(core::TraclusEngine::Builder()), db);
  std::printf("partitioning phase: %zu trajectory partitions\n\n",
              segments.size());

  const distance::SegmentDistance dist;
  params::HeuristicOptions opt;
  opt.eps_lo = 0.1;
  opt.eps_hi = 6.0;  // Our world's corridors are ~1-2 units wide.
  opt.grid_points = 60;
  const auto est = params::EstimateParameters(segments, dist, opt);

  std::printf("%-8s %s\n", "eps", "entropy");
  const std::string csv_path = bench::OutDir() + "/fig16_entropy_hurricane.csv";
  std::ofstream csv(csv_path);
  csv << "eps,entropy\n";
  for (size_t g = 0; g < est.grid_eps.size(); ++g) {
    std::printf("%-8.3f %.4f%s\n", est.grid_eps[g], est.grid_entropy[g],
                est.grid_eps[g] == est.eps ? "   <-- minimum" : "");
    csv << est.grid_eps[g] << "," << est.grid_entropy[g] << "\n";
  }

  std::printf("\nmeasured: entropy minimum at eps = %.3f (entropy %.4f)\n",
              est.eps, est.entropy);
  std::printf("measured: avg|N(L)| at minimum = %.2f  ->  MinLns range "
              "%.0f..%.0f\n",
              est.avg_neighborhood_size, est.min_lns_low, est.min_lns_high);
  std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}
