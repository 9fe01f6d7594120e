// E4 — Fig. 19: entropy vs ε for the Elk1993 data.
//
// The paper finds the entropy minimum at ε = 25 with avg|Nε(L)| = 7.63 and
// uses (ε = 27, MinLns = 9) after visual inspection. Shape to verify: interior
// entropy minimum; MinLns range derived from avg|Nε| at the minimum.

#include <cstdio>
#include <fstream>

#include "bench/bench_util.h"
#include "datagen/animal_generator.h"
#include "params/parameter_heuristic.h"

int main() {
  using namespace traclus;
  bench::PrintHeader("E4 / bench_fig19_entropy_elk",
                     "Figure 19 (entropy vs eps, Elk1993)",
                     "minimum at eps = 25, avg|N(L)| = 7.63, optimal eps = 27");

  const auto db = datagen::GenerateAnimals(datagen::Elk1993Config());
  bench::PrintDatabaseStats("Elk1993", db);

  const auto segments = bench::PartitionOnly(
      bench::BuildOrDie(core::TraclusEngine::Builder()), db);
  std::printf("partitioning phase: %zu trajectory partitions\n\n",
              segments.size());

  const distance::SegmentDistance dist;
  params::HeuristicOptions opt;
  opt.eps_lo = 0.25;
  opt.eps_hi = 15.0;
  opt.grid_points = 60;
  const auto est = params::EstimateParameters(segments, dist, opt);

  const std::string csv_path = bench::OutDir() + "/fig19_entropy_elk.csv";
  std::ofstream csv(csv_path);
  csv << "eps,entropy\n";
  std::printf("%-8s %s\n", "eps", "entropy");
  for (size_t g = 0; g < est.grid_eps.size(); ++g) {
    std::printf("%-8.3f %.4f%s\n", est.grid_eps[g], est.grid_entropy[g],
                est.grid_eps[g] == est.eps ? "   <-- minimum" : "");
    csv << est.grid_eps[g] << "," << est.grid_entropy[g] << "\n";
  }
  std::printf("\nmeasured: entropy minimum at eps = %.3f (entropy %.4f)\n",
              est.eps, est.entropy);
  std::printf("measured: avg|N(L)| = %.2f  ->  MinLns range %.0f..%.0f\n",
              est.avg_neighborhood_size, est.min_lns_low, est.min_lns_high);
  std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}
