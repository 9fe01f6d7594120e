// E5 — Fig. 20: QMeasure vs ε for MinLns ∈ {8, 9, 10} on Elk1993.
//
// The paper sweeps ε = 25..31 and observes the measure "becomes nearly minimal
// when the optimal parameter values are used", with a stronger correlation to
// actual quality than on the hurricane data. Same shape check as E2 on the
// longer-trajectory data set.

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/animal_generator.h"
#include "eval/qmeasure.h"
#include "params/parameter_heuristic.h"

int main() {
  using namespace traclus;
  bench::PrintHeader("E5 / bench_fig20_qmeasure_elk",
                     "Figure 20 (QMeasure vs eps, MinLns = 8/9/10, Elk1993)",
                     "nearly minimal at the optimal (eps=27, MinLns=9)");

  const auto db = datagen::GenerateAnimals(datagen::Elk1993Config());
  bench::PrintDatabaseStats("Elk1993", db);

  const auto store = bench::PartitionOnly(
      bench::BuildOrDie(core::TraclusEngine::Builder()), db);

  const distance::SegmentDistance dist;
  params::HeuristicOptions hopt;
  hopt.eps_lo = 0.25;
  hopt.eps_hi = 15.0;
  hopt.grid_points = 60;
  const auto est = params::EstimateParameters(store, dist, hopt);
  std::printf("estimated eps* = %.3f (paper: 25)\n\n", est.eps);

  std::vector<double> eps_grid;
  for (int k = -3; k <= 3; ++k) eps_grid.push_back(est.eps * (1.0 + 0.1 * k));

  const std::string csv_path = bench::OutDir() + "/fig20_qmeasure_elk.csv";
  std::ofstream csv(csv_path);
  csv << "eps,min_lns,qmeasure,clusters\n";
  std::printf("%-8s %-8s %-14s %s\n", "eps", "MinLns", "QMeasure", "clusters");
  for (const double min_lns : {8.0, 9.0, 10.0}) {
    double best_q = 0.0;
    double best_eps = 0.0;
    bool first = true;
    for (const double eps : eps_grid) {
      const auto clustering =
          bench::GroupOnly(bench::DbscanEngine(eps, min_lns), store);
      const auto q =
          eval::ComputeQMeasure(store.segments(), clustering, dist);
      std::printf("%-8.3f %-8.0f %-14.1f %zu\n", eps, min_lns, q.qmeasure,
                  clustering.clusters.size());
      csv << eps << "," << min_lns << "," << q.qmeasure << ","
          << clustering.clusters.size() << "\n";
      if (first || q.qmeasure < best_q) {
        best_q = q.qmeasure;
        best_eps = eps;
        first = false;
      }
    }
    std::printf("  -> MinLns=%.0f: QMeasure minimal at eps=%.3f\n\n", min_lns,
                best_eps);
  }
  std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}
