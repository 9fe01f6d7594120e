// E2 — Fig. 17: QMeasure vs ε for MinLns ∈ {5, 6, 7} on the hurricane data.
//
// The paper sweeps ε = 27..33 around its estimated optimum (31) and shows
// QMeasure is nearly minimal at the visually-optimal (ε = 30, MinLns = 6)
// within each MinLns series. We sweep the same ±10% band around our estimated
// optimum. Shape to verify: within a MinLns series, QMeasure dips near the
// entropy-estimated ε (the paper notes the measure is only comparable within
// one MinLns value).

#include <cstdio>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/hurricane_generator.h"
#include "eval/qmeasure.h"
#include "params/parameter_heuristic.h"

int main() {
  using namespace traclus;
  bench::PrintHeader("E2 / bench_fig17_qmeasure_hurricane",
                     "Figure 17 (QMeasure vs eps, MinLns = 5/6/7, hurricane)",
                     "QMeasure nearly minimal at the optimal eps=30 within "
                     "MinLns=6; smaller QMeasure = better clustering");

  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  bench::PrintDatabaseStats("hurricane", db);

  const auto store = bench::PartitionOnly(
      bench::BuildOrDie(core::TraclusEngine::Builder()), db);

  // Estimate eps* as in E1, then sweep ±3 grid steps like the paper's 27..33.
  const distance::SegmentDistance dist;
  params::HeuristicOptions hopt;
  hopt.eps_lo = 0.1;
  hopt.eps_hi = 6.0;
  hopt.grid_points = 60;
  const auto est = params::EstimateParameters(store, dist, hopt);
  std::printf("estimated eps* = %.3f (paper: 31)\n\n", est.eps);

  std::vector<double> eps_grid;
  for (int k = -3; k <= 3; ++k) {
    eps_grid.push_back(est.eps * (1.0 + 0.1 * k));
  }

  const std::string csv_path =
      bench::OutDir() + "/fig17_qmeasure_hurricane.csv";
  std::ofstream csv(csv_path);
  csv << "eps,min_lns,qmeasure,total_sse,noise_penalty,clusters\n";
  std::printf("%-8s %-8s %-14s %-14s %-14s %s\n", "eps", "MinLns", "QMeasure",
              "TotalSSE", "NoisePenalty", "clusters");
  for (const double min_lns : {5.0, 6.0, 7.0}) {
    double best_q = 0.0;
    double best_eps = 0.0;
    bool first = true;
    for (const double eps : eps_grid) {
      const auto clustering =
          bench::GroupOnly(bench::DbscanEngine(eps, min_lns), store);
      const auto q =
          eval::ComputeQMeasure(store.segments(), clustering, dist);
      std::printf("%-8.3f %-8.0f %-14.1f %-14.1f %-14.1f %zu\n", eps, min_lns,
                  q.qmeasure, q.total_sse, q.noise_penalty,
                  clustering.clusters.size());
      csv << eps << "," << min_lns << "," << q.qmeasure << "," << q.total_sse
          << "," << q.noise_penalty << "," << clustering.clusters.size()
          << "\n";
      if (first || q.qmeasure < best_q) {
        best_q = q.qmeasure;
        best_eps = eps;
        first = false;
      }
    }
    std::printf("  -> MinLns=%.0f: QMeasure minimal at eps=%.3f "
                "(estimated eps*=%.3f)\n\n",
                min_lns, best_eps, est.eps);
  }
  std::printf("series written to %s\n", csv_path.c_str());
  return 0;
}
