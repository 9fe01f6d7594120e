// Parameter selection (§4.4): the entropy heuristic end to end.
//
// Density-based clustering is sensitive to eps and MinLns. The paper's
// heuristic: sweep eps, compute the Shannon entropy of the neighborhood-size
// distribution (Formula (10)), take the entropy-minimal eps (optionally
// refined with simulated annealing), read avg|N_eps(L)| there, and try
// MinLns = avg + 1 .. avg + 3. This example runs that procedure on the
// noisy synthetic set and then clusters with the suggested values.
//
// Build & run:   ./build/examples/parameter_selection

#include <cstdio>

#include "core/engine.h"
#include "datagen/noisy_generator.h"
#include "params/parameter_heuristic.h"

int main() {
  traclus::datagen::NoisyConfig gen;
  gen.num_trajectories = 120;
  gen.noise_fraction = 0.25;
  const auto db = traclus::datagen::GenerateNoisy(gen);

  // Partition first: the heuristic operates on trajectory partitions. A bare
  // default engine is valid; Partition alone runs just stage 1.
  const auto base = traclus::core::TraclusEngine::Builder().Build();
  const auto partitioned = base->Partition(db);
  if (!partitioned.ok()) {
    std::fprintf(stderr, "%s\n", partitioned.status().ToString().c_str());
    return 1;
  }
  const traclus::traj::SegmentStore& segments = partitioned->store;
  std::printf("partitions: %zu\n", segments.size());

  const traclus::distance::SegmentDistance dist;
  traclus::params::HeuristicOptions opt;
  opt.eps_lo = 0.25;
  opt.eps_hi = 12.0;
  opt.grid_points = 48;
  opt.refine_with_annealing = true;  // §4.4 prescribes simulated annealing.
  opt.annealing.iterations = 120;
  const auto est = traclus::params::EstimateParameters(segments, dist, opt);

  std::printf("entropy-minimal eps  : %.3f (H = %.4f)\n", est.eps, est.entropy);
  std::printf("avg|N_eps(L)| there  : %.2f\n", est.avg_neighborhood_size);
  std::printf("suggested MinLns     : %.0f .. %.0f\n\n", est.min_lns_low,
              est.min_lns_high);

  // The paper then inspects a few values around the suggestion; we print the
  // resulting cluster counts so the analyst can pick.
  for (double min_lns = est.min_lns_low; min_lns <= est.min_lns_high;
       min_lns += 1.0) {
    traclus::core::DbscanGroupOptions group;
    group.eps = est.eps;
    group.min_lns = min_lns;
    traclus::core::SweepRepresentativeOptions reps;
    reps.min_lns = min_lns;  // The paper's choice: the clustering MinLns.
    const auto engine = traclus::core::TraclusEngine::Builder()
                            .UseDbscanGrouping(group)
                            .UseSweepRepresentatives(reps)
                            .Build();
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    const auto result = engine->Run(db);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("eps = %.3f, MinLns = %2.0f  ->  %zu clusters, %zu noise "
                "segments\n",
                group.eps, min_lns, result->clustering.clusters.size(),
                result->clustering.num_noise);
  }
  std::printf("\n(ground truth: the generator planted %d corridors)\n",
              gen.num_planted_corridors);
  return 0;
}
