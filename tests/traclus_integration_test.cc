// Integration tests: the full TRACLUS pipeline (Fig. 4) end to end, including
// the headline Example 1 claim — discovery of a common sub-trajectory that
// whole-trajectory clustering cannot see.

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/regression_mixture.h"
#include "core/engine.h"
#include "datagen/common_subtrajectory.h"
#include "datagen/noisy_generator.h"
#include "eval/cluster_stats.h"
#include "eval/qmeasure.h"

namespace traclus::core {
namespace {

using geom::Point;

DbscanGroupOptions GroupOptions(double eps, double min_lns) {
  DbscanGroupOptions group;
  group.eps = eps;
  group.min_lns = min_lns;
  return group;
}

// The DBSCAN assembly over `group`, sweeping at its MinLns (the paper's
// choice) with its weighting.
TraclusEngine::Builder Assembly(const DbscanGroupOptions& group) {
  SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  reps.use_weights = group.use_weights;
  TraclusEngine::Builder builder;
  builder.UseDbscanGrouping(group).UseSweepRepresentatives(reps);
  return builder;
}

TraclusEngine::Builder Fig1Assembly() {
  return Assembly(GroupOptions(10.0, 3));
}

// Engine run helper: these tests hardcode valid configs / non-empty inputs.
TraclusResult RunEngine(const TraclusEngine::Builder& builder,
                        const traj::TrajectoryDatabase& db) {
  auto engine = builder.Build();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = engine->Run(db);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(TraclusIntegrationTest, DiscoversCommonSubTrajectoryOfFig1) {
  const auto db =
      datagen::GenerateCommonSubTrajectory(
          datagen::CommonSubTrajectoryConfig{});
  const TraclusResult result = RunEngine(Fig1Assembly(), db);

  // Exactly one cluster: the shared corridor. The divergent branches are noise.
  ASSERT_EQ(result.clustering.clusters.size(), 1u);
  ASSERT_EQ(result.representatives.size(), 1u);

  // The representative trajectory runs along the shared corridor (y ≈ 0,
  // x from ≈0 to ≈200).
  const traj::Trajectory& rep = result.representatives[0];
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    EXPECT_NEAR(p.y(), 0.0, 8.0);
    EXPECT_GE(p.x(), -15.0);
    EXPECT_LE(p.x(), 215.0);
  }
  const double span = rep.points().back().x() - rep.points().front().x();
  EXPECT_GT(span, 120.0) << "representative must cover most of the corridor";

  // All five trajectories participate in the cluster.
  EXPECT_EQ(cluster::TrajectoryCardinality(result.store,
                                           result.clustering.clusters[0]),
            5u);
}

TEST(TraclusIntegrationTest, WholeTrajectoryBaselineCannotIsolateCorridor) {
  // The contrast experiment behind Fig. 1: the regression-mixture baseline
  // assigns whole trajectories to components, so at least two of the five
  // divergent trajectories always share a component even though their full
  // paths are dissimilar — and no output object isolates the shared corridor.
  const auto db =
      datagen::GenerateCommonSubTrajectory(
          datagen::CommonSubTrajectoryConfig{});
  baseline::RegressionMixtureConfig cfg;
  cfg.num_components = 3;
  const auto fit = baseline::RegressionMixtureClusterer(cfg).Fit(db);
  // Pigeonhole: 5 trajectories, 3 components.
  std::vector<int> counts(3, 0);
  for (const int a : fit.assignments) counts[a]++;
  EXPECT_GT(*std::max_element(counts.begin(), counts.end()), 1);
}

TEST(TraclusIntegrationTest, RobustToNoiseTrajectories) {
  // Fig. 23: planted clusters survive 25% noise trajectories.
  datagen::NoisyConfig cfg;
  cfg.num_trajectories = 120;
  cfg.noise_fraction = 0.25;
  cfg.num_planted_corridors = 4;
  const auto db = datagen::GenerateNoisy(cfg);

  // ε = 3: corridors are ~20 apart; a larger ε lets noise bridge them.
  const TraclusResult result = RunEngine(Assembly(GroupOptions(3.0, 8)), db);
  EXPECT_EQ(result.clustering.clusters.size(), 4u)
      << "all four planted corridors should be recovered";
  EXPECT_GT(result.clustering.num_noise, 0u);
}

TEST(TraclusIntegrationTest, IndexAndBruteForceAgreeEndToEnd) {
  datagen::NoisyConfig cfg;
  cfg.num_trajectories = 60;
  const auto db = datagen::GenerateNoisy(cfg);
  DbscanGroupOptions with_index = GroupOptions(4.0, 6);
  with_index.use_index = true;
  DbscanGroupOptions without_index = with_index;
  without_index.use_index = false;

  const auto a = RunEngine(Assembly(with_index), db);
  const auto b = RunEngine(Assembly(without_index), db);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
  ASSERT_EQ(a.representatives.size(), b.representatives.size());
  for (size_t i = 0; i < a.representatives.size(); ++i) {
    ASSERT_EQ(a.representatives[i].size(), b.representatives[i].size());
    for (size_t j = 0; j < a.representatives[i].size(); ++j) {
      EXPECT_EQ(a.representatives[i][j], b.representatives[i][j]);
    }
  }
}

TEST(TraclusIntegrationTest, PartitionPhaseAccumulatesAllTrajectories) {
  const auto db =
      datagen::GenerateCommonSubTrajectory(
          datagen::CommonSubTrajectoryConfig{});
  auto engine = Fig1Assembly().Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto partitioned = engine->Partition(db);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status().ToString();
  const auto& segments = partitioned->segments();
  const auto& cps = partitioned->characteristic_points;
  ASSERT_EQ(cps.size(), db.size());
  // Segment ids are dense and sequential across the whole database (Fig. 4
  // line 03 accumulation).
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].id(), static_cast<geom::SegmentId>(i));
  }
  // Every trajectory contributed at least one partition.
  std::vector<bool> seen(db.size(), false);
  for (const auto& s : segments) {
    seen[static_cast<size_t>(s.trajectory_id())] = true;
  }
  for (const bool b : seen) EXPECT_TRUE(b);
}

TEST(TraclusIntegrationTest, OptimalPartitioningConfigRuns) {
  datagen::CommonSubTrajectoryConfig gen;
  gen.num_trajectories = 4;
  const auto db = datagen::GenerateCommonSubTrajectory(gen);
  MdlPartitionOptions partition;
  partition.variant = MdlVariant::kOptimal;
  TraclusEngine::Builder builder = Fig1Assembly();
  builder.UseMdlPartitioning(partition);
  const auto result = RunEngine(builder, db);
  EXPECT_FALSE(result.segments().empty());
}

TEST(TraclusIntegrationTest, WeightedTrajectoriesChangeDensity) {
  // Two trajectories along a corridor cannot meet MinLns = 5 unweighted; with
  // weight 3 each and the weighted extension they can.
  traj::TrajectoryDatabase db;
  for (int i = 0; i < 2; ++i) {
    traj::Trajectory tr(i, "", /*weight=*/3.0);
    for (int k = 0; k <= 20; ++k) tr.Add(Point(10.0 * k, 0.2 * i));
    db.Add(std::move(tr));
  }
  DbscanGroupOptions group = GroupOptions(2.0, 5);
  group.min_trajectory_cardinality = 2;
  const auto unweighted = RunEngine(Assembly(group), db);
  EXPECT_TRUE(unweighted.clustering.clusters.empty());

  group.use_weights = true;
  const auto weighted = RunEngine(Assembly(group), db);
  EXPECT_EQ(weighted.clustering.clusters.size(), 1u);
}

TEST(TraclusIntegrationTest, UndirectedDistanceMergesOpposingFlows) {
  // Two anti-parallel corridors on top of each other: directed clustering sees
  // two flows; undirected clustering merges them (§7.1 Extensibility).
  traj::TrajectoryDatabase db;
  for (int i = 0; i < 4; ++i) {
    traj::Trajectory tr(i);
    for (int k = 0; k <= 20; ++k) tr.Add(Point(10.0 * k, 0.1 * i));
    db.Add(std::move(tr));
  }
  for (int i = 4; i < 8; ++i) {
    traj::Trajectory tr(i);
    for (int k = 20; k >= 0; --k) tr.Add(Point(10.0 * k, 0.1 * i));
    db.Add(std::move(tr));
  }
  DbscanGroupOptions group = GroupOptions(2.0, 3);
  const auto directed = RunEngine(Assembly(group), db);
  EXPECT_EQ(directed.clustering.clusters.size(), 2u);

  group.distance.directed = false;
  const auto undirected = RunEngine(Assembly(group), db);
  EXPECT_EQ(undirected.clustering.clusters.size(), 1u);
}

TEST(TraclusIntegrationTest, QMeasureIsComputableOnPipelineOutput) {
  datagen::NoisyConfig gen;
  gen.num_trajectories = 40;
  const auto db = datagen::GenerateNoisy(gen);
  const DbscanGroupOptions group = GroupOptions(4.0, 5);
  const auto result = RunEngine(Assembly(group), db);
  const distance::SegmentDistance dist(group.distance);
  const auto q =
      eval::ComputeQMeasure(result.segments(), result.clustering, dist);
  EXPECT_GE(q.total_sse, 0.0);
  EXPECT_GE(q.noise_penalty, 0.0);
  EXPECT_TRUE(std::isfinite(q.qmeasure));
  const auto stats =
      eval::SummarizeClustering(result.segments(), result.clustering);
  EXPECT_EQ(stats.num_clusters, result.clustering.clusters.size());
}

TEST(TraclusIntegrationTest, DeterministicEndToEnd) {
  datagen::NoisyConfig gen;
  gen.num_trajectories = 50;
  const auto db = datagen::GenerateNoisy(gen);
  const auto a = RunEngine(Assembly(GroupOptions(4.0, 5)), db);
  const auto b = RunEngine(Assembly(GroupOptions(4.0, 5)), db);
  EXPECT_EQ(a.clustering.labels, b.clustering.labels);
}

TEST(TraclusIntegrationTest, EmptyAndDegenerateInputs) {
  auto engine = Fig1Assembly().Build();
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // An empty database is a typed precondition failure, not a crash.
  traj::TrajectoryDatabase empty;
  const auto r0 = engine->Run(empty);
  ASSERT_FALSE(r0.ok());
  EXPECT_EQ(r0.status().code(), common::StatusCode::kFailedPrecondition);

  // Degenerate trajectories (too short / all-coincident points) partition to
  // an empty segment database and an empty clustering.
  traj::TrajectoryDatabase degenerate;
  traj::Trajectory single(0);
  single.Add(Point(1, 1));
  degenerate.Add(std::move(single));
  traj::Trajectory repeated(1);
  for (int i = 0; i < 5; ++i) repeated.Add(Point(2, 2));
  degenerate.Add(std::move(repeated));
  const auto r1 = engine->Run(degenerate);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_TRUE(r1->segments().empty());
  EXPECT_TRUE(r1->clustering.clusters.empty());
}

}  // namespace
}  // namespace traclus::core
