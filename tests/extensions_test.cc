// Tests for the paper's discussion-section extensions (§7.1) and secondary
// claims: 3-D support (§4.3 footnote 3), partition suppression magnitude
// (§4.1.3: 20-30% longer partitions), weighted density, and generator mixes.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/representative.h"
#include "common/rng.h"
#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "params/entropy.h"
#include "partition/approximate_partitioner.h"
#include "traj/segment_store.h"

namespace traclus {
namespace {

using geom::Point;
using geom::Segment;

// Runs the default assembly at (ε, MinLns) with the sweep at `sweep_min_lns`,
// dying loudly on errors — these tests hardcode valid configs and non-empty
// inputs.
core::TraclusResult RunDbscan(const traj::TrajectoryDatabase& db, double eps,
                              double min_lns, double sweep_min_lns) {
  core::DbscanGroupOptions group;
  group.eps = eps;
  group.min_lns = min_lns;
  core::SweepRepresentativeOptions reps;
  reps.min_lns = sweep_min_lns;
  auto engine = core::TraclusEngine::Builder()
                    .UseDbscanGrouping(group)
                    .UseSweepRepresentatives(reps)
                    .Build();
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto result = engine->Run(db);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).ValueOrDie();
}

TEST(ThreeDimensionalTest, RepresentativeOfA3DBundleIsItsCenterline) {
  // §4.3 footnote 3: "The same approach can be applied also to three
  // dimensions" — the projection method is dimension-generic.
  std::vector<Segment> segs = {
      Segment(Point(0, 0, 0), Point(10, 0, 0)),
      Segment(Point(0, 1, 1), Point(10, 1, 1)),
      Segment(Point(0, 2, 2), Point(10, 2, 2)),
  };
  cluster::Cluster c;
  c.id = 0;
  c.member_indices = {0, 1, 2};
  cluster::RepresentativeOptions opt;
  opt.min_lns = 3;
  opt.method = cluster::RepresentativeMethod::kProjection;
  const auto rep = cluster::RepresentativeTrajectory(
      traj::SegmentStore::FromSegments(segs), c, opt);
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    EXPECT_EQ(p.dims(), 3);
    EXPECT_NEAR(p.y(), 1.0, 1e-9);
    EXPECT_NEAR(p.z(), 1.0, 1e-9);
  }
}

TEST(ThreeDimensionalTest, FullPipelineOn3DTrajectories) {
  // A (x, y, t)-style data set: two groups of trajectories sharing space but
  // separated along the third dimension cluster apart — the §7.1(5) temporal
  // extension expressed through the existing d-dimensional machinery.
  traj::TrajectoryDatabase db;
  for (int i = 0; i < 8; ++i) {
    traj::Trajectory tr(i);
    const double t_base = (i < 4) ? 0.0 : 500.0;  // Two "epochs".
    for (int k = 0; k <= 10; ++k) {
      tr.Add(Point(20.0 * k, 0.3 * i, t_base + 2.0 * k));
    }
    db.Add(std::move(tr));
  }
  const auto result = RunDbscan(db, 15.0, 3, 3);
  // Same spatial corridor, but the epochs are 500 apart in t: two clusters.
  EXPECT_EQ(result.clustering.clusters.size(), 2u);
}

TEST(SuppressionTest, TwoBitsLengthenPartitionsByAtLeastTwentyPercent) {
  // §4.1.3: "increasing the length of trajectory partitions by 20~30%
  // generally improves the clustering quality". Verify the suppression knob
  // actually buys that much extra length on the hurricane workload.
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 100;
  const auto db = datagen::GenerateHurricanes(gen);

  auto mean_partition_length = [&](double suppression) {
    partition::MdlOptions opt;
    opt.suppression_bits = suppression;
    const partition::ApproximatePartitioner part(opt);
    double total_len = 0.0;
    size_t count = 0;
    for (const auto& tr : db.trajectories()) {
      const auto cp = part.CharacteristicPoints(tr);
      const auto segs = partition::MakePartitionSegments(tr, cp, 0);
      for (const auto& s : segs) total_len += s.Length();
      count += segs.size();
    }
    return total_len / static_cast<double>(count);
  };

  const double base = mean_partition_length(0.0);
  const double suppressed = mean_partition_length(2.0);
  EXPECT_GE(suppressed, 1.2 * base)
      << "2 bits of suppression should lengthen partitions by >= 20%";
}

TEST(WeightedEntropyTest, WeightedMassesShiftTheDistribution) {
  // The §4.2 weighted-count extension applies to the entropy heuristic too:
  // weighting must change p(x_i) and hence H(X) when weights are non-uniform.
  const std::vector<size_t> counts = {2, 2, 2, 2};
  const std::vector<double> uniform_mass = {2, 2, 2, 2};
  const std::vector<double> skewed_mass = {8, 1, 1, 1};
  EXPECT_DOUBLE_EQ(params::NeighborhoodEntropy(counts),
                   params::NeighborhoodEntropy(uniform_mass));
  EXPECT_LT(params::NeighborhoodEntropy(skewed_mass),
            params::NeighborhoodEntropy(uniform_mass));
}

TEST(GeneratorMixTest, AllWestwardHurricanesYieldOneCorridorSystem) {
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 120;
  gen.frac_straight_westward = 1.0;
  gen.frac_recurving = 0.0;
  gen.frac_straight_eastward = 0.0;
  const auto db = datagen::GenerateHurricanes(gen);

  const auto result = RunDbscan(db, 0.94, 7, 7);
  ASSERT_GE(result.clustering.clusters.size(), 1u);
  // Every representative must head west (negative net x) in the lower band.
  for (const auto& rep : result.representatives) {
    if (rep.size() < 2) continue;
    EXPECT_LT(rep.points().back().x(), rep.points().front().x());
    for (const auto& p : rep.points()) {
      EXPECT_GT(p.y(), 5.0);
      EXPECT_LT(p.y(), 25.0);
    }
  }
}

TEST(GeneratorMixTest, AllErraticHurricanesYieldNoClusters) {
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 60;
  gen.frac_straight_westward = 0.0;
  gen.frac_recurving = 0.0;
  gen.frac_straight_eastward = 0.0;  // 100% erratic random walks.
  const auto db = datagen::GenerateHurricanes(gen);

  const auto result = RunDbscan(db, 0.94, 7, 7);
  EXPECT_LE(result.clustering.clusters.size(), 2u)
      << "random walks should produce (almost) no corridor clusters";
  EXPECT_GT(result.clustering.num_noise, result.segments().size() / 2);
}

TEST(RepresentativeMinLnsOverrideTest, LowerSweepThresholdExtendsCoverage) {
  // SweepRepresentativeOptions::min_lns decouples the sweep threshold from
  // the clustering MinLns (Fig. 15 takes MinLns as its own input).
  traj::TrajectoryDatabase db;
  for (int i = 0; i < 6; ++i) {
    traj::Trajectory tr(i);
    // Staggered spans: full overlap only in the middle third.
    const double lo = 10.0 * i;
    for (int k = 0; k <= 10; ++k) tr.Add(Point(lo + 15.0 * k, 0.3 * i));
    db.Add(std::move(tr));
  }
  // ε = 25: spans are staggered by 10, so d∥ between neighbors is 10.
  const auto strict = RunDbscan(db, 25.0, 4, 4);
  const auto relaxed = RunDbscan(db, 25.0, 4, 2);
  ASSERT_EQ(strict.representatives.size(), relaxed.representatives.size());
  ASSERT_GE(strict.representatives.size(), 1u);
  auto span = [](const traj::Trajectory& t) {
    return t.size() < 2 ? 0.0
                        : geom::Distance(t.points().front(), t.points().back());
  };
  EXPECT_GT(span(relaxed.representatives[0]), span(strict.representatives[0]));
}

TEST(DeterminismTest, FullPipelineIsBitStableAcrossRuns) {
  // Stronger than label equality: representatives must match exactly too,
  // across independently constructed engines.
  datagen::HurricaneConfig gen;
  gen.num_trajectories = 80;
  const auto db = datagen::GenerateHurricanes(gen);
  const auto a = RunDbscan(db, 0.94, 6, 6);
  const auto b = RunDbscan(db, 0.94, 6, 6);
  ASSERT_EQ(a.representatives.size(), b.representatives.size());
  for (size_t i = 0; i < a.representatives.size(); ++i) {
    ASSERT_EQ(a.representatives[i].size(), b.representatives[i].size());
    for (size_t j = 0; j < a.representatives[i].size(); ++j) {
      EXPECT_EQ(a.representatives[i][j], b.representatives[i][j]);
    }
  }
}

}  // namespace
}  // namespace traclus
