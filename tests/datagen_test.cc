// Tests for the synthetic data generators that stand in for the paper's
// real data sets (DESIGN.md §2 substitutions).

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/animal_generator.h"
#include "datagen/common_subtrajectory.h"
#include "datagen/corridor.h"
#include "datagen/hurricane_generator.h"
#include "datagen/noisy_generator.h"

namespace traclus::datagen {
namespace {

using geom::Point;

TEST(CorridorTest, LengthAndInterpolation) {
  const Corridor c{{Point(0, 0), Point(10, 0), Point(10, 10)}};
  EXPECT_DOUBLE_EQ(c.Length(), 20.0);
  EXPECT_EQ(c.At(0.0), Point(0, 0));
  EXPECT_EQ(c.At(0.25), Point(5, 0));
  EXPECT_EQ(c.At(0.5), Point(10, 0));
  EXPECT_EQ(c.At(0.75), Point(10, 5));
  EXPECT_EQ(c.At(1.0), Point(10, 10));
  EXPECT_EQ(c.At(-0.5), Point(0, 0));   // Clamped.
  EXPECT_EQ(c.At(1.5), Point(10, 10));  // Clamped.
}

TEST(CorridorTest, TraverseProducesRequestedSteps) {
  const Corridor c{{Point(0, 0), Point(100, 0)}};
  common::Rng rng(1);
  traj::Trajectory tr(0);
  TraverseCorridor(c, 0.0, 1.0, 25, 0.5, &rng, &tr);
  EXPECT_EQ(tr.size(), 25u);
  // Stays near the corridor.
  for (const auto& p : tr.points()) {
    EXPECT_NEAR(p.y(), 0.0, 4.0);
  }
  // Moves forward overall.
  EXPECT_LT(tr[0].x(), tr[24].x());
}

TEST(CorridorTest, ReverseTraversal) {
  const Corridor c{{Point(0, 0), Point(100, 0)}};
  common::Rng rng(1);
  traj::Trajectory tr(0);
  TraverseCorridor(c, 1.0, 0.0, 10, 0.0, &rng, &tr);
  EXPECT_GT(tr[0].x(), tr[9].x());
}

TEST(RandomWalkTest, RespectsWorldBounds) {
  geom::BBox world;
  world.Extend(Point(0, 0));
  world.Extend(Point(10, 10));
  common::Rng rng(2);
  traj::Trajectory tr(0);
  RandomWalk(Point(5, 5), 500, 3.0, &world, &rng, &tr);
  EXPECT_EQ(tr.size(), 500u);
  for (const auto& p : tr.points()) {
    EXPECT_GE(p.x(), 0.0);
    EXPECT_LE(p.x(), 10.0);
    EXPECT_GE(p.y(), 0.0);
    EXPECT_LE(p.y(), 10.0);
  }
}

TEST(HurricaneGeneratorTest, MatchesPaperScale) {
  // §5.1: 570 trajectories, 17,736 points. Our generator matches the count
  // exactly and the points within a few percent.
  const auto db = GenerateHurricanes(HurricaneConfig{});
  EXPECT_EQ(db.size(), 570u);
  const auto st = db.Stats();
  EXPECT_NEAR(static_cast<double>(st.num_points), 17736.0, 17736.0 * 0.10);
  EXPECT_GE(st.min_length, 4u);
}

TEST(HurricaneGeneratorTest, DeterministicForFixedSeed) {
  const auto a = GenerateHurricanes(HurricaneConfig{});
  const auto b = GenerateHurricanes(HurricaneConfig{});
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    for (size_t j = 0; j < a[i].size(); ++j) EXPECT_EQ(a[i][j], b[i][j]);
  }
}

TEST(HurricaneGeneratorTest, DifferentSeedsDiffer) {
  HurricaneConfig cfg;
  cfg.seed = 1;
  const auto a = GenerateHurricanes(cfg);
  cfg.seed = 2;
  const auto b = GenerateHurricanes(cfg);
  bool any_diff = false;
  for (size_t i = 0; i < a.size() && !any_diff; ++i) {
    if (a[i].size() != b[i].size() || a[i][0] != b[i][0]) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(HurricaneGeneratorTest, TracksStayInWorldBand) {
  const auto db = GenerateHurricanes(HurricaneConfig{});
  const auto st = db.Stats();
  EXPECT_GE(st.bounds.lo(0), -20.0);
  EXPECT_LE(st.bounds.hi(0), 120.0);
  EXPECT_GE(st.bounds.lo(1), -20.0);
  EXPECT_LE(st.bounds.hi(1), 80.0);
}

TEST(HurricaneGeneratorTest, WeightsDrawnFromTheConfiguredRange) {
  HurricaneConfig cfg;
  cfg.min_weight = 1.0;
  cfg.max_weight = 5.0;
  const auto db = GenerateHurricanes(cfg);
  bool any_above_one = false;
  for (const auto& tr : db.trajectories()) {
    EXPECT_GE(tr.weight(), 1.0);
    EXPECT_LE(tr.weight(), 5.0);
    if (tr.weight() > 1.5) any_above_one = true;
  }
  EXPECT_TRUE(any_above_one);
}

TEST(AnimalGeneratorTest, ElkConfigMatchesPaperScale) {
  // §5.1: Elk1993 has 33 trajectories and 47,204 points.
  const auto cfg = Elk1993Config();
  const auto db = GenerateAnimals(cfg);
  EXPECT_EQ(db.size(), 33u);
  const auto st = db.Stats();
  EXPECT_NEAR(static_cast<double>(st.num_points), 47204.0, 47204.0 * 0.02);
  EXPECT_EQ(cfg.corridors.size(), 13u);  // Fig. 21: thirteen clusters.
}

TEST(AnimalGeneratorTest, DeerConfigMatchesPaperScale) {
  // §5.1: Deer1995 has 32 trajectories and 20,065 points.
  const auto cfg = Deer1995Config();
  const auto db = GenerateAnimals(cfg);
  EXPECT_EQ(db.size(), 32u);
  const auto st = db.Stats();
  EXPECT_NEAR(static_cast<double>(st.num_points), 20065.0, 20065.0 * 0.02);
  EXPECT_EQ(cfg.corridors.size(), 2u);  // Fig. 22: two clusters.
}

TEST(AnimalGeneratorTest, TrajectoriesAreMuchLongerThanHurricanes) {
  // §5.1: "trajectories in the animal movement data set are much longer".
  const auto animals = GenerateAnimals(Deer1995Config());
  const auto hurricanes = GenerateHurricanes(HurricaneConfig{});
  EXPECT_GT(animals.Stats().mean_length, 10 * hurricanes.Stats().mean_length);
}

TEST(AnimalGeneratorTest, Deterministic) {
  const auto a = GenerateAnimals(Deer1995Config());
  const auto b = GenerateAnimals(Deer1995Config());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(a[i][a[i].size() / 2], b[i][b[i].size() / 2]);
  }
}

TEST(NoisyGeneratorTest, NoiseFractionHonored) {
  NoisyConfig cfg;
  cfg.num_trajectories = 100;
  cfg.noise_fraction = 0.25;
  const auto db = GenerateNoisy(cfg);
  EXPECT_EQ(db.size(), 100u);
  size_t noise = 0;
  for (const auto& tr : db.trajectories()) {
    if (tr.label() == "noise") ++noise;
  }
  EXPECT_EQ(noise, 25u);
}

TEST(NoisyGeneratorTest, CorridorTrajectoriesFollowPlantedLines) {
  NoisyConfig cfg;
  cfg.num_planted_corridors = 2;  // Corridors at y = 33.3 and y = 66.7.
  cfg.corridor_noise = 0.5;
  const auto db = GenerateNoisy(cfg);
  for (const auto& tr : db.trajectories()) {
    if (tr.label() != "corridor") continue;
    for (const auto& p : tr.points()) {
      const double d1 = std::abs(p.y() - 100.0 / 3.0);
      const double d2 = std::abs(p.y() - 200.0 / 3.0);
      EXPECT_LT(std::min(d1, d2), 3.0);
    }
  }
}

TEST(CommonSubTrajectoryTest, SharedPrefixThenDivergence) {
  CommonSubTrajectoryConfig cfg;
  const auto db = GenerateCommonSubTrajectory(cfg);
  ASSERT_EQ(db.size(), 5u);
  // All trajectories start near the origin and track y ≈ 0 along the shared
  // corridor...
  for (const auto& tr : db.trajectories()) {
    for (int k = 0; k < cfg.shared_points; ++k) {
      EXPECT_NEAR(tr[k].y(), 0.0, 4.0 * cfg.noise_sigma);
    }
  }
  // ...then the endpoints fan far apart.
  double min_gap = 1e18;
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = i + 1; j < db.size(); ++j) {
      min_gap = std::min(min_gap, geom::Distance(db[i].points().back(),
                                                 db[j].points().back()));
    }
  }
  EXPECT_GT(min_gap, 10.0);
}

TEST(CommonSubTrajectoryTest, ConfigurableTrajectoryCount) {
  CommonSubTrajectoryConfig cfg;
  cfg.num_trajectories = 9;
  EXPECT_EQ(GenerateCommonSubTrajectory(cfg).size(), 9u);
}

}  // namespace
}  // namespace traclus::datagen
