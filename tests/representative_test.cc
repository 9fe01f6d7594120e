// Tests for representative trajectory generation (§4.3, Fig. 13-15) and the
// average direction vector (Definition 11).

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/representative.h"
#include "common/rng.h"
#include "traj/segment_store.h"

namespace traclus::cluster {
namespace {

using geom::Point;
using geom::Segment;

// Freezes `segs` into the store the representative API reads.
traj::SegmentStore StoreOf(const std::vector<Segment>& segs) {
  return traj::SegmentStore::FromSegments(segs);
}

// Builds a cluster over all of `segs`.
Cluster AllOf(const std::vector<Segment>& segs) {
  Cluster c;
  c.id = 0;
  for (size_t i = 0; i < segs.size(); ++i) c.member_indices.push_back(i);
  return c;
}

// Fig. 15 over a cluster of all of `segs`.
traj::Trajectory RepresentativeOfAll(const std::vector<Segment>& segs,
                                     const RepresentativeOptions& options) {
  return RepresentativeTrajectory(StoreOf(segs), AllOf(segs), options);
}

RepresentativeOptions Options(double min_lns, double gamma = 0.0,
                              RepresentativeMethod method =
                                  RepresentativeMethod::kProjection) {
  RepresentativeOptions opt;
  opt.min_lns = min_lns;
  opt.gamma = gamma;
  opt.method = method;
  return opt;
}

TEST(AverageDirectionVectorTest, ParallelSegmentsAverageToSharedDirection) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(0, 1), Point(10, 1)),
      Segment(Point(0, 2), Point(10, 2)),
  };
  const Point v = AverageDirectionVector(StoreOf(segs), AllOf(segs));
  EXPECT_DOUBLE_EQ(v.x(), 10.0);
  EXPECT_DOUBLE_EQ(v.y(), 0.0);
}

TEST(AverageDirectionVectorTest, LongerSegmentsContributeMore) {
  // Definition 11 sums full vectors, not unit vectors.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(100, 0)),  // Long, east.
      Segment(Point(0, 0), Point(0, 1)),    // Short, north.
  };
  const Point v = AverageDirectionVector(StoreOf(segs), AllOf(segs));
  EXPECT_GT(v.x(), 10 * v.y());
}

TEST(AverageDirectionVectorTest, OpposingSegmentsFallBackToLongest) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(10, 1), Point(0, 1)),  // Exactly opposite.
  };
  const Point v = AverageDirectionVector(StoreOf(segs), AllOf(segs));
  EXPECT_GT(v.Norm(), 0.0);  // Fallback produced a usable axis.
}

TEST(RepresentativeTest, ParallelBundleYieldsCenterline) {
  // Three identical-span parallel segments at y = 0, 1, 2: the representative
  // must run along y = 1 across the full span.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(0, 1), Point(10, 1)),
      Segment(Point(0, 2), Point(10, 2)),
  };
  const auto rep = RepresentativeOfAll(segs, Options(3));
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    EXPECT_NEAR(p.y(), 1.0, 1e-9);
  }
  EXPECT_NEAR(rep.points().front().x(), 0.0, 1e-9);
  EXPECT_NEAR(rep.points().back().x(), 10.0, 1e-9);
}

TEST(RepresentativeTest, SweepSkipsPositionsBelowMinLns) {
  // Staggered spans: only [4, 6] is covered by all three segments.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(6, 0)),
      Segment(Point(4, 1), Point(10, 1)),
      Segment(Point(4, 2), Point(6, 2)),
  };
  const auto rep = RepresentativeOfAll(segs, Options(3));
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    EXPECT_GE(p.x(), 4.0 - 1e-9);
    EXPECT_LE(p.x(), 6.0 + 1e-9);
  }
}

TEST(RepresentativeTest, EmptyWhenNoPositionReachesMinLns) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(4, 0)),
      Segment(Point(6, 1), Point(10, 1)),  // Disjoint spans.
  };
  const auto rep = RepresentativeOfAll(segs, Options(2));
  EXPECT_TRUE(rep.empty());
}

TEST(RepresentativeTest, GammaSmoothingThinsPoints) {
  std::vector<Segment> segs;
  // Twelve parallel segments with slightly staggered spans → many sweep stops.
  for (int i = 0; i < 12; ++i) {
    segs.emplace_back(Point(0.1 * i, 0.1 * i), Point(10 + 0.1 * i, 0.1 * i));
  }
  const auto dense = RepresentativeOfAll(segs, Options(3, 0.0));
  const auto sparse = RepresentativeOfAll(segs, Options(3, 2.0));
  EXPECT_GT(dense.size(), sparse.size());
  ASSERT_GE(sparse.size(), 2u);
  // Consecutive sweep gaps must respect γ.
  for (size_t i = 1; i < sparse.size(); ++i) {
    EXPECT_GE(geom::Distance(sparse[i - 1], sparse[i]), 2.0 - 1e-6);
  }
}

TEST(RepresentativeTest, RotationAndProjectionMethodsAgreeIn2D) {
  common::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // A coherent bundle at a random orientation.
    const double angle = rng.Uniform(0, 2 * M_PI);
    const Point dir(std::cos(angle), std::sin(angle));
    const Point normal(-dir.y(), dir.x());
    std::vector<Segment> segs;
    for (int i = 0; i < 6; ++i) {
      const Point base = normal * (0.5 * i) + dir * rng.Uniform(-1.0, 0.0);
      segs.emplace_back(base, base + dir * rng.Uniform(8.0, 12.0));
    }
    const auto rot = RepresentativeOfAll(
        segs, Options(3, 0.0, RepresentativeMethod::kRotation2D));
    const auto proj = RepresentativeOfAll(
        segs, Options(3, 0.0, RepresentativeMethod::kProjection));
    ASSERT_EQ(rot.size(), proj.size());
    for (size_t i = 0; i < rot.size(); ++i) {
      EXPECT_NEAR(rot[i].x(), proj[i].x(), 1e-9);
      EXPECT_NEAR(rot[i].y(), proj[i].y(), 1e-9);
    }
  }
}

TEST(RepresentativeTest, RepresentativeFollowsCurvedClusterTrend) {
  // Segments along a gentle arc: representative points should stay within the
  // band the member segments occupy.
  std::vector<Segment> segs;
  common::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const double x0 = i * 2.0;
    const double y0 = 0.05 * x0 * x0 + rng.Uniform(-0.3, 0.3);
    const double x1 = x0 + 4.0;
    const double y1 = 0.05 * x1 * x1 + rng.Uniform(-0.3, 0.3);
    segs.emplace_back(Point(x0, y0), Point(x1, y1));
  }
  const auto rep = RepresentativeOfAll(segs, Options(3));
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    const double expected = 0.05 * p.x() * p.x();
    EXPECT_NEAR(p.y(), expected, 3.0);
  }
}

TEST(RepresentativeTest, WeightedSweepCountsUseWeights) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0), 0, 0, /*weight=*/3.0),
      Segment(Point(0, 1), Point(10, 1), 1, 1, /*weight=*/3.0),
  };
  RepresentativeOptions opt = Options(5);  // Count 2 < 5, weight 6 ≥ 5.
  const auto unweighted = RepresentativeOfAll(segs, opt);
  EXPECT_TRUE(unweighted.empty());
  opt.use_weights = true;
  const auto weighted = RepresentativeOfAll(segs, opt);
  EXPECT_GE(weighted.size(), 2u);
}

TEST(RepresentativeTest, SingleMemberClusterBehaves) {
  std::vector<Segment> segs = {Segment(Point(0, 0), Point(10, 5))};
  const auto rep = RepresentativeOfAll(segs, Options(1));
  ASSERT_EQ(rep.size(), 2u);
  EXPECT_NEAR(rep[0].x(), 0.0, 1e-9);
  EXPECT_NEAR(rep[1].y(), 5.0, 1e-9);
}

TEST(RepresentativeTest, ReversedMembersStillProduceForwardSweep) {
  // Mixed orientations within a coherent flow (a few reversed segments) must
  // not break the sweep; the average direction still dominates.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(0, 1), Point(10, 1)),
      Segment(Point(0, 2), Point(10, 2)),
      Segment(Point(10, 3), Point(0, 3)),  // Reversed.
  };
  const auto rep = RepresentativeOfAll(segs, Options(3));
  ASSERT_GE(rep.size(), 2u);
  EXPECT_LT(rep.points().front().x(), rep.points().back().x());
}

}  // namespace
}  // namespace traclus::cluster
