#include "cluster/representative.h"

#include <algorithm>
#include <cmath>

#include "geom/vector_ops.h"

namespace traclus::cluster {

geom::Point AverageDirectionVector(const traj::SegmentStore& store,
                                   const Cluster& cluster) {
  TRACLUS_CHECK(!cluster.member_indices.empty());
  const int dims = store.dims();
  geom::Point sum = dims == 3 ? geom::Point(0, 0, 0) : geom::Point(0, 0);
  for (const size_t idx : cluster.member_indices) {
    sum = sum + store.direction(idx);
  }
  geom::Point avg = sum / static_cast<double>(cluster.member_indices.size());

  if (avg.Norm() < 1e-12) {
    // Members cancel out (e.g. perfectly opposing directions). Fall back to the
    // longest member's direction so downstream rotation is still well defined.
    double best_len = -1.0;
    for (const size_t idx : cluster.member_indices) {
      if (store.length(idx) > best_len) {
        best_len = store.length(idx);
        avg = store.direction(idx);
      }
    }
  }
  return avg;
}

namespace {

// A member segment expressed in the sweep frame: t = coordinate along the
// average direction (X'), r = the orthogonal residual (Y' in 2-D; a full
// perpendicular vector in the generic method).
struct FrameSegment {
  double t_lo;          // Sweep interval start (min of the two endpoints).
  double t_hi;          // Sweep interval end.
  geom::Point r_lo;     // Residual at t_lo.
  geom::Point r_hi;     // Residual at t_hi.
  double weight = 1.0;

  // Residual linearly interpolated at sweep position t.
  geom::Point ResidualAt(double t) const {
    if (t_hi == t_lo) return r_lo;
    const double u = (t - t_lo) / (t_hi - t_lo);
    return r_lo + (r_hi - r_lo) * u;
  }
};

// Decomposes p into (t, residual) for a unit axis u anchored at the origin.
void Decompose(const geom::Point& p, const geom::Point& unit_axis, double* t,
               geom::Point* residual) {
  *t = geom::Dot(p, unit_axis);
  *residual = p - unit_axis * (*t);
}

// The Fig. 15 sweep over a precomputed (unnormalized) average direction
// vector; both public overloads delegate here, so their outputs are
// byte-identical by construction.
traj::Trajectory SweepWithAxis(const std::vector<geom::Segment>& segments,
                               const Cluster& cluster,
                               const RepresentativeOptions& options,
                               geom::Point axis) {
  traj::Trajectory rep(/*id=*/cluster.id, /*label=*/"representative");
  if (cluster.member_indices.empty()) return rep;

  const int dims = segments[cluster.member_indices.front()].dims();
  TRACLUS_CHECK(options.method != RepresentativeMethod::kRotation2D ||
                dims == 2)
      << "kRotation2D requires 2-D segments";

  axis = axis / axis.Norm();

  double cos_phi = 1.0;
  double sin_phi = 0.0;
  if (options.method == RepresentativeMethod::kRotation2D) {
    // Formula (9): rotate by φ, the angle between the average direction vector
    // and the unit x axis, so X' is parallel to the average direction.
    cos_phi = axis.x();
    sin_phi = axis.y();
  }

  // Express every member segment in the sweep frame.
  std::vector<FrameSegment> frame;
  frame.reserve(cluster.member_indices.size());
  std::vector<double> sweep_values;
  for (const size_t idx : cluster.member_indices) {
    const geom::Segment& s = segments[idx];
    FrameSegment fs;
    fs.weight = s.weight();
    double t_s = 0.0;
    double t_e = 0.0;
    geom::Point r_s, r_e;
    if (options.method == RepresentativeMethod::kRotation2D) {
      // x' = cosφ·x + sinφ·y ; y' = −sinφ·x + cosφ·y. The residual is stored as
      // a 2-D point (0, y') so both methods share the averaging code.
      t_s = cos_phi * s.start().x() + sin_phi * s.start().y();
      t_e = cos_phi * s.end().x() + sin_phi * s.end().y();
      r_s = geom::Point(
          0.0, -sin_phi * s.start().x() + cos_phi * s.start().y());
      r_e = geom::Point(0.0, -sin_phi * s.end().x() + cos_phi * s.end().y());
    } else {
      Decompose(s.start(), axis, &t_s, &r_s);
      Decompose(s.end(), axis, &t_e, &r_e);
    }
    if (t_s <= t_e) {
      fs.t_lo = t_s;
      fs.t_hi = t_e;
      fs.r_lo = r_s;
      fs.r_hi = r_e;
    } else {
      fs.t_lo = t_e;
      fs.t_hi = t_s;
      fs.r_lo = r_e;
      fs.r_hi = r_s;
    }
    frame.push_back(fs);
    sweep_values.push_back(t_s);
    sweep_values.push_back(t_e);
  }

  // Fig. 15 lines 03-04: sort the starting and ending points by X'-value. The
  // hit count only changes at these positions; coincident values are a single
  // sweep stop (they would emit identical averages).
  std::sort(sweep_values.begin(), sweep_values.end());
  sweep_values.erase(std::unique(sweep_values.begin(), sweep_values.end()),
                     sweep_values.end());

  bool have_prev = false;
  double prev_t = 0.0;
  for (const double t : sweep_values) {
    // Line 06: count (or weigh) the segments containing this X'-value.
    double mass = 0.0;
    size_t hits = 0;
    for (const auto& fs : frame) {
      if (fs.t_lo <= t && t <= fs.t_hi) {
        mass += options.use_weights ? fs.weight : 1.0;
        ++hits;
      }
    }
    if (mass < options.min_lns) continue;  // Line 07.
    if (have_prev && (t - prev_t) < options.gamma) continue;  // Lines 08-09.

    // Line 10: average coordinate of the hit segments at this sweep position.
    geom::Point r_sum = dims == 3 ? geom::Point(0, 0, 0) : geom::Point(0, 0);
    for (const auto& fs : frame) {
      if (fs.t_lo <= t && t <= fs.t_hi) r_sum = r_sum + fs.ResidualAt(t);
    }
    const geom::Point r_avg = r_sum / static_cast<double>(hits);

    // Line 11: undo the rotation / recompose into world coordinates.
    geom::Point world;
    if (options.method == RepresentativeMethod::kRotation2D) {
      const double yp = r_avg.y();
      world = geom::Point(cos_phi * t - sin_phi * yp,
                          sin_phi * t + cos_phi * yp);
    } else {
      world = axis * t + r_avg;
    }
    rep.Add(world);  // Line 12.
    have_prev = true;
    prev_t = t;
  }
  return rep;
}

}  // namespace

traj::Trajectory RepresentativeTrajectory(
    const traj::SegmentStore& store, const Cluster& cluster,
    const RepresentativeOptions& options) {
  if (cluster.member_indices.empty()) {
    return traj::Trajectory(cluster.id, "representative");
  }
  // The axis sums the store's cached direction vectors; the sweep itself
  // reads endpoints, which only the AoS view carries.
  return SweepWithAxis(store.segments(), cluster, options,
                       AverageDirectionVector(store, cluster));
}

}  // namespace traclus::cluster
