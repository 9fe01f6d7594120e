#ifndef TRACLUS_CLUSTER_REPRESENTATIVE_H_
#define TRACLUS_CLUSTER_REPRESENTATIVE_H_

#include <vector>

#include "cluster/cluster.h"
#include "geom/point.h"
#include "traj/segment_store.h"
#include "traj/trajectory.h"

namespace traclus::cluster {

/// How the sweep coordinate frame is realized.
enum class RepresentativeMethod {
  /// The paper's 2-D formulation: rotate the axes with the Formula (9) matrix
  /// so X becomes parallel to the average direction vector (Fig. 14). 2-D only.
  kRotation2D,
  /// Dimension-generic equivalent: scalar-project points onto the unit average
  /// direction vector and average the orthogonal residuals. Identical to
  /// kRotation2D in two dimensions (tests assert this).
  kProjection,
};

/// Parameters of Representative Trajectory Generation (Fig. 15).
struct RepresentativeOptions {
  /// Minimum number of segments the sweep line must hit for a point to be
  /// emitted (Fig. 13: positions hit by fewer than MinLns segments are
  /// skipped).
  double min_lns = 3.0;
  /// Smoothing parameter γ: minimum gap between consecutive emitted sweep
  /// positions (Fig. 15 line 09). 0 disables smoothing.
  double gamma = 0.0;
  RepresentativeMethod method = RepresentativeMethod::kProjection;
  /// When true, sweep hit counts use segment weights (consistent with the
  /// weighted-density extension of §4.2).
  bool use_weights = false;
};

/// Computes the average direction vector of Definition 11 over the cluster's
/// member segments: the (component-wise) mean of the segment vectors. Summing
/// full vectors rather than unit vectors deliberately weights longer segments
/// more. If the mean is (near-)zero — segments cancel — falls back to the
/// direction of the longest member so a frame always exists. Reads the
/// store's cached direction vectors and lengths.
geom::Point AverageDirectionVector(const traj::SegmentStore& store,
                                   const Cluster& cluster);

/// Generates the representative trajectory RTR_i of a cluster (§4.3, Fig. 15):
/// sweeps a line orthogonal to the average direction vector across the member
/// segments, and wherever at least MinLns segments are hit (and the gap since
/// the previous emission is ≥ γ) emits the average coordinate of the hit
/// segments, translated back into the original frame.
///
/// Returns an empty trajectory when no sweep position reaches MinLns hits.
traj::Trajectory RepresentativeTrajectory(const traj::SegmentStore& store,
                                          const Cluster& cluster,
                                          const RepresentativeOptions& options);

}  // namespace traclus::cluster

#endif  // TRACLUS_CLUSTER_REPRESENTATIVE_H_
