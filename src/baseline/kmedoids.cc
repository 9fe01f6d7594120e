#include "baseline/kmedoids.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace traclus::baseline {

namespace {

/// Rows per fill tile: each tile hands the filler a contiguous
/// kFillTileRows × column-stripe block so tile-capable distance sources
/// (distance::DistanceTile) reuse candidate columns across the rows.
/// Only the tile's sub-diagonal corner (≤ kFillTileRows²/2 entries) is
/// evaluated without being used.
constexpr size_t kFillTileRows = 16;

}  // namespace

KMedoidsResult KMedoids(size_t n,
                        const std::function<double(size_t, size_t)>& dist,
                        const KMedoidsConfig& config) {
  // Adapt the per-pair callback onto the row-batched fill so all overloads
  // share one implementation (and produce identical matrices).
  return KMedoids(
      n,
      [&dist](size_t i, size_t j_begin, size_t j_end, double* out) {
        for (size_t j = j_begin; j < j_end; ++j) out[j - j_begin] = dist(i, j);
      },
      config);
}

KMedoidsResult KMedoids(size_t n, const KMedoidsRowFill& row_fill,
                        const KMedoidsConfig& config) {
  // Adapt the row callback onto the tiled fill: one row_fill call per tile
  // row, over the tile's shared column range.
  return KMedoids(
      n,
      [&row_fill](size_t i_begin, size_t i_end, size_t j_begin, size_t j_end,
                  double* out, size_t ldo) {
        for (size_t i = i_begin; i < i_end; ++i) {
          row_fill(i, j_begin, j_end, out + (i - i_begin) * ldo);
        }
      },
      config);
}

KMedoidsResult KMedoids(size_t n, const KMedoidsTileFill& tile_fill,
                        const KMedoidsConfig& config) {
  TRACLUS_CHECK_GE(config.k, 1);
  TRACLUS_CHECK_GE(n, static_cast<size_t>(config.k));
  const int k = config.k;
  common::Rng rng(config.seed);

  // Cache the (symmetric) distance matrix; n is small for whole-trajectory
  // use, but the entries (e.g. DTW warps) can be individually expensive, so
  // the fill is spread across the pool. The chunk owning rows [lo, hi)
  // requests kFillTileRows-row tiles over the shared column range
  // [ib+1, n) — tile-capable fillers reuse each candidate block across the
  // rows — then copies each row's upper stripe d[i][i+1..n) out of the tile
  // and writes the mirrored column. The chunk owning row i writes d[i][j]
  // and d[j][i] for every j > i: one writer per element, so the matrix is
  // identical for every thread count.
  std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
  common::SharedPool(config.num_threads)
      .ParallelForChunked(0, n, [&](size_t lo, size_t hi) {
        std::vector<double> tile;
        for (size_t ib = lo; ib < hi; ib += kFillTileRows) {
          const size_t ie = std::min(hi, ib + kFillTileRows);
          const size_t j0 = ib + 1;
          if (j0 >= n) continue;
          const size_t width = n - j0;
          tile.resize((ie - ib) * width);
          tile_fill(ib, ie, j0, n, tile.data(), width);
          for (size_t i = ib; i < ie; ++i) {
            if (i + 1 >= n) continue;
            const double* row = tile.data() + (i - ib) * width;
            for (size_t j = i + 1; j < n; ++j) {
              d[i][j] = row[j - j0];
              d[j][i] = d[i][j];
            }
          }
        }
      });

  KMedoidsResult out;
  // k-medoids++ seeding: first medoid random, then proportional-to-distance².
  out.medoids.push_back(static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(n) - 1)));
  while (out.medoids.size() < static_cast<size_t>(k)) {
    std::vector<double> w(n, 0.0);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const size_t mi : out.medoids) nearest = std::min(nearest, d[i][mi]);
      w[i] = nearest * nearest;
      total += w[i];
    }
    size_t pick = 0;
    if (total > 0.0) {
      double target = rng.Uniform(0.0, total);
      for (size_t i = 0; i < n; ++i) {
        target -= w[i];
        if (target <= 0.0) {
          pick = i;
          break;
        }
      }
    } else {
      pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    if (std::find(out.medoids.begin(), out.medoids.end(), pick) ==
        out.medoids.end()) {
      out.medoids.push_back(pick);
    }
  }

  out.assignments.assign(n, 0);
  auto assign = [&]() {
    double cost = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double best = std::numeric_limits<double>::infinity();
      int best_k = 0;
      for (int c = 0; c < k; ++c) {
        if (d[i][out.medoids[c]] < best) {
          best = d[i][out.medoids[c]];
          best_k = c;
        }
      }
      out.assignments[i] = best_k;
      cost += best;
    }
    return cost;
  };

  out.total_cost = assign();
  for (int it = 0; it < config.max_iterations; ++it) {
    ++out.iterations;
    bool changed = false;
    // Medoid update: within each cluster, pick the member minimizing the sum
    // of distances to the rest of the cluster.
    for (int c = 0; c < k; ++c) {
      double best_sum = std::numeric_limits<double>::infinity();
      size_t best_m = out.medoids[c];
      for (size_t cand = 0; cand < n; ++cand) {
        if (out.assignments[cand] != c) continue;
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
          if (out.assignments[i] == c) sum += d[cand][i];
        }
        if (sum < best_sum) {
          best_sum = sum;
          best_m = cand;
        }
      }
      if (best_m != out.medoids[c]) {
        out.medoids[c] = best_m;
        changed = true;
      }
    }
    const double cost = assign();
    if (!changed) break;
    out.total_cost = cost;
  }
  out.total_cost = assign();
  return out;
}

KMedoidsResult KMedoidsOverSegments(const traj::SegmentStore& store,
                                    const distance::SegmentDistance& dist,
                                    const KMedoidsConfig& config,
                                    distance::BatchKernel kernel) {
  return KMedoids(
      store.size(),
      [&store, &dist, kernel](size_t i_begin, size_t i_end, size_t j_begin,
                              size_t j_end, double* out, size_t ldo) {
        std::vector<size_t> rows(i_end - i_begin);
        std::iota(rows.begin(), rows.end(), i_begin);
        distance::DistanceTile(dist, store, rows, store,
                               distance::Candidates::Range(j_begin, j_end),
                               out, ldo, kernel);
      },
      config);
}

}  // namespace traclus::baseline
