#include "cluster/chunked_neighborhood.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"

namespace traclus::cluster {

namespace {

// Pins chunk c; a spill I/O failure has no channel to the provider API.
std::shared_ptr<const traj::SegmentStore> PinChunk(
    const traj::ChunkedSegmentStore& store, size_t c) {
  auto chunk = store.Chunk(c);
  TRACLUS_CHECK(chunk.ok());
  return *std::move(chunk);
}

// A query's chunk, pinned for the whole query, and its chunk-local index.
struct PinnedQuery {
  size_t chunk;
  size_t local;
  std::shared_ptr<const traj::SegmentStore> store;
};

PinnedQuery PinQuery(const traj::ChunkedSegmentStore& store,
                     size_t query_index) {
  TRACLUS_DCHECK(query_index < store.size());
  const size_t c = store.chunk_of(query_index);
  return PinnedQuery{c, query_index - store.chunk_begin(c), PinChunk(store, c)};
}

// Refines the query against the candidates of chunk c (chunk-local indices)
// and appends the accepted ones as global indices. The query's own chunk
// passes the query store itself as the candidate store, so the tile loop
// applies Definition 4 self-inclusion exactly there.
void RefineChunk(const ChunkedBruteForceNeighborhood& scan,
                 const PinnedQuery& query, size_t c,
                 distance::Candidates candidates, double eps,
                 std::vector<size_t>* out) {
  std::shared_ptr<const traj::SegmentStore> pinned;
  if (c != query.chunk) pinned = PinChunk(scan.store(), c);
  const traj::SegmentStore& cand_store =
      c == query.chunk ? *query.store : *pinned;
  const size_t before = out->size();
  distance::EpsilonRefineTile(scan.dist(), *query.store,
                              common::Span<const size_t>(&query.local, 1),
                              cand_store, candidates, eps, out, scan.kernel());
  const size_t base = scan.store().chunk_begin(c);
  for (size_t k = before; k < out->size(); ++k) (*out)[k] += base;
}

}  // namespace

ChunkedBruteForceNeighborhood::ChunkedBruteForceNeighborhood(
    const traj::ChunkedSegmentStore& store,
    const distance::SegmentDistance& dist, distance::BatchKernel kernel)
    : store_(store),
      dist_(dist),
      kernel_(distance::ResolveBatchKernel(kernel)) {
  TRACLUS_CHECK(store.finalized());
}

std::vector<size_t> ChunkedBruteForceNeighborhood::Neighbors(
    size_t query_index, double eps) const {
  const PinnedQuery query = PinQuery(store_, query_index);
  std::vector<size_t> out;
  for (size_t c = 0; c < store_.num_chunks(); ++c) {
    RefineChunk(*this, query, c,
                distance::Candidates::Range(0, store_.chunk_size(c)), eps,
                &out);
  }
  return out;
}

ChunkedGridNeighborhood::ChunkedGridNeighborhood(
    const traj::ChunkedSegmentStore& store,
    const distance::SegmentDistance& dist, double cell_size,
    distance::BatchKernel kernel)
    : scan_(store, dist, kernel),
      grid_(store.bboxes(), store.dims(), cell_size) {}

std::vector<size_t> ChunkedGridNeighborhood::Neighbors(size_t query_index,
                                                       double eps) const {
  const double factor = scan_.dist().LowerBoundFactor();
  if (factor <= 0.0) return scan_.Neighbors(query_index, eps);

  const traj::ChunkedSegmentStore& store = scan_.store();
  const PinnedQuery query = PinQuery(store, query_index);
  std::vector<size_t>& candidates = grid_.Gather(query_index, eps / factor);

  // Group the candidates by chunk (ascending), rewriting each group to
  // chunk-local indices in place and faulting its chunk once. Ascending
  // groups of ascending candidates emit the list in ascending order.
  std::sort(candidates.begin(), candidates.end());
  std::vector<size_t> out;
  size_t k = 0;
  while (k < candidates.size()) {
    const size_t c = store.chunk_of(candidates[k]);
    const size_t base = store.chunk_begin(c);
    size_t end = k;
    while (end < candidates.size() && store.chunk_of(candidates[end]) == c) {
      candidates[end++] -= base;
    }
    RefineChunk(scan_, query, c,
                distance::Candidates::List(common::Span<const size_t>(
                    candidates.data() + k, end - k)),
                eps, &out);
    k = end;
  }
  return out;
}

}  // namespace traclus::cluster
