#include "matching/enum_workspace.h"

#include <string>

namespace rlqvo {

Status ValidateEnumerationInputs(const Graph& query, const Graph& data,
                                 const CandidateSet& candidates,
                                 const std::vector<VertexId>& order) {
  const uint32_t nq = query.num_vertices();
  if (nq == 0) return Status::InvalidArgument("query graph is empty");
  if (candidates.num_query_vertices() != nq) {
    return Status::InvalidArgument("candidate set size mismatch");
  }
  // Connectivity is not required: a position with no mapped backward
  // neighbor iterates its whole candidate list.
  std::vector<bool> seen(nq, false);
  size_t distinct = 0;
  for (const VertexId u : order) {
    if (u >= nq || seen[u]) break;
    seen[u] = true;
    ++distinct;
  }
  if (order.size() != nq || distinct != nq) {
    return Status::InvalidArgument(
        "order is not a permutation of the query vertices");
  }
  // Directedness is part of the matching semantics (an undirected query
  // edge means "one symmetric edge", a directed one means "this arc"), so a
  // mixed pair has no well-defined answer — reject instead of guessing.
  if (query.directed() != data.directed()) {
    return Status::InvalidArgument(
        "query/data directedness mismatch: query is " +
        std::string(query.directed() ? "directed" : "undirected") +
        ", data is " + std::string(data.directed() ? "directed" : "undirected"));
  }
  // Candidate lists are sorted ascending, so range validation is one tail
  // check per query vertex.
  for (VertexId u = 0; u < nq; ++u) {
    const std::vector<VertexId>& c = candidates.candidates(u);
    if (!c.empty() && c.back() >= data.num_vertices()) {
      return Status::InvalidArgument("candidate vertex out of range");
    }
  }
  return Status::OK();
}

Status EnumeratorWorkspace::Prepare(const Graph& query, const Graph& data,
                                    const CandidateSet& candidates,
                                    const std::vector<VertexId>& order) {
  RLQVO_RETURN_NOT_OK(
      ValidateEnumerationInputs(query, data, candidates, order));
  const uint32_t nq = query.num_vertices();
  const size_t nv = data.num_vertices();
#ifndef NDEBUG
  // The intersection core derives local candidates from label(u) adjacency
  // slices, so it requires label-consistent candidate sets (which every
  // shipped filter produces; a label-mismatched candidate could never be
  // part of a genuine match anyway). Enforced in debug builds; documented
  // on Enumerator::Run.
  for (VertexId u = 0; u < nq; ++u) {
    for (VertexId v : candidates.candidates(u)) {
      RLQVO_DCHECK_EQ(data.label(v), query.label(u));
    }
  }
#endif

  // Backward-neighbor lists, their slice memos and per-depth local-candidate
  // buffers for this order; inner vectors keep their capacity across
  // queries.
  if (backward_.size() < nq) backward_.resize(nq);
  if (slice_memo_.size() < nq) slice_memo_.resize(nq);
  if (local_.size() < nq) local_.resize(nq);
  if (bounds_.size() < nq) bounds_.resize(nq);
  placed_.assign(nq, 0);
  const bool degenerate = query.degenerate();
  for (size_t i = 0; i < order.size(); ++i) {
    backward_[i].clear();
    // neighbors-ok: endpoints only; labeled constraints come from EdgesBetween.
    for (VertexId w : query.neighbors(order[i])) {
      if (!placed_[w]) continue;
      if (degenerate) {
        // Exactly one undirected label-0 edge per skeleton neighbor; skip
        // the EdgesBetween lookup and keep the classic neighbor-list order.
        backward_[i].push_back({w, EdgeDir::kOut, 0});
        continue;
      }
      // One constraint per labeled query edge between w and order[i], from
      // w's perspective (w is the placed endpoint the lookup anchors on).
      edge_scratch_.clear();
      query.EdgesBetween(w, order[i], &edge_scratch_);
      for (const auto& [dir, elabel] : edge_scratch_) {
        backward_[i].push_back({w, dir, elabel});
      }
    }
    // A memo from another query or data graph could hold a span for the
    // same anchor id: start every constraint without one.
    slice_memo_[i].assign(backward_[i].size(), SliceMemo{});
    placed_[order[i]] = 1;
  }

  last_label_mates_.clear();
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    if (query.label(order[i]) == query.label(order.back())) {
      last_label_mates_.push_back(order[i]);
    }
  }

  mapping_.assign(nq, kInvalidVertex);
  if (visited_.size() < nv) visited_.resize(nv, 0);

  // The density rule: stamp on small graphs, or where the candidates fill
  // enough of the nq·|V(G)| cells to pay for their scattered writes.
  const size_t total_candidates = candidates.TotalSize();
  const size_t cells = static_cast<size_t>(nq) * nv;
  const bool dense = nv <= kDenseVertexCutoff ||
                     static_cast<double>(total_candidates) >=
                         kDenseMinFill * static_cast<double>(cells);
  if (dense) {
    dense_prepares_ += membership_.Stamp(candidates, data.num_vertices());
  } else {
    membership_.Bind(candidates);
  }
  ++prepares_;
  return Status::OK();
}

void EnumeratorWorkspace::InstallSegmentPrefix(
    const std::vector<VertexId>& order, std::span<const VertexId> prefix) {
  RLQVO_DCHECK_LE(prefix.size(), order.size());
  for (size_t p = 0; p < prefix.size(); ++p) {
    mapping_[order[p]] = prefix[p];
    MarkVisited(prefix[p]);
  }
}

void EnumeratorWorkspace::RemoveSegmentPrefix(
    const std::vector<VertexId>& order, std::span<const VertexId> prefix) {
  for (size_t p = 0; p < prefix.size(); ++p) {
    UnmarkVisited(prefix[p]);
    mapping_[order[p]] = kInvalidVertex;
  }
}

}  // namespace rlqvo
