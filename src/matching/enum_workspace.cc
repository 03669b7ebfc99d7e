#include "matching/enum_workspace.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace rlqvo {

Status EnumeratorWorkspace::Prepare(const Graph& query, const Graph& data,
                                    const CandidateSet& candidates,
                                    const std::vector<VertexId>& order) {
  const uint32_t nq = query.num_vertices();
  const size_t nv = data.num_vertices();

  // Directedness is part of the matching semantics (an undirected query
  // edge means "one symmetric edge", a directed one means "this arc"), so a
  // mixed pair has no well-defined answer — reject instead of guessing.
  if (query.directed() != data.directed()) {
    return Status::InvalidArgument(
        "query/data directedness mismatch: query is " +
        std::string(query.directed() ? "directed" : "undirected") +
        ", data is " + std::string(data.directed() ? "directed" : "undirected"));
  }

  // Any fresh Prepare invalidates a parallel run's "already prepared on
  // this worker" stamp (see parallel_run_token()).
  parallel_run_token_ = 0;

  // Candidate lists are sorted ascending, so range validation is one
  // tail check per query vertex; total size feeds the density decision.
  size_t total_candidates = 0;
  for (VertexId u = 0; u < nq; ++u) {
    const std::vector<VertexId>& c = candidates.candidates(u);
    if (!c.empty() && c.back() >= nv) {
      return Status::InvalidArgument("candidate vertex out of range");
    }
    total_candidates += c.size();
  }
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

  // Bump the epoch: every stamp from previous queries is now stale. On
  // uint8 wrap-around, old stamps could collide with reused epoch values,
  // so both arrays get their once-per-255-queries zero-fill here.
  ++epoch_;
  if (epoch_ == 0) {
    std::fill(cand_stamp_.begin(), cand_stamp_.end(), uint8_t{0});
    std::fill(visited_stamp_.begin(), visited_stamp_.end(), uint8_t{0});
    epoch_ = 1;
    ++stats_.epoch_resets;
  }
  if (visited_stamp_.size() < nv) visited_stamp_.resize(nv, 0);

  const size_t stamp_bytes = static_cast<size_t>(nq) * nv;
  dense_ = nv <= kDenseVertexCutoff ||
           (stamp_bytes <= kMaxStampBytes &&
            static_cast<double>(total_candidates) >=
                kDenseMinFill * static_cast<double>(stamp_bytes));

  nv_ = nv;
  if (dense_ && cand_stamp_.size() < stamp_bytes) {
    // Growth is the one allocation that scales with nq·|V(G)|, so it is
    // the degradation point: charge the *whole* new footprint (replacing
    // the previous footprint's charge) and, when the budget or the
    // `workspace.grow` failpoint denies it, fall back to binary-search
    // membership — identical results, slower membership check.
    MemoryCharge charge = MemoryBudget::Global().TryCharge(stamp_bytes);
    if (charge.empty() || RLQVO_FAILPOINT_FIRED("workspace.grow")) {
      dense_ = false;
      ++stats_.sparse_fallbacks;
    } else {
      stamp_charge_ = std::move(charge);
      cand_stamp_.resize(stamp_bytes, 0);
      ++stats_.stamp_grows;
      stats_.stamp_bytes = cand_stamp_.size();
    }
  }
  if (dense_) {
    for (VertexId u = 0; u < nq; ++u) {
      uint8_t* row = cand_stamp_.data() + static_cast<size_t>(u) * nv;
      for (VertexId v : candidates.candidates(u)) row[v] = epoch_;
    }
    ++stats_.dense_prepares;
  }

  ++stats_.prepares;
  stats_.last_dense = dense_;
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
