#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "matching/candidate_set.h"

namespace rlqvo {

/// \brief Reusable per-worker scratch state for Enumerator::Run.
///
/// The seed enumerator allocated and zeroed an `nq x |V(G)|` candidate
/// bitmap on every run — an O(nq·|V(G)|) allocation + memset per query that
/// dwarfs the actual search for small queries on large data graphs. A
/// workspace replaces that with state whose *steady-state* per-query cost is
/// O(|V(q)| + Σ|C(u)|):
///
/// - **Candidate membership.** A CandidateMembership (candidate_set.h),
///   the class the refinement filters use too, answers `v ∈ C(u)`. Prepare
///   stamps it or binds it for binary search by the density rule below;
///   stamping writes only the Σ|C(u)| live cells.
/// - **Visited marks.** A plain 0/1 array over V(G). It is all-clear
///   between runs: every mark is undone by the Descend or
///   RemoveSegmentPrefix that set it, so Prepare never clears it.
/// - **Preallocated buffers.** The mapping, backward-neighbor, per-depth
///   local-candidate buffers (the materialization target of the
///   intersection core, see intersect.h) and per-depth loop bounds are kept
///   across runs and only grow, so batch serving never reallocates in
///   steady state.
/// - **Slice memo.** Each backward constraint remembers the anchor vertex
///   of its last slice lookup and the slice it got, so an anchor mapped
///   several levels up is looked up once, not once per extension below it
///   (see SliceMemo).
///
/// A workspace may be reused across different (query, data) pairs of any
/// size. It is NOT safe for concurrent use: one workspace per thread
/// (QueryEngine keeps one per ThreadPool worker).
class EnumeratorWorkspace {
 public:
  /// Counters for benchmarks and reuse tests.
  struct Stats {
    uint64_t prepares = 0;        ///< total Prepare() calls (one per query)
    uint64_t dense_prepares = 0;  ///< prepares that used the stamped path
    uint64_t epoch_resets = 0;    ///< full zero-fills from uint8 epoch wrap
    uint64_t stamp_grows = 0;     ///< stamp-array reallocations
    /// Prepares that wanted the dense path but degraded to binary search
    /// because the memory budget (or the `workspace.grow` failpoint)
    /// denied the stamp-array growth. Results are identical either way;
    /// only the membership check gets slower.
    uint64_t sparse_fallbacks = 0;
    size_t stamp_bytes = 0;       ///< current stamp-array allocation
    bool last_dense = false;      ///< membership mode of the last prepare
  };

  /// The density rule, the workspace's own choice between stamps and
  /// binary search (the filters always stamp). Below this many data
  /// vertices the stamp rows fit comfortably in cache and stamping always
  /// wins (Prepare picks dense). Covers the paper's benchmark graphs
  /// (yeast ≈ 3k vertices); larger graphs decide by fill.
  static constexpr uint32_t kDenseVertexCutoff = 8192;
  /// Minimum fill ratio Σ|C(u)| / (nq·|V(G)|) for Prepare to pick dense on
  /// graphs above the cutoff: below ~1.6% the stamped cells are too sparse
  /// to amortize the scattered writes, and binary search's log factor on
  /// the hot membership check is cheaper than the setup. Both sides of the
  /// rule are measured in docs/BENCHMARKS.md ("Density rule: kept").
  static constexpr double kDenseMinFill = 1.0 / 64.0;

  EnumeratorWorkspace() = default;
  EnumeratorWorkspace(const EnumeratorWorkspace&) = delete;
  EnumeratorWorkspace& operator=(const EnumeratorWorkspace&) = delete;
  EnumeratorWorkspace(EnumeratorWorkspace&&) = default;
  EnumeratorWorkspace& operator=(EnumeratorWorkspace&&) = default;

  /// Readies the workspace for one enumeration of (query, data, candidates,
  /// order): checks the inputs (ValidateEnumerationInputs), rebuilds the
  /// backward-neighbor lists for `order` with empty slice memos and the last
  /// vertex's label mates, resets the mapping, and binds `candidates` to the
  /// membership, stamped or for binary search. `candidates` must outlive
  /// the enumeration.
  Status Prepare(const Graph& query, const Graph& data,
                 const CandidateSet& candidates,
                 const std::vector<VertexId>& order);

  /// \name Hot-path accessors used by the enumeration recursion.
  /// Valid between a Prepare() and the next Prepare().
  /// @{
  /// v ∈ C(u) for the candidate set Prepare bound.
  bool InCandidates(VertexId u, VertexId v) const {
    return membership_.Test(u, v);
  }

  bool Visited(VertexId v) const { return visited_[v] != 0; }
  void MarkVisited(VertexId v) { visited_[v] = 1; }
  void UnmarkVisited(VertexId v) { visited_[v] = 0; }

  /// mapping[u] = mapped data vertex (kInvalidVertex if unmapped).
  std::vector<VertexId>& mapping() { return mapping_; }

  /// \name Segment prefix install/remove (work-stealing enumeration).
  /// A stolen frontier segment resumes the recursion mid-tree: positions
  /// 0..prefix.size()-1 of `order` are already mapped (prefix[p] is the
  /// data image of order[p]). Install writes those mappings and marks the
  /// images visited, exactly as if the recursion had descended to that
  /// frame on this workspace; Remove undoes it (kInvalidVertex + unmark),
  /// restoring the all-unmapped state between segments. Must be called in
  /// matched pairs on a Prepared workspace.
  /// @{
  void InstallSegmentPrefix(const std::vector<VertexId>& order,
                            std::span<const VertexId> prefix);
  void RemoveSegmentPrefix(const std::vector<VertexId>& order,
                           std::span<const VertexId> prefix);
  /// @}

  /// One backward edge constraint of a query vertex being extended: the new
  /// vertex's data image must lie in NeighborsWith(mapping[u], dir, elabel,
  /// label(new)) — i.e. `dir`/`elabel` are from the *placed* endpoint u's
  /// perspective (kOut: query edge u -> new; kIn: new -> u). The degenerate
  /// case carries (kOut, 0) for every constraint, which the Graph forwards
  /// to the plain label slice — bit-identical to the undirected path.
  struct BackwardConstraint {
    VertexId u;
    EdgeDir dir;
    EdgeLabel elabel;
  };

  /// backward[i] = constraints against already-placed query neighbors of
  /// order[i], one entry per labeled query edge, in the (skeleton)
  /// neighbor-list order of order[i] and (dir, elabel) order within a pair.
  const std::vector<std::vector<BackwardConstraint>>& backward() const {
    return backward_;
  }

  /// The last slice lookup of one backward constraint: the anchor data
  /// vertex it was made for and the NeighborsWith span it returned. A span
  /// depends only on the anchor, the constraint's (dir, elabel) and the
  /// label of the vertex being extended, all fixed by Prepare's (query,
  /// data, order) — so the memo stays valid across the segments a worker
  /// runs and their prefix installs, and only Prepare resets it.
  struct SliceMemo {
    VertexId anchor = kInvalidVertex;
    std::span<const VertexId> slice;
  };

  /// slice_memo(i)[j] memoizes the slice of backward()[i][j].
  std::span<SliceMemo> slice_memo(size_t depth) {
    RLQVO_DCHECK_LT(depth, slice_memo_.size());
    return slice_memo_[depth];
  }

  /// The query vertices at order positions before the last one that carry
  /// the last vertex's label: the only ones whose images can lie in a
  /// last-position candidate list (the enumerator's count by subtraction).
  const std::vector<VertexId>& last_label_mates() const {
    return last_label_mates_;
  }

  /// \brief Per-depth scratch for the intersection-driven local-candidate
  /// computation: `result` receives the materialized intersection of the
  /// backward neighbors' label slices, `scratch` is the ping-pong partner
  /// for multi-way intersections. One pair per recursion depth (a depth's
  /// result is iterated while deeper depths intersect into their own pair);
  /// capacities grow to the workload's high-water mark and are reused.
  struct LocalBuffers {
    std::vector<VertexId> result;
    std::vector<VertexId> scratch;
  };
  LocalBuffers& local(size_t depth) {
    RLQVO_DCHECK_LT(depth, local_.size());
    return local_[depth];
  }

  /// \brief The bounds of the live candidate loop at one order position:
  /// it walks `cands[next, end)`. A work-stealing split shortens `end` from
  /// a poll deeper in the same worker's recursion, which is why the bounds
  /// live here rather than only in the loop's registers. The loop stores
  /// `next` before each descent; `active` marks the positions whose loops
  /// are running (always a contiguous prefix of a segment's positions).
  struct LoopBounds {
    const VertexId* cands = nullptr;
    size_t next = 0;
    size_t end = 0;
    bool active = false;
  };
  LoopBounds& bounds(size_t depth) {
    RLQVO_DCHECK_LT(depth, bounds_.size());
    return bounds_[depth];
  }

  /// Scratch for gathering the backward neighbors' label slices before
  /// intersecting. Shared across depths — safe because every Extend consumes
  /// it (materializes the intersection into its depth's LocalBuffers) before
  /// recursing deeper.
  std::vector<std::span<const VertexId>>& slice_scratch() {
    return slice_scratch_;
  }
  /// @}

  Stats stats() const {
    const CandidateMembership::Stats& m = membership_.stats();
    return {.prepares = prepares_,
            .dense_prepares = dense_prepares_,
            .epoch_resets = m.epoch_resets,
            .stamp_grows = m.stamp_grows,
            .sparse_fallbacks = m.denied_grows,
            .stamp_bytes = membership_.stamp_bytes(),
            .last_dense = membership_.stamped()};
  }

 private:
  CandidateMembership membership_;
  std::vector<uint8_t> visited_;  // |V(G)|, 1 = mapped in the current path
  std::vector<VertexId> mapping_;
  std::vector<std::vector<BackwardConstraint>> backward_;
  std::vector<std::vector<SliceMemo>> slice_memo_;  // shaped like backward_
  std::vector<VertexId> last_label_mates_;
  std::vector<std::pair<EdgeDir, EdgeLabel>> edge_scratch_;  // backward build
  std::vector<LocalBuffers> local_;  // one pair per recursion depth
  std::vector<LoopBounds> bounds_;   // one per recursion depth
  std::vector<std::span<const VertexId>> slice_scratch_;
  std::vector<uint8_t> placed_;  // scratch for the backward build

  uint64_t prepares_ = 0;
  uint64_t dense_prepares_ = 0;
};

/// Checks everything an enumeration of (query, data, candidates, order)
/// requires, in this order: a non-empty query, one candidate list per query
/// vertex, an order that is a permutation of V(q) (connectivity is not
/// required), equal directedness of query and data, and candidates inside
/// V(data). Returns InvalidArgument naming the first failed check.
/// EnumeratorWorkspace::Prepare calls it first; Enumerator::RunParallel
/// calls it before any early return, so serial and parallel runs reject the
/// same inputs.
Status ValidateEnumerationInputs(const Graph& query, const Graph& data,
                                 const CandidateSet& candidates,
                                 const std::vector<VertexId>& order);

}  // namespace rlqvo
