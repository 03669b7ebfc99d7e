#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/memory_budget.h"
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
/// - **Epoch-stamped membership.** Candidate-membership and visited arrays
///   store a one-byte epoch instead of a boolean. Prepare() bumps the epoch,
///   instantly invalidating every stamp from previous queries without
///   touching the arrays; only the Σ|C(u)| live candidate cells are written.
///   The uint8 epoch wraps every 255 queries, at which point both arrays are
///   zero-filled once — an amortized 1/255 of the seed's per-query memset.
/// - **Sparse fallback.** When the data graph is large and the candidate
///   lists are sparse, even Σ|C(u)| stamping (and the nq·|V(G)| stamp-array
///   footprint) is wasted work: membership falls back to
///   CandidateSet::Contains binary search and the stamp array is never
///   allocated. See the kDense* thresholds below.
/// - **Preallocated buffers.** The mapping, backward-neighbor and per-depth
///   local-candidate buffers (the materialization target of the
///   intersection core, see intersect.h) are kept across runs and only
///   grow, so batch serving never reallocates in steady state.
///
/// A workspace may be reused across different (query, data) pairs of any
/// size. It is NOT safe for concurrent use: one workspace per thread
/// (QueryEngine keeps one per ThreadPool worker).
class EnumeratorWorkspace {
 public:
  /// How candidate membership is answered during enumeration.
  enum class MembershipMode {
    /// Pick stamped vs binary search from the thresholds below (default).
    kAuto,
    /// Always stamp (the seed bitmap semantics). Tests use this to pin the
    /// dense code path; unbounded memory on huge graphs.
    kForceStamped,
    /// Always binary-search CandidateSet::Contains. Zero setup beyond the
    /// backward/mapping buffers.
    kForceBinarySearch,
  };

  /// Counters for benchmarks and reuse tests.
  struct Stats {
    uint64_t prepares = 0;        ///< total Prepare() calls (one per query)
    uint64_t dense_prepares = 0;  ///< prepares that used the stamped path
    uint64_t epoch_resets = 0;    ///< full zero-fills from uint8 epoch wrap
    uint64_t stamp_grows = 0;     ///< stamp-array reallocations
    /// kAuto prepares that wanted the dense path but degraded to binary
    /// search because the memory budget (or the `workspace.grow`
    /// failpoint) denied the stamp-array growth. Results are identical
    /// either way; only the membership check gets slower.
    uint64_t sparse_fallbacks = 0;
    size_t stamp_bytes = 0;       ///< current stamp-array allocation
    bool last_dense = false;      ///< membership mode of the last prepare
  };

  /// Below this many data vertices the stamp rows fit comfortably in cache
  /// and stamping always wins (kAuto picks dense). Covers the paper's
  /// benchmark graphs (yeast ≈ 3k vertices); larger graphs decide by fill.
  static constexpr uint32_t kDenseVertexCutoff = 8192;
  /// Minimum fill ratio Σ|C(u)| / (nq·|V(G)|) for kAuto to pick dense on
  /// graphs above the cutoff: below ~1.6% the stamped cells are too sparse
  /// to amortize the scattered writes, and binary search's log factor on
  /// the hot membership check is cheaper than the setup. Chosen from
  /// bench_enum_setup sweeps in this container (see docs/BENCHMARKS.md).
  static constexpr double kDenseMinFill = 1.0 / 64.0;
  /// Hard cap on the stamp-array footprint; kAuto never allocates more.
  static constexpr size_t kMaxStampBytes = size_t{1} << 28;  // 256 MiB

  EnumeratorWorkspace() = default;
  EnumeratorWorkspace(const EnumeratorWorkspace&) = delete;
  EnumeratorWorkspace& operator=(const EnumeratorWorkspace&) = delete;
  EnumeratorWorkspace(EnumeratorWorkspace&&) = default;
  EnumeratorWorkspace& operator=(EnumeratorWorkspace&&) = default;

  /// Readies the workspace for one enumeration of (query, data, candidates,
  /// order): bumps the epoch, rebuilds the backward-neighbor lists for
  /// `order`, resets the mapping, picks the membership mode and (dense path)
  /// stamps the candidate cells. Validates that every candidate vertex is in
  /// range for `data`. `order` must be a permutation of V(q) (checked by
  /// Enumerator::Run).
  Status Prepare(const Graph& query, const Graph& data,
                 const CandidateSet& candidates,
                 const std::vector<VertexId>& order);

  /// \name Hot-path accessors used by the enumeration recursion.
  /// Valid between a Prepare() and the next Prepare().
  /// @{
  bool dense() const { return dense_; }

  bool InCandidates(const CandidateSet& candidates, VertexId u,
                    VertexId v) const {
    return dense_ ? cand_stamp_[static_cast<size_t>(u) * nv_ + v] == epoch_
                  : candidates.Contains(u, v);
  }

  bool Visited(VertexId v) const { return visited_stamp_[v] == epoch_; }
  void MarkVisited(VertexId v) { visited_stamp_[v] = epoch_; }
  void UnmarkVisited(VertexId v) { visited_stamp_[v] = 0; }

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

  /// Scratch for gathering the backward neighbors' label slices before
  /// intersecting. Shared across depths — safe because every Extend consumes
  /// it (materializes the intersection into its depth's LocalBuffers) before
  /// recursing deeper.
  std::vector<std::span<const VertexId>>& slice_scratch() {
    return slice_scratch_;
  }
  /// @}

  void set_mode(MembershipMode mode) { mode_ = mode; }
  MembershipMode mode() const { return mode_; }
  const Stats& stats() const { return stats_; }

  /// \name Parallel-run prepare dedupe (used by Enumerator::RunParallel).
  /// A parallel run prepares each per-worker workspace at most once: after
  /// a successful Prepare the run stamps its unique token here, and later
  /// worker-loop tasks of the same run landing on the same worker skip the
  /// re-Prepare while the token still matches. Prepare() always resets the
  /// token to 0, so any interleaved use for another query (e.g. a batch
  /// worker serving a different query between two loop tasks) invalidates
  /// the stamp and forces a fresh Prepare. Tokens are process-unique per
  /// run, never reused.
  /// @{
  uint64_t parallel_run_token() const { return parallel_run_token_; }
  void set_parallel_run_token(uint64_t token) { parallel_run_token_ = token; }
  /// @}

 private:
  MembershipMode mode_ = MembershipMode::kAuto;

  // Stamps equal to epoch_ mean "member"/"visited"; anything else (older
  // epochs, or 0 from the wrap-around clear and from unmarking) means "no".
  std::vector<uint8_t> cand_stamp_;     // row-major nq x |V(G)| when dense
  MemoryCharge stamp_charge_;           // budget charge for cand_stamp_
  std::vector<uint8_t> visited_stamp_;  // |V(G)|
  std::vector<VertexId> mapping_;
  std::vector<std::vector<BackwardConstraint>> backward_;
  std::vector<std::pair<EdgeDir, EdgeLabel>> edge_scratch_;  // backward build
  std::vector<LocalBuffers> local_;  // one pair per recursion depth
  std::vector<std::span<const VertexId>> slice_scratch_;
  std::vector<uint8_t> placed_;  // scratch for the backward build

  size_t nv_ = 0;      // stamp-row stride for the current query
  uint8_t epoch_ = 0;  // 1..255 once prepared; 0 marks "never stamped"
  bool dense_ = false;
  uint64_t parallel_run_token_ = 0;  // see parallel_run_token()
  Stats stats_;
};

}  // namespace rlqvo
