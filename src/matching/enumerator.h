#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "matching/candidate_set.h"
#include "matching/enum_workspace.h"

namespace rlqvo {

class ThreadPool;

/// \brief Controls for the enumeration procedure.
struct EnumerateOptions {
  /// Stop after this many embeddings. The paper caps evaluation at 1e5
  /// matches (Sec IV-A). 0 means unlimited ("ALL" in Fig 11) — the run
  /// exhausts the search space and EnumerateResult::hit_match_limit stays
  /// false. A finite limit is exact: emission claims slots from a global
  /// EnumBudget, so num_matches == min(available, match_limit) in both the
  /// serial and the parallel path, never limit+1 and never
  /// limit-per-segment.
  uint64_t match_limit = 100000;
  /// Time limit in seconds; 0 = unlimited. Enumerator::Run bounds the
  /// enumeration (including its per-query workspace setup) with this;
  /// SubgraphMatcher and QueryEngine treat it as the whole-pipeline
  /// per-query budget (the paper's 500 s, Sec IV-A) and pass enumeration a
  /// deadline carrying whatever remains after filtering and ordering.
  /// Expiry is re-checked every ~16k units of charged work (recursive
  /// calls, intersection comparisons, local-candidate scans), so overshoot
  /// is bounded by one work quantum plus one slice intersection or one
  /// last-position count — O(s log L) for s label mates of the last vertex
  /// and a list of L candidates — not by how many recursive calls the
  /// slices amortize. A parallel run adds the time its other workers take
  /// to reach their next poll and the merge (docs/BENCHMARKS.md, "Deadline
  /// overshoot: measured").
  double time_limit_seconds = 0.0;
  /// Keep the embeddings in EnumerateResult::embeddings. When false, only
  /// counts are tracked, and the last order position is counted instead of
  /// descended: its unvisited candidates, counted as the list's length
  /// minus the mapped label mates found in it, are claimed from the match
  /// budget in one batch. #enum, the match count and the work units read as
  /// if each of them had been descended.
  bool store_embeddings = false;
  /// Intra-query enumeration parallelism. 0 (default) runs the classic
  /// serial recursion. N >= 1 runs the work-stealing scheduler: the search
  /// tree is seeded as up to N frontier segments over C(order[0]) and N
  /// worker loops are fanned across a ThreadPool; a worker that drains its
  /// own deque steals the shallowest segment available, and a worker deep
  /// in a heavy subtree lazily splits its remaining sibling range into a
  /// stealable segment when idle workers are observed. match_limit and
  /// time_limit_seconds stay *global* across segments via a shared
  /// EnumBudget. See Enumerator::RunParallel for the determinism contract.
  /// Enumerator::RunParallel and QueryEngine (which owns the pool) honor
  /// this field; Enumerator::Run ignores it, and SubgraphMatcher, the
  /// serial reference pipeline, rejects a non-zero value. RunParallel
  /// rejects values above kMaxParallelThreads with InvalidArgument before
  /// it allocates anything, since it sizes one deque per worker.
  uint32_t parallel_threads = 0;
  static constexpr uint32_t kMaxParallelThreads = 256;
};

/// \brief The work and scheduler counters of an enumeration: #enum and the
/// counters that travel with it from Enumerator through MatchRunStats to
/// BatchResult and the bench JSON. Every field is a uint64_t, and
/// ForEachField is the only list of them besides the declarations below:
/// Merge, the bench metric keys and the tests all go through it, so adding a
/// counter takes its declaration and one ForEachField line.
struct EnumWorkCounters {
  /// How Merge folds a field across runs.
  enum class Rule {
    kSum,
    kMax,
    /// The minimum over non-zero values: a run that did no work cannot
    /// mask the spread of the runs that did.
    kMinNonZero,
  };

  /// Number of embeddings found (capped by match_limit).
  uint64_t num_matches = 0;
  /// #enum (Definition II.6): recursive calls of the enumeration procedure.
  uint64_t num_enumerations = 0;

  /// \name Intersection-core work counters.
  /// The local-candidate computation intersects label-restricted adjacency
  /// slices; these track how much of that work a run performed, so perf
  /// trajectories can follow work done rather than just wall time. In a
  /// parallel run they are summed across all frontier segments.
  /// @{
  /// Pairwise sorted-set intersections executed (an Extend with k >= 2
  /// mapped backward neighbors performs k-1; k == 1 performs none — the
  /// slice is used directly).
  uint64_t num_intersections = 0;
  /// Element comparisons spent inside the merge/gallop intersection loops.
  uint64_t num_probe_comparisons = 0;
  /// Sum of local-candidate set sizes (slice or intersection output, before
  /// the visited/candidate-membership test). Divide by
  /// local_candidate_sets for the average.
  uint64_t local_candidates_total = 0;
  /// Number of local-candidate sets computed (Extend calls with at least
  /// one mapped backward neighbor).
  uint64_t local_candidate_sets = 0;
  /// Of num_intersections, how many a SIMD kernel served (shuffle merge or
  /// SIMD-probe gallop — see IntersectDispatch). Embeddings and the shape
  /// counters above are bit-identical whatever kernel serves; only
  /// num_probe_comparisons is kernel-specific (each kernel charges the work
  /// it actually performed, deterministically for a given input).
  uint64_t num_simd_intersections = 0;
  /// @}

  /// \name Work-stealing scheduler diagnostics (parallel runs only).
  /// Unlike the work counters above, these describe the *schedule*, not the
  /// search: they vary with thread count, timing and steal order, and are
  /// deliberately excluded from the bit-identity contract. Serial runs
  /// report zero steals/splits/max_segment_depth and min == max == the
  /// run's own work-unit total.
  /// @{
  /// Cross-deque segment steals (a drained worker taking another worker's
  /// queued segment). Zero means static seeding alone balanced the load.
  uint64_t num_steals = 0;
  /// Lazy splits performed (an owner shedding the tail half of a live
  /// sibling range into a stealable segment). Counts runtime splits only,
  /// not the initial root seeding.
  uint64_t num_splits = 0;
  /// Deepest order position any executed segment resumed at (0 = all work
  /// stayed in root-level segments).
  uint64_t max_segment_depth = 0;
  /// Minimum / maximum per-worker charged work units across the workers
  /// that participated in the run — the load-balance spread the scheduler
  /// achieved (equal values = perfectly even).
  uint64_t min_worker_work = 0;
  uint64_t max_worker_work = 0;
  /// @}

  /// Calls fn(name, member, rule) once per field, in declaration order.
  template <typename Fn>
  static void ForEachField(Fn&& fn) {
    using C = EnumWorkCounters;
    fn("num_matches", &C::num_matches, Rule::kSum);
    fn("num_enumerations", &C::num_enumerations, Rule::kSum);
    fn("num_intersections", &C::num_intersections, Rule::kSum);
    fn("num_probe_comparisons", &C::num_probe_comparisons, Rule::kSum);
    fn("local_candidates_total", &C::local_candidates_total, Rule::kSum);
    fn("local_candidate_sets", &C::local_candidate_sets, Rule::kSum);
    fn("num_simd_intersections", &C::num_simd_intersections, Rule::kSum);
    fn("num_steals", &C::num_steals, Rule::kSum);
    fn("num_splits", &C::num_splits, Rule::kSum);
    fn("max_segment_depth", &C::max_segment_depth, Rule::kMax);
    fn("min_worker_work", &C::min_worker_work, Rule::kMinNonZero);
    fn("max_worker_work", &C::max_worker_work, Rule::kMax);
  }

  /// Folds `other` into this value, field by field, by each field's Rule.
  void Merge(const EnumWorkCounters& other);
};

/// \brief Outcome of one enumeration run: its EnumWorkCounters plus how the
/// run ended.
struct EnumerateResult : EnumWorkCounters {
  /// True iff the time limit fired before completion. num_matches and
  /// num_enumerations then hold the partial counts at the cutoff.
  bool timed_out = false;
  /// True iff the match limit fired (num_matches == match_limit).
  bool hit_match_limit = false;
  /// Wall-clock seconds spent enumerating (including per-query workspace
  /// setup).
  double enum_time_seconds = 0.0;
  /// Always 0: no IntersectPath is bitmap-based. Kept only because
  /// perfbench/perfbench.cc reads it; remove it together with that read.
  uint64_t num_bitmap_intersections = 0;

  /// Embeddings as query-vertex-indexed data-vertex vectors, if requested.
  std::vector<std::vector<VertexId>> embeddings;
};

/// \brief Execution resources for Enumerator::RunParallel (and for
/// RunOrderedEnumeration, which always enumerates through it).
///
/// The pool is shared infrastructure: QueryEngine hands every query the
/// engine-wide pool (so idle batch workers pick up a straggler query's
/// worker-loop tasks and keep donating — stealing segments — until the run
/// drains), while SubgraphMatcher passes no pool and only its own reusable
/// caller_workspace, so its runs take the serial fallback. Worker loops
/// pick their scratch workspace by the executing thread:
/// `(*worker_workspaces)[ThreadPool::CurrentWorkerIndex()]` on pool workers
/// and `caller_workspace` on the coordinating external thread (which donates
/// itself as one of the loops while it waits). Each workspace is touched by
/// at most one running task at a time — pool workers execute one task at a
/// time and the coordinator only runs loops between, never during, its own
/// workspace use.
struct ParallelEnumResources {
  /// Executor for worker-loop subtasks. nullptr degrades RunParallel to Run.
  ThreadPool* pool = nullptr;
  /// One workspace per pool worker (size >= pool->size()); may be nullptr,
  /// in which case loops on pool workers fall back to throwaway
  /// workspaces.
  std::vector<EnumeratorWorkspace>* worker_workspaces = nullptr;
  /// Workspace for the loop the calling thread runs while help-waiting;
  /// also the serial-fallback workspace. May be nullptr (throwaway).
  EnumeratorWorkspace* caller_workspace = nullptr;
};

/// \brief Phase-3 engine: the recursive backtracking enumeration of
/// Algorithm 2 (QuickSI-style, shared by Hybrid and RL-QVO).
///
/// For each query vertex u, in the given matching order, the local candidate
/// set is the adaptive sorted-set intersection (see intersect.h) of the
/// label-restricted adjacency slices NeighborsWithLabel(M(ub), label(u)) of
/// all already-mapped backward neighbors ub, intersected smallest-first into
/// per-depth workspace buffers and finished with the visited test, plus the
/// candidate-membership test above the last position. With one backward
/// neighbor the slice is iterated directly — no per-candidate adjacency
/// probes in either case. Each slice lookup is memoized per backward
/// constraint in the workspace, so an anchor mapped several levels up is
/// looked up once. A query vertex with no mapped backward neighbor (the
/// first vertex, or a component break in a disconnected query/order)
/// iterates its full candidate list instead, so any permutation of V(q) is
/// a legal order — connected orders are merely faster.
class Enumerator {
 public:
  /// Runs the enumeration with a throwaway workspace. `order` must be a
  /// permutation of V(q); `candidates` must come from a complete filter on
  /// the same (q, G) — in particular every v in C(u) must carry label(u)
  /// (all shipped filters guarantee this; the intersection core reads local
  /// candidates from label(u) adjacency slices, so a label-mismatched
  /// candidate — which could never be part of a genuine match — is not
  /// enumerated at depths with mapped backward neighbors; DCHECK-enforced
  /// in debug builds). The last order position reads only its slices:
  /// every query edge of its vertex is a backward constraint there, so by
  /// completeness each unvisited slice vertex is in C(u), and the position
  /// skips the membership test (a count-only run counts it by subtraction).
  /// Debug builds check that against the candidate set on every run.
  /// Convenience for one-shot callers; hot paths should reuse a workspace
  /// via the overload below.
  Result<EnumerateResult> Run(const Graph& query, const Graph& data,
                              const CandidateSet& candidates,
                              const std::vector<VertexId>& order,
                              const EnumerateOptions& options) const;

  /// Runs the enumeration on a caller-owned, reusable workspace (see
  /// EnumeratorWorkspace for the steady-state cost model). When `deadline`
  /// is non-null it supersedes options.time_limit_seconds, and — because the
  /// caller starts it before Run — per-query setup time counts against the
  /// budget; otherwise a fresh deadline of options.time_limit_seconds starts
  /// at the top of Run (which still covers setup). Always serial; the
  /// options.parallel_threads field is ignored here. Inputs that
  /// ValidateEnumerationInputs (enum_workspace.h) rejects return its
  /// InvalidArgument, here and from RunParallel alike, even under an
  /// expired deadline or with an empty candidate list.
  Result<EnumerateResult> Run(const Graph& query, const Graph& data,
                              const CandidateSet& candidates,
                              const std::vector<VertexId>& order,
                              const EnumerateOptions& options,
                              EnumeratorWorkspace* workspace,
                              const Deadline* deadline = nullptr) const;

  /// Parallel enumeration of one query via work stealing. The search tree
  /// is seeded as up to options.parallel_threads *frontier segments* —
  /// (prefix mapping, depth, remaining candidate sub-range) — partitioning
  /// C(order[0]); one worker loop per requested thread is fanned across
  /// resources.pool. Owners pop their own deque LIFO; a drained worker
  /// steals the shallowest queued segment FIFO from another deque; an owner
  /// deep in a heavy subtree lazily splits the tail half of a live sibling
  /// range into a stealable segment when the shared EnumBudget observes
  /// hungry workers (only above a minimum sub-range width, so tiny ranges
  /// never pay the prefix and candidate copies). Every segment runs against
  /// one shared EnumBudget, so match_limit and the deadline are global
  /// per-query limits — exactly the serial semantics, just executed
  /// elastically. The calling thread donates itself as one of the loops
  /// while waiting (TryRunOneTask), so nested fan-out from a pool worker
  /// cannot deadlock.
  ///
  /// **Determinism contract.** Every list an order position iterates — a
  /// candidate list, a label slice of the data graph or an intersection of
  /// such slices — is strictly id-ascending, so serial enumeration emits
  /// embeddings in strictly ascending lexicographic order of their images
  /// (M(order[0]), ..., M(order[n-1])). A segment walks ascending
  /// sub-ranges of the same lists, so its embeddings are an ascending
  /// subsequence of the serial sequence, and the coordinator merges the
  /// segments' runs by their images (O(M log S) for M embeddings in S
  /// segments): serial order, however deep the splits were carved. A run
  /// that is not truncated (no limit fired, no deadline expired) is
  /// therefore bit-identical to the serial path: same embeddings in the
  /// same order, and every work counter (num_enumerations,
  /// num_intersections, ...) sums to exactly the serial value, independent
  /// of thread count, steal schedule, split timing and intersection
  /// kernel. (The scheduler diagnostics — num_steals, num_splits,
  /// max_segment_depth, per-worker min/max — are schedule descriptions and
  /// excluded from that contract.) When a finite match_limit fires, the run
  /// still emits *exactly* match_limit matches (the budget claim is atomic
  /// and capped), in ascending image order, but which valid embeddings
  /// fill the quota depends on the schedule — same count, possibly
  /// different members than serial. Deadline cuts are timing-dependent in
  /// serial mode already; the parallel path keeps that (weaker) semantics
  /// and reports timed_out if any segment was cut.
  ///
  /// Falls back to the serial Run (on resources.caller_workspace) when
  /// resources.pool is null or options.parallel_threads == 0.
  Result<EnumerateResult> RunParallel(const Graph& query, const Graph& data,
                                      const CandidateSet& candidates,
                                      const std::vector<VertexId>& order,
                                      const EnumerateOptions& options,
                                      const ParallelEnumResources& resources,
                                      const Deadline* deadline = nullptr) const;
};

/// \brief Reference matcher: enumerates all embeddings by unconstrained
/// backtracking over label-compatible assignments, with no filtering or
/// ordering optimisations. Exponentially slow; for tests and tiny inputs
/// only.
std::vector<std::vector<VertexId>> BruteForceMatch(const Graph& query,
                                                   const Graph& data,
                                                   uint64_t match_limit = 0);

}  // namespace rlqvo
