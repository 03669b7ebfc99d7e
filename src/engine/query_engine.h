#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "engine/candidate_cache.h"
#include "engine/lru_cache.h"
#include "matching/matcher.h"

namespace rlqvo {

/// \brief Sizing knobs for a QueryEngine.
struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency (at least 1).
  uint32_t num_threads = 0;
  /// Max cached candidate sets (LRU, keyed by query fingerprint); 0 disables
  /// the cache.
  size_t candidate_cache_capacity = 256;
  /// Max cached matching orders (LRU, keyed by query fingerprint); 0
  /// disables the order cache. Only deterministic orderings are admitted
  /// (see Ordering::deterministic); repeated query shapes then skip phase 2
  /// entirely.
  size_t order_cache_capacity = 256;
  /// Admission control, per query: the most queries one MatchBatch call may
  /// admit. Queries beyond the cap are *shed* — their statuses[i] is
  /// kResourceExhausted (IsRetryable) and no work runs for them — so one
  /// oversized batch cannot monopolise the pool. 0 = unlimited.
  size_t max_batch_queries = 0;
  /// Admission control, per batch: the most MatchBatch calls allowed in
  /// flight at once (running or queued behind the batch serialisation
  /// lock). A call arriving beyond the cap is shed whole with a
  /// kResourceExhausted batch-level status. 0 = unlimited.
  size_t max_pending_batches = 0;
};

/// \brief What a QueryEngine serves: a shared data graph plus the
/// filter/ordering/matcher configuration applied to every query.
///
/// The filter is shared across workers (filters are stateless and Filter()
/// is const). Orderings may be stateful (RL-QVO keeps an RNG and timing
/// state), so the engine builds one instance *per worker thread* through
/// `ordering_factory`.
struct EngineConfig {
  /// The data graph G every query is matched against. Must be non-null and
  /// outlive the engine.
  std::shared_ptr<const Graph> data;
  /// Phase-1 candidate filter, shared by all workers.
  std::shared_ptr<CandidateFilter> filter;
  /// Builds a fresh phase-2 ordering; invoked once per worker thread.
  std::function<Result<std::shared_ptr<Ordering>>()> ordering_factory;
  /// Default enumeration controls (match limit / per-query deadline /
  /// store_embeddings); overridable per batch and per query.
  EnumerateOptions enum_options;
  /// Display name, e.g. "GQL+RI". Defaults to the filter's name.
  std::string name;
};

/// \brief Per-batch controls for QueryEngine::MatchBatch.
struct BatchOptions {
  /// When non-empty, per-query enumeration controls (deadlines, limits);
  /// must then have exactly one entry per query. When empty, every query
  /// uses the engine's default enum_options.
  std::vector<EnumerateOptions> per_query;
  /// Bypass the candidate cache for this batch (always re-filter).
  bool skip_cache = false;
};

/// \brief Outcome of one MatchBatch call: per-query stats aligned with the
/// input order, plus batch-level aggregates.
struct BatchResult {
  /// stats[i] corresponds to queries[i], regardless of which worker ran it
  /// or in what order workers finished. Only meaningful where statuses[i]
  /// is OK (failed queries leave a default-constructed entry).
  std::vector<MatchRunStats> per_query;
  /// statuses[i] is the pipeline outcome for queries[i]. A failing query
  /// (e.g. malformed input rejected by a phase) does NOT fail the batch:
  /// every other query still completes and reports its stats here.
  std::vector<Status> statuses;
  /// Number of non-OK entries in statuses.
  uint32_t failed = 0;
  /// The EnumWorkCounters of the successful queries, merged once per query
  /// (EnumWorkCounters::Merge): work counters and steals/splits summed,
  /// max_segment_depth and max_worker_work batch maxima, min_worker_work
  /// the minimum over queries that did any enumeration work. The scheduler
  /// fields are schedule-dependent diagnostics, not covered by the
  /// bit-identity contract.
  EnumWorkCounters totals;
  /// Number of queries whose deadline fired before completion.
  uint32_t unsolved = 0;
  /// Candidate-cache hits/misses incurred by this batch.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Order-cache hits/misses incurred by this batch. Both stay zero when
  /// the ordering is stochastic (cache bypassed) or the order cache is
  /// disabled; otherwise hits + misses equals the number of queries that
  /// consulted the cache.
  uint64_t order_cache_hits = 0;
  uint64_t order_cache_misses = 0;
  /// Sum of per-query order_time_seconds (successful queries only) — the
  /// serving-side cost of phase 2, near-zero for order-cache hits.
  double total_order_seconds = 0.0;
  /// Wall-clock seconds for the whole batch (submit to last completion).
  double wall_seconds = 0.0;
};

/// \brief Cumulative engine counters across all batches.
struct EngineCounters {
  uint64_t queries_served = 0;
  uint64_t batches_served = 0;
  /// Load shed by admission control (EngineOptions::max_batch_queries /
  /// max_pending_batches, plus the `engine.admit` failpoint): queries
  /// rejected with kResourceExhausted before any pipeline work ran, and
  /// whole batches rejected at the MatchBatch door.
  uint64_t queries_shed = 0;
  uint64_t batches_shed = 0;
  CandidateCache::Counters cache;
  OrderCache::Counters order_cache;
};

/// \brief Parallel batch query-serving front-end over the three-phase
/// matching pipeline.
///
/// A QueryEngine owns one shared data graph, one matcher configuration, a
/// fixed-size ThreadPool, and two fingerprint-keyed LRU caches — candidate
/// sets (phase 1) and matching orders (phase 2). MatchBatch fans the
/// queries of a batch out across the pool: each worker runs the full
/// filter → order → enumerate pipeline with a per-worker Ordering instance
/// (the enumerator is stateless), consulting the caches first so repeated
/// queries (same fingerprint) skip phase 1 — and, for deterministic
/// orderings, phase 2 — entirely. Both caches single-flight concurrent
/// cold misses on the same fingerprint. The order cache admits only
/// deterministic orderings (Ordering::deterministic); a stochastic factory
/// bypasses it so sampling stays independent per query.
///
/// With enum_options.parallel_threads > 0 (engine default or per-query
/// override) a query additionally parallelizes *within* its enumeration —
/// the engine is the one owner of intra-query parallelism (SubgraphMatcher
/// rejects the option):
/// Enumerator::RunParallel seeds the search tree as frontier segments over
/// the root candidate set and fans one work-stealing worker loop per
/// requested thread into the same engine pool. A worker that drains its
/// own segments steals a queued one from another worker, and a worker deep
/// in a heavy subtree splits its remaining sibling range into a new
/// stealable segment when others go idle. Because the pool is shared,
/// batch workers that run out of whole queries pick up a straggler's
/// worker loops — one heavy query at the tail of a batch no longer pins a
/// single core while the rest of the pool idles. The query's
/// match_limit/deadline stay global across its segments (see EnumBudget).
///
/// With a deterministic ordering_factory — every built-in one:
/// MakeEngineByName's baselines and RLQVOModel::MakeEngine's greedy-argmax
/// RL-QVO — results are identical to running the same configuration
/// through a serial SubgraphMatcher (parallel_threads = 0) query by query,
/// because queries never share mutable state:
/// the data graph and candidate sets are immutable, and each worker has its
/// own ordering. Only timing fields vary run to run. Three caveats forfeit
/// this guarantee: (1) a *stochastic* factory (e.g.
/// RLQVOModel::MakeOrdering(stochastic=true)) — which worker (and thus
/// which RNG stream) serves a query depends on scheduling; (2) a finite
/// time_limit_seconds that actually fires — deadline cuts land at
/// timing-dependent points, and cache hits shift budget into enumeration,
/// so partial counts differ between runs and from a sequential run;
/// (3) intra-query parallelism (parallel_threads > 0) whose finite
/// match_limit actually fires — the run still emits *exactly* match_limit
/// matches, but which embeddings fill the quota depends on the steal and
/// split schedule (untruncated parallel runs remain bit-identical to
/// serial; see Enumerator::RunParallel). On a cache hit the reported
/// filter_time_seconds is the (near-zero) lookup time, which also means
/// cached queries spend more of their deadline budget in enumeration.
class QueryEngine {
 public:
  /// \param config must have data, filter and ordering_factory set (checked
  ///        fatally — those are programming errors). If ordering_factory
  ///        *returns* an error, construction completes but the engine is
  ///        poisoned: every MatchBatch reports that status.
  explicit QueryEngine(EngineConfig config, const EngineOptions& options = {});

  /// Matches every query against the shared data graph, in parallel.
  /// Blocks until the whole batch is done. A batch-level error (poisoned
  /// engine, per_query options size mismatch) fails the call; an individual
  /// failing query does NOT — its status lands in BatchResult::statuses[i]
  /// and every other query still returns results. Per-query deadline expiry
  /// is not even a per-query error — it is reported via
  /// MatchRunStats::solved = false.
  Result<BatchResult> MatchBatch(const std::vector<Graph>& queries,
                                 const BatchOptions& options = {})
      EXCLUDES(batch_mu_, counters_mu_);

  /// Single-query convenience wrapper over MatchBatch; surfaces the query's
  /// per-query status as the call's status.
  Result<MatchRunStats> Match(const Graph& query);

  const std::string& name() const { return config_.name; }
  uint32_t num_threads() const { return pool_.size(); }
  const Graph& data() const { return *config_.data; }
  /// Cumulative counters (batches, queries, cache hits/misses/evictions).
  EngineCounters counters() const EXCLUDES(counters_mu_);
  /// Drops all cached candidate sets and orders (counters are preserved).
  void ClearCache() {
    candidate_cache_.Clear();
    order_cache_.Clear();
  }

 private:
  /// Runs one query through filter (or cache) → order (or cache) →
  /// RunOrderedEnumeration on the calling worker thread, reusing that
  /// worker's enumeration workspace and, for parallel_threads > 0, the
  /// engine pool.
  Result<MatchRunStats> RunQuery(const Graph& query,
                                 const EnumerateOptions& enum_options,
                                 bool skip_cache, Ordering* ordering,
                                 EnumeratorWorkspace* workspace);

  /// Phase 2 of the serving pipeline: resolves the matching order through
  /// the fingerprint-keyed order cache when the ordering is deterministic
  /// (single-flighted), computing via `ordering` otherwise or on a miss.
  /// Sets stats->order_time_seconds and stats->order_cache_hit.
  Result<std::shared_ptr<const std::vector<VertexId>>> ResolveOrder(
      const Graph& query, uint64_t fingerprint,
      const CandidateSet& candidates, bool skip_cache, Ordering* ordering,
      MatchRunStats* stats);

  EngineConfig config_;
  EngineOptions options_;
  CandidateCache candidate_cache_;
  OrderCache order_cache_;
  Status init_status_;  // non-OK iff ordering_factory failed at construction
  // Per-worker state, deliberately lock-free: both vectors are sized once in
  // the constructor (before any task can run) and slot i is only ever
  // touched by the pool worker whose CurrentWorkerIndex() == i — distinct
  // threads never share a slot, so there is nothing to guard. Worker-loop
  // tasks of intra-query parallel runs follow the same rule via
  // PickWorkerWorkspace in enumerator.cc (they index by the executing
  // worker, never the submitting one). See docs/CONCURRENCY.md.
  std::vector<std::shared_ptr<Ordering>> worker_orderings_;
  // One reusable enumeration workspace per ThreadPool worker (indexed like
  // worker_orderings_ by CurrentWorkerIndex), so steady-state batch serving
  // never pays the O(|V(q)|·|V(G)|) per-query setup the seed enumerator had.
  std::vector<EnumeratorWorkspace> worker_workspaces_;

  /// Serializes MatchBatch calls against each other: the pool and the
  /// per-batch cache-counter deltas are never shared between two in-flight
  /// batches. Held for a whole batch, so it must never be acquired from a
  /// pool worker (the batch's own tasks run under it).
  Mutex batch_mu_;
  mutable Mutex counters_mu_;
  uint64_t queries_served_ GUARDED_BY(counters_mu_) = 0;
  uint64_t batches_served_ GUARDED_BY(counters_mu_) = 0;
  uint64_t queries_shed_ GUARDED_BY(counters_mu_) = 0;
  uint64_t batches_shed_ GUARDED_BY(counters_mu_) = 0;
  // Batches running or queued behind batch_mu_ right now; admission
  // compares it against options_.max_pending_batches *before* blocking on
  // batch_mu_, so overload is shed instead of queueing unboundedly.
  uint64_t pending_batches_ GUARDED_BY(counters_mu_) = 0;

  // Declared last so ~QueryEngine joins the workers before any state they
  // touch (orderings, cache, mutexes) is destroyed.
  ThreadPool pool_;
};

/// \brief Builds an engine serving one of the named baseline algorithms of
/// MakeMatcherByName ("QSI", "RI", "VF2PP", "GQL", "VEQ", "Hybrid",
/// "Random") against `data`. RL-QVO engines are built via
/// RLQVOModel::MakeEngine (src/core).
Result<std::shared_ptr<QueryEngine>> MakeEngineByName(
    const std::string& name, std::shared_ptr<const Graph> data,
    const EngineOptions& engine_options = {},
    const EnumerateOptions& enum_options = {});

}  // namespace rlqvo
