#include "engine/query_engine.h"

#include <utility>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/timer.h"

namespace rlqvo {

QueryEngine::QueryEngine(EngineConfig config, const EngineOptions& options)
    : config_(std::move(config)),
      options_(options),
      // Both caches charge the process memory budget per entry; a denied
      // charge skips the insert (the value is still served), so cache
      // growth degrades before the process OOMs. A candidate set is charged
      // what its lists hold, slack capacity included.
      candidate_cache_(
          options.candidate_cache_capacity, &MemoryBudget::Global(),
          [](const std::shared_ptr<const CandidateSet>& v) -> size_t {
            return v ? v->AllocatedBytes() : 0;
          }),
      order_cache_(
          options.order_cache_capacity, &MemoryBudget::Global(),
          [](const std::shared_ptr<const std::vector<VertexId>>& v) -> size_t {
            return v ? v->size() * sizeof(VertexId) : 0;
          }),
      pool_(options.num_threads) {
  RLQVO_CHECK(config_.data != nullptr);
  RLQVO_CHECK(config_.filter != nullptr);
  RLQVO_CHECK(config_.ordering_factory != nullptr);
  if (config_.name.empty()) config_.name = config_.filter->name();
  // One ordering per worker: orderings may be stateful (RNG, timing, the
  // RL-QVO inference workspace), so sharing one instance across threads
  // would be a data race. A factory failure is recoverable: it poisons the
  // engine and surfaces from MatchBatch rather than aborting here.
  worker_orderings_.reserve(pool_.size());
  for (uint32_t i = 0; i < pool_.size(); ++i) {
    Result<std::shared_ptr<Ordering>> ordering = config_.ordering_factory();
    if (!ordering.ok()) {
      init_status_ = ordering.status();
      return;
    }
    worker_orderings_.push_back(std::move(ordering).ValueOrDie());
  }
  // One enumeration workspace per worker, living next to the per-worker
  // ordering: buffers grow to the workload's high-water mark and are then
  // reused, so steady-state batch serving never reallocates.
  worker_workspaces_ = std::vector<EnumeratorWorkspace>(pool_.size());
}

Result<std::shared_ptr<const std::vector<VertexId>>> QueryEngine::ResolveOrder(
    const Graph& query, uint64_t fingerprint, const CandidateSet& candidates,
    bool skip_cache, Ordering* ordering, MatchRunStats* stats) {
  Stopwatch phase;
  auto compute = [&]() -> Result<std::shared_ptr<const std::vector<VertexId>>> {
    RLQVO_FAILPOINT("engine.order");
    OrderingContext ctx;
    ctx.query = &query;
    ctx.data = config_.data.get();
    ctx.candidates = &candidates;
    RLQVO_ASSIGN_OR_RETURN(std::vector<VertexId> order,
                           ordering->MakeOrder(ctx));
    return std::make_shared<const std::vector<VertexId>>(std::move(order));
  };
  // Stochastic orderings bypass the cache: memoising a sampled order would
  // silently make it deterministic (see Ordering::deterministic).
  const bool bypass = skip_cache || !ordering->deterministic();
  bool computed = false;
  auto result =
      order_cache_.GetOrCompute(fingerprint, bypass, compute, &computed);
  stats->order_time_seconds = phase.ElapsedSeconds();
  stats->order_cache_hit = result.ok() && !computed;
  return result;
}

Result<MatchRunStats> QueryEngine::RunQuery(
    const Graph& query, const EnumerateOptions& enum_options, bool skip_cache,
    Ordering* ordering, EnumeratorWorkspace* workspace) {
  MatchRunStats stats;
  Stopwatch total;

  // The fingerprint pins down the query; the data graph, filter and
  // (deterministic) ordering are fixed per engine, so equal fingerprints
  // imply equal candidate sets and equal matching orders. One hash serves
  // both caches.
  const uint64_t fingerprint = QueryFingerprint(query);

  // Phase 1: candidate filtering, short-circuited by the LRU cache with
  // single-flighted cold misses. A follower of a single-flight miss counts
  // its filter time as the wait for the leader's computation.
  Stopwatch phase;
  auto filter = [&]() -> Result<std::shared_ptr<const CandidateSet>> {
    RLQVO_FAILPOINT("engine.filter");
    RLQVO_ASSIGN_OR_RETURN(CandidateSet fresh,
                           config_.filter->Filter(query, *config_.data));
    return std::make_shared<const CandidateSet>(std::move(fresh));
  };
  RLQVO_ASSIGN_OR_RETURN(
      std::shared_ptr<const CandidateSet> candidates,
      candidate_cache_.GetOrCompute(fingerprint, skip_cache, filter));
  stats.filter_time_seconds = phase.ElapsedSeconds();
  stats.candidate_total = candidates->TotalSize();

  // Phase 2: order resolution through the fingerprint-keyed order cache —
  // repeated query shapes skip ordering (the policy forward passes, for
  // RL-QVO) entirely.
  RLQVO_ASSIGN_OR_RETURN(
      std::shared_ptr<const std::vector<VertexId>> order,
      ResolveOrder(query, fingerprint, *candidates, skip_cache, ordering,
                   &stats));

  // Phase 3 is RunOrderedEnumeration, which SubgraphMatcher::Match also
  // calls (per-worker workspace, deadline budget = whatever the per-query
  // limit has left). Intra-query parallel enumeration
  // (enum_options.parallel_threads > 0) seeds frontier segments into the
  // engine-wide pool's work-stealing scheduler: idle batch workers steal a
  // straggler query's segments (shallowest-first), busy workers split their
  // deepest remaining frontier when the budget reports hungry peers, and
  // this worker help-runs queued tasks while its own segments finish.
  // Segment tasks pick the workspace of whichever pool worker executes
  // them, so they reuse the same per-worker state as whole-query tasks
  // without locking. With parallel_threads == 0 the query enumerates
  // serially on this worker's workspace.
  RLQVO_FAILPOINT("engine.enumerate");
  ParallelEnumResources resources;
  resources.pool = &pool_;
  resources.worker_workspaces = &worker_workspaces_;
  resources.caller_workspace = workspace;
  return RunOrderedEnumeration(query, *config_.data, *candidates, *order,
                               enum_options, std::move(stats), total,
                               resources);
}

Result<BatchResult> QueryEngine::MatchBatch(const std::vector<Graph>& queries,
                                            const BatchOptions& options) {
  if (!init_status_.ok()) return init_status_;
  if (!options.per_query.empty() &&
      options.per_query.size() != queries.size()) {
    return Status::InvalidArgument(
        "BatchOptions.per_query has " +
        std::to_string(options.per_query.size()) + " entries for " +
        std::to_string(queries.size()) + " queries");
  }

  // Batch-level admission: shed instead of queueing unboundedly behind the
  // batch serialisation lock. Checked *before* blocking on batch_mu_ so an
  // overloaded engine answers immediately with a retryable status.
  {
    MutexLock lock(&counters_mu_);
    if (options_.max_pending_batches != 0 &&
        pending_batches_ >= options_.max_pending_batches) {
      ++batches_shed_;
      return Status::ResourceExhausted(
          "engine overloaded: " + std::to_string(pending_batches_) +
          " batches already pending (max_pending_batches=" +
          std::to_string(options_.max_pending_batches) + ")");
    }
    ++pending_batches_;
  }

  // Batches are serialized against each other so the pool and the per-batch
  // cache counters are never shared between two in-flight batches; all
  // parallelism is across the queries *within* a batch.
  MutexLock batch_lock(&batch_mu_);
  const CandidateCache::Counters cache_before = candidate_cache_.counters();
  const OrderCache::Counters order_before = order_cache_.counters();
  Stopwatch wall;

  BatchResult batch;
  batch.per_query.resize(queries.size());
  batch.statuses.assign(queries.size(), Status::OK());
  uint64_t shed = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    // Per-query admission: cap how much of one batch the pool accepts (so
    // an oversized batch degrades to partial service, not starvation), and
    // let chaos shed arbitrary queries through the same door.
    if (options_.max_batch_queries != 0 && i >= options_.max_batch_queries) {
      batch.statuses[i] = Status::ResourceExhausted(
          "query shed: batch exceeds max_batch_queries=" +
          std::to_string(options_.max_batch_queries));
      ++shed;
      continue;
    }
    if (RLQVO_FAILPOINT_FIRED("engine.admit")) {
      batch.statuses[i] = failpoint::InjectedStatus("engine.admit");
      ++shed;
      continue;
    }
    pool_.Submit([this, &queries, &options, &batch, i] {
      // Batch tasks only ever run on pool workers: the queue is unbounded
      // and the one caller-side helper (RunParallel's coordinator) runs
      // only its own run group.
      const int worker = ThreadPool::CurrentWorkerIndex();
      RLQVO_DCHECK_GE(worker, 0);
      Ordering* ordering = worker_orderings_[worker].get();
      EnumeratorWorkspace* workspace = &worker_workspaces_[worker];
      const EnumerateOptions& enum_options = options.per_query.empty()
                                                 ? config_.enum_options
                                                 : options.per_query[i];
      Result<MatchRunStats> result = RunQuery(
          queries[i], enum_options, options.skip_cache, ordering, workspace);
      if (result.ok()) {
        batch.per_query[i] = std::move(result).ValueOrDie();
      } else {
        batch.statuses[i] = result.status();
      }
    });
  }
  pool_.Wait();

  // A failing query is a per-query outcome, not a batch failure: its status
  // is surfaced in batch.statuses[i] and all other results are kept.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!batch.statuses[i].ok()) {
      ++batch.failed;
      continue;
    }
    const MatchRunStats& stats = batch.per_query[i];
    batch.totals.Merge(stats);
    batch.total_order_seconds += stats.order_time_seconds;
    if (!stats.solved) ++batch.unsolved;
  }
  const CandidateCache::Counters cache_after = candidate_cache_.counters();
  const OrderCache::Counters order_after = order_cache_.counters();
  batch.cache_hits = cache_after.hits - cache_before.hits;
  batch.cache_misses = cache_after.misses - cache_before.misses;
  batch.order_cache_hits = order_after.hits - order_before.hits;
  batch.order_cache_misses = order_after.misses - order_before.misses;
  batch.wall_seconds = wall.ElapsedSeconds();

  {
    MutexLock lock(&counters_mu_);
    queries_served_ += queries.size() - shed;
    queries_shed_ += shed;
    ++batches_served_;
    --pending_batches_;
  }
  return batch;
}

Result<MatchRunStats> QueryEngine::Match(const Graph& query) {
  RLQVO_ASSIGN_OR_RETURN(BatchResult batch, MatchBatch({query}));
  RLQVO_RETURN_NOT_OK(batch.statuses[0]);
  return std::move(batch.per_query[0]);
}

EngineCounters QueryEngine::counters() const {
  EngineCounters counters;
  {
    MutexLock lock(&counters_mu_);
    counters.queries_served = queries_served_;
    counters.batches_served = batches_served_;
    counters.queries_shed = queries_shed_;
    counters.batches_shed = batches_shed_;
  }
  counters.cache = candidate_cache_.counters();
  counters.order_cache = order_cache_.counters();
  return counters;
}

Result<std::shared_ptr<QueryEngine>> MakeEngineByName(
    const std::string& name, std::shared_ptr<const Graph> data,
    const EngineOptions& engine_options, const EnumerateOptions& enum_options) {
  if (data == nullptr) {
    return Status::InvalidArgument("MakeEngineByName: data graph is null");
  }
  // Reuse the baseline factory to resolve the filter/ordering pair, then
  // re-create the ordering per worker through MakeOrdering.
  RLQVO_ASSIGN_OR_RETURN(std::shared_ptr<SubgraphMatcher> matcher,
                         MakeMatcherByName(name, enum_options));
  const std::string ordering_name = matcher->config().ordering->name();
  EngineConfig config;
  config.data = std::move(data);
  config.filter = matcher->config().filter;
  config.ordering_factory = [ordering_name] {
    return MakeOrdering(ordering_name);
  };
  config.enum_options = enum_options;
  config.name = name;
  return std::make_shared<QueryEngine>(std::move(config), engine_options);
}

}  // namespace rlqvo
