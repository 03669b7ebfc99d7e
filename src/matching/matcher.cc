#include "matching/matcher.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace rlqvo {

SubgraphMatcher::SubgraphMatcher(MatcherConfig config)
    : config_(std::move(config)) {
  RLQVO_CHECK(config_.filter != nullptr);
  RLQVO_CHECK(config_.ordering != nullptr);
  if (config_.name.empty()) {
    config_.name = config_.filter->name() + "+" + config_.ordering->name();
  }
}

SubgraphMatcher::~SubgraphMatcher() = default;

Result<MatchRunStats> SubgraphMatcher::Match(const Graph& query,
                                             const Graph& data) const {
  MatchRunStats stats;
  Stopwatch total;

  Stopwatch phase;
  RLQVO_ASSIGN_OR_RETURN(CandidateSet candidates,
                         config_.filter->Filter(query, data));
  stats.filter_time_seconds = phase.ElapsedSeconds();
  stats.candidate_total = candidates.TotalSize();

  // Intra-query parallelism: a private pool of parallel_threads workers,
  // created on first use and rebuilt if the knob changes. The pool (and
  // its per-worker workspaces) outlives the call, so steady-state parallel
  // matching pays no per-query thread spawn.
  ParallelEnumResources resources;
  const uint32_t threads = config_.enum_options.parallel_threads;
  if (threads > 0) {
    if (enum_pool_ == nullptr || enum_pool_->size() != threads) {
      enum_pool_ = std::make_unique<ThreadPool>(threads);
      enum_worker_workspaces_ =
          std::vector<EnumeratorWorkspace>(enum_pool_->size());
    }
    resources.pool = enum_pool_.get();
    resources.worker_workspaces = &enum_worker_workspaces_;
    resources.caller_workspace = &workspace_;
  }

  return RunOrderedEnumeration(query, data, candidates,
                               config_.ordering.get(), config_.enum_options,
                               std::move(stats), total, &workspace_,
                               threads > 0 ? &resources : nullptr);
}

Result<MatchRunStats> RunOrderedEnumeration(
    const Graph& query, const Graph& data, const CandidateSet& candidates,
    Ordering* ordering, const EnumerateOptions& options, MatchRunStats stats,
    const Stopwatch& total, EnumeratorWorkspace* workspace,
    const ParallelEnumResources* parallel,
    const std::vector<VertexId>* precomputed_order) {
  std::vector<VertexId> order;
  if (precomputed_order != nullptr) {
    // Phase 2 already ran in the caller (QueryEngine's unified ordering
    // pipeline, possibly an order-cache hit); the caller timed it.
    order = *precomputed_order;
  } else {
    Stopwatch phase;
    OrderingContext ctx;
    ctx.query = &query;
    ctx.data = &data;
    ctx.candidates = &candidates;
    RLQVO_ASSIGN_OR_RETURN(order, ordering->MakeOrder(ctx));
    stats.order_time_seconds = phase.ElapsedSeconds();
  }
  stats.order = order;

  // The enumeration budget is whatever remains of the query's time limit.
  // The deadline starts ticking here — before Enumerator::Run's per-query
  // workspace setup — so setup cost counts against the budget.
  EnumerateOptions enum_options = options;
  Deadline deadline = Deadline::Unlimited();
  const double limit = options.time_limit_seconds;
  if (limit > 0.0) {
    const double remaining = limit - total.ElapsedSeconds();
    if (remaining <= 0.0) {
      stats.solved = false;
      stats.total_time_seconds = total.ElapsedSeconds();
      return stats;
    }
    enum_options.time_limit_seconds = remaining;
    deadline = Deadline(remaining);
  }

  EnumeratorWorkspace local_workspace;
  if (workspace == nullptr) workspace = &local_workspace;
  Enumerator enumerator;  // stateless: all scratch lives in the workspace
  Result<EnumerateResult> enum_run =
      (options.parallel_threads > 0 && parallel != nullptr &&
       parallel->pool != nullptr)
          ? [&] {
              ParallelEnumResources resources = *parallel;
              if (resources.caller_workspace == nullptr) {
                resources.caller_workspace = workspace;
              }
              return enumerator.RunParallel(query, data, candidates, order,
                                            enum_options, resources,
                                            &deadline);
            }()
          : enumerator.Run(query, data, candidates, order, enum_options,
                           workspace, &deadline);
  RLQVO_RETURN_NOT_OK(enum_run.status());
  EnumerateResult enum_result = std::move(enum_run).ValueOrDie();
  stats.enum_time_seconds = enum_result.enum_time_seconds;
  stats.num_matches = enum_result.num_matches;
  stats.num_enumerations = enum_result.num_enumerations;
  stats.num_intersections = enum_result.num_intersections;
  stats.num_probe_comparisons = enum_result.num_probe_comparisons;
  stats.local_candidates_total = enum_result.local_candidates_total;
  stats.local_candidate_sets = enum_result.local_candidate_sets;
  stats.num_simd_intersections = enum_result.num_simd_intersections;
  stats.num_steals = enum_result.num_steals;
  stats.num_splits = enum_result.num_splits;
  stats.max_segment_depth = enum_result.max_segment_depth;
  stats.min_worker_work = enum_result.min_worker_work;
  stats.max_worker_work = enum_result.max_worker_work;
  stats.solved = !enum_result.timed_out;
  stats.hit_match_limit = enum_result.hit_match_limit;
  stats.embeddings = std::move(enum_result.embeddings);
  stats.total_time_seconds = total.ElapsedSeconds();
  return stats;
}

Result<std::shared_ptr<SubgraphMatcher>> MakeMatcherByName(
    const std::string& name, const EnumerateOptions& enum_options) {
  MatcherConfig config;
  config.enum_options = enum_options;
  config.name = name;
  if (name == "QSI") {
    config.filter = std::make_shared<LDFFilter>();
    config.ordering = std::make_shared<QSIOrdering>();
  } else if (name == "RI") {
    config.filter = std::make_shared<LDFFilter>();
    config.ordering = std::make_shared<RIOrdering>();
  } else if (name == "VF2PP") {
    config.filter = std::make_shared<LDFFilter>();
    config.ordering = std::make_shared<VF2PPOrdering>();
  } else if (name == "GQL") {
    config.filter = std::make_shared<GQLFilter>();
    config.ordering = std::make_shared<GQLOrdering>();
  } else if (name == "VEQ") {
    config.filter = std::make_shared<DagDpFilter>();
    config.ordering = std::make_shared<VEQOrdering>();
  } else if (name == "Hybrid") {
    config.filter = std::make_shared<GQLFilter>();
    config.ordering = std::make_shared<RIOrdering>();
  } else if (name == "Random") {
    config.filter = std::make_shared<LDFFilter>();
    config.ordering = std::make_shared<RandomOrdering>();
  } else {
    return Status::NotFound("unknown matcher '" + name + "'");
  }
  return std::make_shared<SubgraphMatcher>(std::move(config));
}

const std::vector<std::string>& BaselineMatcherNames() {
  static const std::vector<std::string> names = {"VEQ",   "Hybrid", "RI",
                                                 "QSI",   "VF2PP",  "GQL"};
  return names;
}

}  // namespace rlqvo
