#include "matching/matcher.h"

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

Result<MatchRunStats> SubgraphMatcher::Match(const Graph& query,
                                             const Graph& data) const {
  if (config_.enum_options.parallel_threads > 0) {
    return Status::InvalidArgument(
        "SubgraphMatcher is the serial pipeline; parallel_threads = " +
        std::to_string(config_.enum_options.parallel_threads) +
        " needs QueryEngine, which owns the enumeration pool");
  }
  MatchRunStats stats;
  Stopwatch total;

  Stopwatch phase;
  RLQVO_ASSIGN_OR_RETURN(CandidateSet candidates,
                         config_.filter->Filter(query, data));
  stats.filter_time_seconds = phase.ElapsedSeconds();
  stats.candidate_total = candidates.TotalSize();

  phase.Restart();
  OrderingContext ctx;
  ctx.query = &query;
  ctx.data = &data;
  ctx.candidates = &candidates;
  RLQVO_ASSIGN_OR_RETURN(std::vector<VertexId> order,
                         config_.ordering->MakeOrder(ctx));
  stats.order_time_seconds = phase.ElapsedSeconds();

  ParallelEnumResources resources;
  resources.caller_workspace = &workspace_;
  return RunOrderedEnumeration(query, data, candidates, order,
                               config_.enum_options, std::move(stats), total,
                               resources);
}

Result<MatchRunStats> RunOrderedEnumeration(
    const Graph& query, const Graph& data, const CandidateSet& candidates,
    const std::vector<VertexId>& order, const EnumerateOptions& options,
    MatchRunStats stats, const Stopwatch& total,
    const ParallelEnumResources& resources) {
  stats.order = order;

  // The enumeration budget is whatever remains of the query's time limit.
  // The deadline starts ticking here — before the enumerator's per-query
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

  Enumerator enumerator;  // stateless: all scratch lives in the workspaces
  RLQVO_ASSIGN_OR_RETURN(
      EnumerateResult enum_result,
      enumerator.RunParallel(query, data, candidates, order, enum_options,
                             resources, &deadline));
  static_cast<EnumWorkCounters&>(stats) = enum_result;
  stats.enum_time_seconds = enum_result.enum_time_seconds;
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
