#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"

namespace rlqvo {

/// \brief Configuration of a complete subgraph-matching algorithm: a filter
/// (phase 1), an ordering method (phase 2) and enumeration controls
/// (phase 3) — the generic framework of Algorithm 1.
struct MatcherConfig {
  std::shared_ptr<CandidateFilter> filter;
  std::shared_ptr<Ordering> ordering;
  EnumerateOptions enum_options;
  /// Display name for benchmark tables; defaults to "<filter>+<ordering>".
  std::string name;
};

/// \brief Per-query outcome: the enumeration's EnumWorkCounters plus the
/// phase time breakdown the paper reports (t = t_filter + t_order + t_enum,
/// Sec IV-B).
struct MatchRunStats : EnumWorkCounters {
  double filter_time_seconds = 0.0;
  double order_time_seconds = 0.0;
  double enum_time_seconds = 0.0;
  double total_time_seconds = 0.0;
  /// Query finished within the time limit ("solved", Sec IV-A).
  bool solved = true;
  /// The matching order was served from the engine's order cache (or a
  /// concurrent single-flight leader) instead of being computed by this
  /// query's worker. Always false outside QueryEngine.
  bool order_cache_hit = false;
  /// The match limit fired before the search space was exhausted.
  bool hit_match_limit = false;
  /// Sum of candidate-set sizes after filtering.
  size_t candidate_total = 0;
  /// The matching order phase 2 produced.
  std::vector<VertexId> order;
  /// Present only when EnumerateOptions::store_embeddings was set.
  std::vector<std::vector<VertexId>> embeddings;
};

/// \brief End-to-end subgraph matching: filter, order, enumerate — the
/// serial reference pipeline.
///
/// A matcher owns a lazily-grown EnumeratorWorkspace that is reused across
/// Match calls, so repeated queries pay no per-query O(|V(q)|·|V(G)|)
/// enumeration setup. Like the (possibly stateful) Ordering it holds, a
/// SubgraphMatcher is therefore NOT safe for concurrent Match calls on one
/// instance — use one matcher per thread (QueryEngine does the equivalent
/// with per-worker orderings and workspaces).
///
/// Intra-query parallelism has one owner, QueryEngine, which runs the
/// work-stealing scheduler on its pool: Match rejects
/// enum_options.parallel_threads > 0 with InvalidArgument.
class SubgraphMatcher {
 public:
  /// \param config must have both a filter and an ordering.
  explicit SubgraphMatcher(MatcherConfig config);

  /// Runs Algorithm 1 on (query, data). The configured time limit covers
  /// the whole pipeline: enumeration gets whatever remains after filtering
  /// and ordering. Fails with InvalidArgument when
  /// enum_options.parallel_threads > 0 (use QueryEngine).
  Result<MatchRunStats> Match(const Graph& query, const Graph& data) const;

  const std::string& name() const { return config_.name; }
  const MatcherConfig& config() const { return config_; }
  /// Adjusts enumeration controls (match limit / time limit) in place.
  EnumerateOptions* mutable_enum_options() { return &config_.enum_options; }

 private:
  MatcherConfig config_;
  // Reused scratch state; mutable because Match is logically const (the
  // workspace never affects results, only setup cost). Not guarded by a
  // mutex, on purpose: SubgraphMatcher's contract (class comment) is
  // external synchronization — one matcher per thread, never concurrent
  // Match calls on one instance.
  mutable EnumeratorWorkspace workspace_;
};

/// \brief Phase 3 of Algorithm 1 on an already resolved order: enumeration
/// on whatever remains of the per-query deadline. Used by both
/// SubgraphMatcher::Match and QueryEngine::RunQuery so their deadline and
/// stats semantics cannot drift apart. Always enumerates through
/// Enumerator::RunParallel, which runs serial Run on
/// resources.caller_workspace when resources.pool is null or
/// options.parallel_threads == 0.
///
/// \param stats carries the outcome of phases 1 and 2 (filter and order
///        times, candidate_total) and is completed and returned by this
///        call; `order` is copied into stats.order.
/// \param total the stopwatch started at the beginning of phase 1;
///        options.time_limit_seconds (if any) budgets all three phases
///        against it. The enumeration deadline is started *before* the
///        enumerator's per-query setup, so setup time counts against the
///        budget too.
Result<MatchRunStats> RunOrderedEnumeration(
    const Graph& query, const Graph& data, const CandidateSet& candidates,
    const std::vector<VertexId>& order, const EnumerateOptions& options,
    MatchRunStats stats, const Stopwatch& total,
    const ParallelEnumResources& resources);

/// \brief Builds one of the paper's compared algorithms by name:
///
///   "QSI"    — LDF candidates + infrequent-edge-first order
///   "RI"     — LDF candidates + RI order
///   "VF2PP"  — LDF candidates + infrequent-label-first order
///   "GQL"    — GQL filter + left-deep smallest-candidate order
///   "VEQ"    — DAG-DP filter + candidate-size/NEC order
///   "Hybrid" — GQL filter + RI order (Sun & Luo's recommendation)
///   "Random" — LDF candidates + random connected order
///
/// All share the same enumeration engine, matching the paper's methodology
/// for isolating ordering quality (Sec IV-C). RL-QVO matchers are built via
/// rlqvo::RLQVOModel::MakeMatcher (src/core).
Result<std::shared_ptr<SubgraphMatcher>> MakeMatcherByName(
    const std::string& name, const EnumerateOptions& enum_options = {});

/// \brief The names accepted by MakeMatcherByName, in Fig 3's order.
const std::vector<std::string>& BaselineMatcherNames();

}  // namespace rlqvo
