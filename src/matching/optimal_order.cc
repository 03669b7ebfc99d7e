#include "matching/optimal_order.h"

namespace rlqvo {

namespace {

/// The recursion behind ForEachConnectedOrder: extends `prefix` by every
/// unused vertex adjacent to a placed one, and runs the enumeration once
/// the prefix covers V(q).
struct ConnectedOrderWalk {
  ConnectedOrderWalk(const Graph& q, const Graph& g, const CandidateSet& c,
                     const EnumerateOptions& opts,
                     const ConnectedOrderVisitor& v)
      : query(q),
        data(g),
        candidates(c),
        options(opts),
        visit(v),
        used(q.num_vertices(), false) {}

  const Graph& query;
  const Graph& data;
  const CandidateSet& candidates;
  const EnumerateOptions& options;
  const ConnectedOrderVisitor& visit;
  Enumerator enumerator;
  EnumeratorWorkspace workspace;  // reused across the factorial Run calls
  std::vector<VertexId> prefix;
  std::vector<bool> used;

  Status Recurse() {
    const uint32_t n = query.num_vertices();
    if (prefix.size() == n) {
      Result<EnumerateResult> run =
          enumerator.Run(query, data, candidates, prefix, options, &workspace);
      RLQVO_RETURN_NOT_OK(run.status());
      visit(prefix, *run);
      return Status::OK();
    }
    for (VertexId u = 0; u < n; ++u) {
      if (used[u] || (!prefix.empty() && !Attached(u))) continue;
      used[u] = true;
      prefix.push_back(u);
      RLQVO_RETURN_NOT_OK(Recurse());
      prefix.pop_back();
      used[u] = false;
    }
    return Status::OK();
  }

  bool Attached(VertexId u) const {
    // neighbors-ok: connectivity check over the symmetric skeleton.
    for (VertexId w : query.neighbors(u)) {
      if (used[w]) return true;
    }
    return false;
  }
};

}  // namespace

Status ForEachConnectedOrder(const Graph& query, const Graph& data,
                             const CandidateSet& candidates,
                             const EnumerateOptions& options,
                             const ConnectedOrderVisitor& visit) {
  return ConnectedOrderWalk(query, data, candidates, options, visit)
      .Recurse();
}

Result<OptimalOrderResult> FindOptimalOrder(const Graph& query,
                                            const Graph& data,
                                            const CandidateSet& candidates,
                                            const EnumerateOptions& options) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("query graph is empty");
  }
  if (query.num_vertices() > 12) {
    return Status::InvalidArgument(
        "optimal-order search is factorial; refusing queries above 12 "
        "vertices");
  }
  OptimalOrderResult best;
  RLQVO_RETURN_NOT_OK(ForEachConnectedOrder(
      query, data, candidates, options,
      [&best](const std::vector<VertexId>& order, const EnumerateResult& run) {
        if (best.orders_evaluated == 0 ||
            run.num_enumerations < best.num_enumerations) {
          best.order = order;
          best.num_enumerations = run.num_enumerations;
        }
        ++best.orders_evaluated;
      }));
  if (best.order.empty()) {
    return Status::NotFound("no connected permutation exists (disconnected query)");
  }
  return best;
}

}  // namespace rlqvo
