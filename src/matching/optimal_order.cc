#include "matching/optimal_order.h"

#include "matching/ordering.h"

namespace rlqvo {

namespace {

/// The recursion behind ForEachConnectedOrder: extends `prefix` by every
/// selectable vertex, and runs the enumeration once the prefix covers V(q).
struct ConnectedOrderWalk {
  ConnectedOrderWalk(const Graph& q, const Graph& g, const CandidateSet& c,
                     const EnumerateOptions& opts,
                     const ConnectedOrderVisitor& v)
      : data(g), candidates(c), options(opts), visit(v), prefix(q) {}

  const Graph& data;
  const CandidateSet& candidates;
  const EnumerateOptions& options;
  const ConnectedOrderVisitor& visit;
  Enumerator enumerator;
  EnumeratorWorkspace workspace;  // reused across the factorial Run calls
  OrderPrefix prefix;

  Status Recurse() {
    if (prefix.full()) {
      Result<EnumerateResult> run =
          enumerator.Run(prefix.query(), data, candidates, prefix.order(),
                         options, &workspace);
      RLQVO_RETURN_NOT_OK(run.status());
      visit(prefix.order(), *run);
      return Status::OK();
    }
    for (VertexId u = 0; u < prefix.num_vertices(); ++u) {
      if (!prefix.Selectable(u)) continue;
      prefix.Push(u);
      RLQVO_RETURN_NOT_OK(Recurse());
      prefix.Pop();
    }
    return Status::OK();
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
