#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "matching/enumerator.h"

namespace rlqvo {

/// \brief Outcome of the exhaustive optimal-order search (Sec IV-C).
struct OptimalOrderResult {
  std::vector<VertexId> order;
  uint64_t num_enumerations = 0;
  /// How many connected permutations were evaluated.
  uint64_t orders_evaluated = 0;
};

/// Called with each complete connected order and its enumeration result.
using ConnectedOrderVisitor = std::function<void(
    const std::vector<VertexId>& order, const EnumerateResult& result)>;

/// \brief Runs the enumeration under every connected permutation of V(q)
/// (each vertex after the first adjacent to an earlier one), in
/// lexicographic order, and calls `visit` once per order. One workspace
/// serves every run. Returns the first enumeration error, which ends the
/// walk. Factorial cost: callers cap |V(q)|.
Status ForEachConnectedOrder(const Graph& query, const Graph& data,
                             const CandidateSet& candidates,
                             const EnumerateOptions& options,
                             const ConnectedOrderVisitor& visit);

/// \brief Finds the matching order minimising #enum by evaluating every
/// connected permutation of V(q) with the shared enumeration engine — the
/// "Opt" reference of Fig 6. Factorial cost; intended for queries of at most
/// ~9 vertices.
///
/// \param options enumeration controls applied to each candidate order
///        (use a match limit to bound per-order cost, as the paper does).
Result<OptimalOrderResult> FindOptimalOrder(const Graph& query,
                                            const Graph& data,
                                            const CandidateSet& candidates,
                                            const EnumerateOptions& options);

}  // namespace rlqvo
