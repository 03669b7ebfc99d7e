#include "matching/ordering.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

#include "graph/graph_algorithms.h"

namespace rlqvo {

namespace {

Status ValidateQuery(const OrderingContext& ctx) {
  if (ctx.query == nullptr) {
    return Status::InvalidArgument("ordering context missing query graph");
  }
  if (ctx.query->num_vertices() == 0) {
    return Status::InvalidArgument("query graph is empty");
  }
  if (!IsConnected(*ctx.query)) {
    return Status::InvalidArgument(
        "query graph must be connected to admit a connected matching order");
  }
  return Status::OK();
}

Status RequireData(const OrderingContext& ctx, const char* who) {
  if (ctx.data == nullptr) {
    return Status::InvalidArgument(std::string(who) +
                                   " ordering requires the data graph");
  }
  return Status::OK();
}

Status RequireCandidates(const OrderingContext& ctx, const char* who) {
  if (ctx.candidates == nullptr) {
    return Status::InvalidArgument(std::string(who) +
                                   " ordering requires candidate sets");
  }
  if (ctx.candidates->num_query_vertices() != ctx.query->num_vertices()) {
    return Status::InvalidArgument(
        "candidate set size does not match the query");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint32_t> ComputeNecClasses(const Graph& query) {
  const uint32_t n = query.num_vertices();
  std::vector<uint32_t> cls(n);
  std::iota(cls.begin(), cls.end(), 0);
  // Group degree-one vertices by (label, unique neighbor).
  std::vector<std::pair<uint64_t, VertexId>> keyed;
  for (VertexId u = 0; u < n; ++u) {
    if (query.degree(u) == 1) {
      // neighbors-ok: ordering heuristic over the symmetric skeleton.
      const VertexId nbr = query.neighbors(u)[0];
      const uint64_t key =
          (static_cast<uint64_t>(query.label(u)) << 32) | nbr;
      keyed.emplace_back(key, u);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 1; i < keyed.size(); ++i) {
    if (keyed[i].first == keyed[i - 1].first) {
      cls[keyed[i].second] = cls[keyed[i - 1].second];
    }
  }
  return cls;
}

OrderPrefix::OrderPrefix(const Graph& query)
    : query_(&query),
      ordered_(query.num_vertices(), false),
      backward_(query.num_vertices(), 0) {
  order_.reserve(query.num_vertices());
}

void OrderPrefix::Push(VertexId u) {
  RLQVO_DCHECK(!ordered_[u]);
  order_.push_back(u);
  ordered_[u] = true;
  // neighbors-ok: connectivity over the symmetric skeleton.
  for (VertexId w : query_->neighbors(u)) ++backward_[w];
}

void OrderPrefix::Pop() {
  const VertexId u = order_.back();
  order_.pop_back();
  ordered_[u] = false;
  // neighbors-ok: connectivity over the symmetric skeleton.
  for (VertexId w : query_->neighbors(u)) --backward_[w];
}

void OrderPrefix::Clear() {
  order_.clear();
  ordered_.assign(ordered_.size(), false);
  backward_.assign(backward_.size(), 0);
}

Result<std::vector<VertexId>> RIOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  const Graph& q = *ctx.query;
  const uint32_t n = q.num_vertices();

  // Start: maximum degree.
  VertexId start = 0;
  for (VertexId u = 1; u < n; ++u) {
    if (q.degree(u) > q.degree(start)) start = u;
  }
  OrderPrefix prefix(q);
  prefix.Push(start);
  // Most backward neighbors first, then the largest |u_neig|, then the
  // largest |u_unv|.
  GreedyOrder(&prefix, [&](VertexId u) {
    // |u_neig|: ordered vertices u' with an unordered neighbor u'' that is
    // also adjacent to u.
    int neig = 0;
    for (VertexId up : prefix.order()) {
      // neighbors-ok: ordering heuristic over the symmetric skeleton.
      for (VertexId upp : q.neighbors(up)) {
        if (!prefix.IsOrdered(upp) && upp != u && q.HasEdge(u, upp)) {
          ++neig;
          break;
        }
      }
    }
    // |u_unv|: neighbors of u that are unordered and not adjacent to any
    // ordered vertex.
    int unv = 0;
    // neighbors-ok: ordering heuristic over the symmetric skeleton.
    for (VertexId w : q.neighbors(u)) {
      unv += !prefix.IsOrdered(w) && prefix.backward(w) == 0;
    }
    return std::make_tuple(-static_cast<int>(prefix.backward(u)), -neig,
                           -unv);
  });
  return prefix.order();
}

Result<std::vector<VertexId>> QSIOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  RLQVO_RETURN_NOT_OK(RequireData(ctx, "QSI"));
  const Graph& q = *ctx.query;
  const Graph& g = *ctx.data;
  const uint32_t n = q.num_vertices();
  if (n == 1) return std::vector<VertexId>{0};

  // Edge weights: frequency of the endpoint-label pair among data edges.
  auto edge_weight = [&](VertexId a, VertexId b) {
    return g.EdgeLabelFrequency(q.label(a), q.label(b));
  };

  // Seed with the globally cheapest edge; tie-break on rarer endpoint label.
  VertexId seed_a = kInvalidVertex, seed_b = kInvalidVertex;
  uint64_t seed_w = std::numeric_limits<uint64_t>::max();
  for (VertexId a = 0; a < n; ++a) {
    // neighbors-ok: ordering heuristic over the symmetric skeleton.
    for (VertexId b : q.neighbors(a)) {
      if (a >= b) continue;
      const uint64_t w = edge_weight(a, b);
      if (w < seed_w) {
        seed_w = w;
        seed_a = a;
        seed_b = b;
      }
    }
  }
  // Put the endpoint with the rarer data label first.
  if (g.LabelFrequency(q.label(seed_b)) < g.LabelFrequency(q.label(seed_a))) {
    std::swap(seed_a, seed_b);
  }

  OrderPrefix prefix(q);
  prefix.Push(seed_a);
  prefix.Push(seed_b);
  // Prim-style growth over the infrequent-edge weights: the cheapest edge
  // from u into φ_t.
  GreedyOrder(&prefix, [&](VertexId u) {
    uint64_t cheapest = std::numeric_limits<uint64_t>::max();
    // neighbors-ok: ordering heuristic over the symmetric skeleton.
    for (VertexId w : q.neighbors(u)) {
      if (prefix.IsOrdered(w)) cheapest = std::min(cheapest, edge_weight(u, w));
    }
    return cheapest;
  });
  return prefix.order();
}

Result<std::vector<VertexId>> VF2PPOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  RLQVO_RETURN_NOT_OK(RequireData(ctx, "VF2++"));
  const Graph& q = *ctx.query;
  const Graph& g = *ctx.data;
  const uint32_t n = q.num_vertices();

  // Root: rarest data label, ties by larger degree.
  VertexId root = 0;
  for (VertexId u = 1; u < n; ++u) {
    const uint32_t fu = g.LabelFrequency(q.label(u));
    const uint32_t fr = g.LabelFrequency(q.label(root));
    if (fu < fr || (fu == fr && q.degree(u) > q.degree(root))) root = u;
  }

  // BFS levels; sort each level by (ascending label frequency, descending
  // degree, ascending id).
  std::vector<int> level(n, -1);
  std::vector<std::vector<VertexId>> levels;
  level[root] = 0;
  levels.push_back({root});
  for (size_t li = 0; li < levels.size(); ++li) {
    std::vector<VertexId> next;
    for (VertexId u : levels[li]) {
      // neighbors-ok: ordering heuristic over the symmetric skeleton.
      for (VertexId w : q.neighbors(u)) {
        if (level[w] < 0) {
          level[w] = static_cast<int>(li) + 1;
          next.push_back(w);
        }
      }
    }
    if (!next.empty()) levels.push_back(std::move(next));
  }
  std::vector<uint32_t> rank(n);
  uint32_t next_rank = 0;
  for (auto& lvl : levels) {
    std::sort(lvl.begin(), lvl.end(), [&](VertexId a, VertexId b) {
      const uint32_t fa = g.LabelFrequency(q.label(a));
      const uint32_t fb = g.LabelFrequency(q.label(b));
      if (fa != fb) return fa < fb;
      if (q.degree(a) != q.degree(b)) return q.degree(a) > q.degree(b);
      return a < b;
    });
    for (VertexId u : lvl) rank[u] = next_rank++;
  }
  // The level order is connected only level by level as a whole, so each
  // step takes the connected vertex that comes first in it.
  OrderPrefix prefix(q);
  prefix.Push(root);
  GreedyOrder(&prefix, [&](VertexId u) { return rank[u]; });
  return prefix.order();
}

Result<std::vector<VertexId>> GQLOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  RLQVO_RETURN_NOT_OK(RequireCandidates(ctx, "GQL"));
  const Graph& q = *ctx.query;
  const CandidateSet& cs = *ctx.candidates;

  // From the empty prefix, where every vertex is selectable, the first
  // pick is the smallest candidate set overall.
  OrderPrefix prefix(q);
  GreedyOrder(&prefix, [&](VertexId u) { return cs.candidates(u).size(); });
  return prefix.order();
}

Result<std::vector<VertexId>> VEQOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  RLQVO_RETURN_NOT_OK(RequireCandidates(ctx, "VEQ"));
  const Graph& q = *ctx.query;
  const CandidateSet& cs = *ctx.candidates;
  const uint32_t n = q.num_vertices();

  const std::vector<uint32_t> nec = ComputeNecClasses(q);
  std::vector<uint32_t> nec_size(n, 0);
  for (VertexId u = 0; u < n; ++u) ++nec_size[nec[u]];
  auto score = [&](VertexId u) {
    // Candidate size shrunk by the size of u's equivalence class: large NEC
    // classes are interchangeable and cheap, so they rank as if their
    // candidates were shared across the class.
    return static_cast<double>(cs.candidates(u).size()) /
           static_cast<double>(nec_size[nec[u]]);
  };

  // Degree-one NEC leaves are postponed throughout — VEQ enumerates them
  // last, where dynamic equivalence prunes their subtrees.
  auto penalized_score = [&](VertexId u) {
    return score(u) + (q.degree(u) == 1 ? 1e6 : 0.0);
  };
  VertexId start = 0;
  for (VertexId u = 1; u < n; ++u) {
    // Prefer non-leaf starts; VEQ roots its DAG at a rare, well-connected
    // vertex.
    const bool u_better =
        std::make_pair(penalized_score(u), -static_cast<double>(q.degree(u))) <
        std::make_pair(penalized_score(start),
                       -static_cast<double>(q.degree(start)));
    if (u_better) start = u;
  }
  OrderPrefix prefix(q);
  prefix.Push(start);
  GreedyOrder(&prefix, penalized_score);
  return prefix.order();
}

Result<std::vector<VertexId>> CFLOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  RLQVO_RETURN_NOT_OK(RequireCandidates(ctx, "CFL"));
  const Graph& q = *ctx.query;
  const CandidateSet& cs = *ctx.candidates;

  const std::vector<uint32_t> core = CoreNumbers(q);
  // Stratum per vertex: 0 = core (2-core), 1 = forest (internal tree
  // vertices), 2 = leaves. A tree-shaped query has an empty core; its
  // highest-core vertices then play the core role.
  uint32_t max_core = 0;
  for (uint32_t c : core) max_core = std::max(max_core, c);
  auto stratum = [&](VertexId u) -> int {
    if (max_core >= 2 && core[u] >= 2) return 0;
    if (q.degree(u) > 1) return 1;
    return 2;
  };
  // The smallest candidate set within the best present stratum, for the
  // start (from the empty prefix) and for every later step.
  OrderPrefix prefix(q);
  GreedyOrder(&prefix, [&](VertexId u) {
    return std::make_pair(stratum(u), cs.candidates(u).size());
  });
  return prefix.order();
}

Result<std::vector<VertexId>> RandomOrdering::MakeOrder(
    const OrderingContext& ctx) {
  RLQVO_RETURN_NOT_OK(ValidateQuery(ctx));
  const Graph& q = *ctx.query;
  const uint32_t n = q.num_vertices();
  Rng local_rng(12345);
  Rng* rng = ctx.rng ? ctx.rng : &local_rng;

  OrderPrefix prefix(q);
  std::vector<VertexId> frontier;
  while (!prefix.full()) {
    frontier.clear();
    for (VertexId u = 0; u < n; ++u) {
      if (prefix.Selectable(u)) frontier.push_back(u);
    }
    prefix.Push(rng->Choice(frontier));
  }
  return prefix.order();
}

Result<std::shared_ptr<Ordering>> MakeOrdering(const std::string& name) {
  if (name == "RI") return std::shared_ptr<Ordering>(new RIOrdering());
  if (name == "QSI") return std::shared_ptr<Ordering>(new QSIOrdering());
  if (name == "VF2PP") return std::shared_ptr<Ordering>(new VF2PPOrdering());
  if (name == "GQL") return std::shared_ptr<Ordering>(new GQLOrdering());
  if (name == "VEQ") return std::shared_ptr<Ordering>(new VEQOrdering());
  if (name == "CFL") return std::shared_ptr<Ordering>(new CFLOrdering());
  if (name == "Random") return std::shared_ptr<Ordering>(new RandomOrdering());
  return Status::NotFound("unknown ordering '" + name + "'");
}

}  // namespace rlqvo
