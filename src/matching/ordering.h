#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "matching/candidate_set.h"

namespace rlqvo {

/// \brief Inputs available to an ordering method (phase 2 of Algorithm 1).
struct OrderingContext {
  const Graph* query = nullptr;
  const Graph* data = nullptr;
  /// Candidate sets from phase 1. May be null for structure-only methods
  /// (RI uses only the query structure); methods that need it return
  /// InvalidArgument when absent.
  const CandidateSet* candidates = nullptr;
  /// RNG for stochastic methods / randomized tie-breaking; may be null, in
  /// which case ties break deterministically by vertex id.
  Rng* rng = nullptr;
};

/// \brief The ordered prefix φ_t of a matching order: the state of the
/// paper's ordering MDP (Sec III-C), shared by every built-in ordering, the
/// RL environment and the exhaustive order walk. Push and Pop keep each
/// query vertex's backward count |N(u) ∩ φ_t| up to date over the query's
/// skeleton, so the connected frontier N(φ_t) — the MDP's action space — is
/// an O(1) test per vertex.
class OrderPrefix {
 public:
  /// \param query must outlive the prefix.
  explicit OrderPrefix(const Graph& query);

  const Graph& query() const { return *query_; }
  uint32_t num_vertices() const { return query_->num_vertices(); }
  /// t = |φ_t|.
  size_t size() const { return order_.size(); }
  bool full() const { return order_.size() == query_->num_vertices(); }
  const std::vector<VertexId>& order() const { return order_; }
  /// Ordered flag per query vertex.
  const std::vector<bool>& ordered() const { return ordered_; }
  bool IsOrdered(VertexId u) const { return ordered_[u]; }
  /// |N(u) ∩ φ_t|.
  uint32_t backward(VertexId u) const { return backward_[u]; }
  /// True iff u is unordered and adjacent to φ_t: u ∈ N(φ_t). Every vertex
  /// is selectable while φ_t is empty.
  bool Selectable(VertexId u) const {
    return !ordered_[u] && (order_.empty() || backward_[u] > 0);
  }

  /// Appends unordered vertex u to φ_t.
  void Push(VertexId u);
  /// Removes the last vertex of φ_t.
  void Pop();
  /// Empties φ_t.
  void Clear();

 private:
  const Graph* query_;
  std::vector<VertexId> order_;
  std::vector<bool> ordered_;
  std::vector<uint32_t> backward_;
};

/// \brief Completes `prefix` greedily: appends the selectable vertex with
/// the smallest `key(u)` until the order is full; ties go to the lowest id.
/// When no vertex is selectable (only a disconnected query gets there), the
/// smallest key among all unordered vertices is taken instead.
template <typename KeyFn>
void GreedyOrder(OrderPrefix* prefix, const KeyFn& key) {
  using Key = std::invoke_result_t<const KeyFn&, VertexId>;
  const uint32_t n = prefix->num_vertices();
  while (!prefix->full()) {
    VertexId best = kInvalidVertex;
    Key best_key{};
    for (const bool connected : {true, false}) {
      for (VertexId u = 0; u < n; ++u) {
        if (connected ? !prefix->Selectable(u) : prefix->IsOrdered(u)) {
          continue;
        }
        Key k = key(u);
        if (best == kInvalidVertex || k < best_key) {
          best = u;
          best_key = std::move(k);
        }
      }
      if (best != kInvalidVertex) break;
    }
    prefix->Push(best);
  }
}

/// \brief Phase-2 interface: produce a matching order — a permutation of
/// V(q) (Definition II.3) in which every vertex after the first is adjacent
/// to an earlier one (connectivity, the action-space constraint of the
/// paper's MDP).
class Ordering {
 public:
  virtual ~Ordering() = default;

  /// Display name used in benchmark tables, e.g. "RI".
  virtual std::string name() const = 0;

  /// Whether MakeOrder is a pure function of (query, data, candidates):
  /// true for every built-in heuristic and for greedy-argmax RL-QVO. The
  /// engine's fingerprint-keyed order cache only admits deterministic
  /// orderings; stochastic ones (sampling RL-QVO, Random) return false and
  /// bypass it, mirroring the determinism caveat in query_engine.h.
  virtual bool deterministic() const { return true; }

  /// Computes the matching order for the given query.
  virtual Result<std::vector<VertexId>> MakeOrder(
      const OrderingContext& ctx) = 0;
};

/// \brief RI ordering (Bonnici et al.), the method Hybrid uses and the
/// paper's baseline for the RL reward. Start at the maximum-degree vertex;
/// then repeatedly take the vertex with the most backward neighbors
/// (|N(u) ∩ φ_t|), breaking ties by (1) |u_neig| — the number of ordered
/// vertices that share an unordered neighbor with u — then (2) |u_unv| —
/// the number of u's neighbors that are unordered and not adjacent to any
/// ordered vertex; remaining ties break by vertex id (Sec II-C).
class RIOrdering : public Ordering {
 public:
  std::string name() const override { return "RI"; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief QuickSI's infrequent-edge-first ordering: weight each query edge by
/// the frequency of its endpoint-label pair among data edges, then grow a
/// minimum-weight spanning walk starting from the globally cheapest edge.
class QSIOrdering : public Ordering {
 public:
  std::string name() const override { return "QSI"; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief VF2++'s infrequent-label-first ordering: BFS from the vertex with
/// the rarest label in G (ties by larger degree); within each BFS level,
/// vertices ascend by data-label frequency and descend by degree.
class VF2PPOrdering : public Ordering {
 public:
  std::string name() const override { return "VF2PP"; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief GraphQL's left-deep ordering: start at the smallest candidate set;
/// repeatedly append the connected vertex with the fewest candidates.
/// Requires candidate sets.
class GQLOrdering : public Ordering {
 public:
  std::string name() const override { return "GQL"; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief VEQ-style ordering: greedy connected order minimising
/// |C(u)| / |NEC class of u| so that vertices whose neighbor-equivalence
/// class is large (interchangeable degree-one leaves) are postponed and
/// grouped. Requires candidate sets.
class VEQOrdering : public Ordering {
 public:
  std::string name() const override { return "VEQ"; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief CFL-style core-forest-leaf ordering (Bi et al., SIGMOD'16):
/// decompose the query by core number — the dense 2-core first, then the
/// tree ("forest") vertices hanging off it, then degree-one leaves — and
/// within each stratum greedily take the connected vertex with the fewest
/// candidates. Postponing the cartesian-product-prone forest/leaf parts is
/// CFL's central idea. Requires candidate sets.
class CFLOrdering : public Ordering {
 public:
  std::string name() const override { return "CFL"; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief Uniformly random connected order (sanity-check baseline).
class RandomOrdering : public Ordering {
 public:
  std::string name() const override { return "Random"; }
  /// Random orders must not be memoised (with an external rng every call
  /// differs), so the order cache is bypassed.
  bool deterministic() const override { return false; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;
};

/// \brief Computes neighbor equivalence classes (NEC, VEQ Sec II-C): class
/// id per query vertex; degree-one vertices with equal label and equal
/// neighbor share a class, every other vertex is a singleton.
std::vector<uint32_t> ComputeNecClasses(const Graph& query);

/// \brief Builds an ordering by name: "RI", "QSI", "VF2PP", "GQL", "VEQ",
/// "CFL" or "Random".
Result<std::shared_ptr<Ordering>> MakeOrdering(const std::string& name);

}  // namespace rlqvo
