#include "matching/filters.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "common/memory_budget.h"

namespace rlqvo {

namespace {

/// Sparse per-vertex neighbor-label histogram: (label, count), sorted.
using LabelCounts = std::vector<std::pair<Label, uint32_t>>;

LabelCounts NeighborLabelCounts(const Graph& g, VertexId v) {
  // The CSR label-slice index IS the histogram: one (label, slice length)
  // pair per distinct neighbor label, already ascending.
  const auto labels = g.NeighborLabels(v);
  LabelCounts counts;
  counts.reserve(labels.size());
  for (size_t i = 0; i < labels.size(); ++i) {
    counts.emplace_back(labels[i],
                        static_cast<uint32_t>(g.NeighborSlice(v, i).size()));
  }
  return counts;
}

/// True iff u's histogram is dominated by v's (every label count of the
/// query vertex is available among the data vertex's neighbors). Each
/// required label is answered by one slice-length lookup — no neighborhood
/// scan, no label-indexed scratch.
bool DominatedBy(const LabelCounts& query_counts, const Graph& data,
                 VertexId v) {
  for (const auto& [label, count] : query_counts) {
    if (data.NeighborsWithLabel(v, label).size() < count) return false;
  }
  return true;
}

Status ValidateInputs(const Graph& query, const Graph& data) {
  if (query.num_vertices() == 0) {
    return Status::InvalidArgument("query graph is empty");
  }
  if (data.num_vertices() == 0) {
    return Status::InvalidArgument("data graph is empty");
  }
  if (query.directed() != data.directed()) {
    return Status::InvalidArgument(
        "query/data directedness mismatch in filter");
  }
  return Status::OK();
}

/// Whether the (dir, elabel, vlabel)-aware dominance checks below apply.
/// When both graphs are degenerate the labeled views coincide with the
/// skeleton views, so the extra checks would re-test what the skeleton
/// checks already decided — skip them to keep the classic path untouched.
bool UseLabeledChecks(const Graph& query, const Graph& data) {
  return !query.degenerate() || !data.degenerate();
}

/// Labeled degree dominance: an injective match maps u's distinct labeled
/// out-edges (w, elabel) to distinct labeled out-edges of v, and likewise
/// in-edges — so v needs at least u's labeled degree per direction class.
bool LabeledDegreesDominate(const Graph& query, const Graph& data, VertexId u,
                            VertexId v) {
  return data.out_degree(v) >= query.out_degree(u) &&
         data.in_degree(v) >= query.in_degree(u);
}

/// Per-(dir, elabel, vlabel) slice dominance, the directed generalization
/// of the NLF histogram test: every labeled slice of the query vertex must
/// fit inside the data vertex's same-keyed slice. Undirected labeled graphs
/// have one direction class, so the kIn pass is skipped.
bool LabeledSlicesDominate(const Graph& query, const Graph& data, VertexId u,
                           VertexId v) {
  const int num_dirs = query.directed() ? 2 : 1;
  for (int d = 0; d < num_dirs; ++d) {
    const EdgeDir dir = d == 0 ? EdgeDir::kOut : EdgeDir::kIn;
    const size_t slices = query.NumLabeledSlices(u, dir);
    for (size_t i = 0; i < slices; ++i) {
      const Graph::LabeledSlice s = query.LabeledSliceAt(u, dir, i);
      if (data.NeighborsWith(v, dir, s.elabel, s.vlabel).size() <
          s.ids.size()) {
        return false;
      }
    }
  }
  return true;
}

CandidateSet LdfCandidates(const Graph& query, const Graph& data) {
  CandidateSet result(query.num_vertices());
  const bool labeled = UseLabeledChecks(query, data);
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    std::vector<VertexId> c;
    for (VertexId v : data.VerticesWithLabel(query.label(u))) {
      if (data.degree(v) < query.degree(u)) continue;
      if (labeled && !LabeledDegreesDominate(query, data, u, v)) continue;
      c.push_back(v);
    }
    result.Set(u, std::move(c));
  }
  return result;
}

CandidateSet NlfCandidates(const Graph& query, const Graph& data) {
  CandidateSet result(query.num_vertices());
  const bool labeled = UseLabeledChecks(query, data);
  const std::span<const uint64_t> data_masks = data.NeighborLabelMasks();
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    const LabelCounts u_counts = NeighborLabelCounts(query, u);
    // Computed, not looked up: the query graph builds no signature array.
    const uint64_t u_mask = query.NeighborLabelMask(u);
    std::vector<VertexId> c;
    for (VertexId v : data.VerticesWithLabel(query.label(u))) {
      if (data.degree(v) < query.degree(u)) continue;
      // Exact screen: a label of N(u) whose bit v lacks is absent from N(v),
      // so DominatedBy would reject v too, at one lookup per label.
      if ((u_mask & ~data_masks[v]) != 0) continue;
      if (!DominatedBy(u_counts, data, v)) continue;
      if (labeled && (!LabeledDegreesDominate(query, data, u, v) ||
                      !LabeledSlicesDominate(query, data, u, v))) {
        continue;
      }
      c.push_back(v);
    }
    result.Set(u, std::move(c));
  }
  return result;
}

/// \brief Reusable candidate-membership structure for the refinement
/// filters' `v in C(u)` tests.
///
/// The seed allocated and zeroed an nq × |V(G)| vector<bool> on every
/// GQLFilter call and every DagDpFilter sweep — the exact per-query
/// pathology PR 2 removed from the enumerator. This is the filter-side
/// equivalent of EnumeratorWorkspace's epoch trick: one thread_local
/// instance (filters are stateless and shared across engine workers) is
/// reused across calls; Reset() bumps a uint8 epoch — instantly
/// invalidating all previous stamps, zero-filling only on the 255-call
/// wrap — and stamps the Σ|C(u)| live cells. Clearing writes 0, which no
/// epoch equals.
///
/// Growth charges the whole new footprint to MemoryBudget::Global(), like
/// EnumeratorWorkspace's stamp arrays. Above kMaxStampBytes, or when the
/// budget denies the charge, the stamp array is not grown; Test() falls
/// back to binary search in the live CandidateSet. The fallback is exact
/// for both refinement loops because Test(w, x) is only ever issued for
/// w != u while vertex u's candidates are being decided, and every earlier
/// vertex's removals have already been applied to the CandidateSet via
/// Set() — pending Clears exist only on row u, which is never read.
class CandidateMembership {
 public:
  static constexpr size_t kMaxStampBytes = size_t{1} << 28;  // 256 MiB

  /// Binds the membership to `cs` and stamps its current contents.
  void Reset(const CandidateSet& cs, uint32_t data_vertices) {
    cs_ = &cs;
    nv_ = data_vertices;
    const size_t bytes =
        static_cast<size_t>(cs.num_query_vertices()) * data_vertices;
    stamped_ = bytes <= kMaxStampBytes;
    if (stamped_ && stamp_.size() < bytes) {
      MemoryCharge charge = MemoryBudget::Global().TryCharge(bytes);
      stamped_ = !charge.empty();
      if (stamped_) {
        charge_ = std::move(charge);  // releases the old footprint's charge
        stamp_.resize(bytes, 0);
      }
    }
    if (!stamped_) return;
    ++epoch_;
    if (epoch_ == 0) {
      std::fill(stamp_.begin(), stamp_.end(), uint8_t{0});
      epoch_ = 1;
    }
    for (VertexId u = 0; u < cs.num_query_vertices(); ++u) {
      uint8_t* row = stamp_.data() + static_cast<size_t>(u) * nv_;
      for (VertexId v : cs.candidates(u)) row[v] = epoch_;
    }
  }

  bool Test(VertexId u, VertexId v) const {
    return stamped_ ? stamp_[static_cast<size_t>(u) * nv_ + v] == epoch_
                    : cs_->Contains(u, v);
  }
  void Clear(VertexId u, VertexId v) {
    if (stamped_) stamp_[static_cast<size_t>(u) * nv_ + v] = 0;
  }

 private:
  const CandidateSet* cs_ = nullptr;
  std::vector<uint8_t> stamp_;
  MemoryCharge charge_;  // the budget's share of stamp_
  size_t nv_ = 0;
  uint8_t epoch_ = 0;
  bool stamped_ = false;
};

/// The per-thread instance the refinement filters reuse across queries.
/// thread_local is the whole concurrency story: each engine worker (or
/// caller thread) owns its instance outright, so the shared, stateless
/// filter objects stay const-callable from any number of threads without a
/// lock. The instance is rebound via Reset() at the top of every filter
/// call; nothing leaks between queries except the (intentional) buffer
/// high-water mark.
CandidateMembership& ThreadLocalMembership() {
  static thread_local CandidateMembership membership;
  return membership;
}

/// Kuhn's augmenting-path bipartite matching. Left side: query neighbors
/// N(u); right side: data neighbors N(v). Returns true iff a matching covers
/// every left vertex (GraphQL's semi-perfect matching test).
class SemiPerfectMatcher {
 public:
  bool Covers(const Graph& query, const Graph& data,
              const CandidateMembership& bitmap, VertexId u, VertexId v) {
    // neighbors-ok: relaxed necessary condition (skeleton adjacency).
    const auto left = query.neighbors(u);
    // neighbors-ok: relaxed necessary condition (skeleton adjacency).
    const auto right = data.neighbors(v);
    if (right.size() < left.size()) return false;
    // right_match_[j] = left index matched to right slot j (or -1).
    right_match_.assign(right.size(), -1);
    for (size_t i = 0; i < left.size(); ++i) {
      visited_.assign(right.size(), false);
      if (!TryAugment(query, data, bitmap, left, right, i)) return false;
    }
    return true;
  }

 private:
  bool TryAugment(const Graph& query, const Graph& data,
                  const CandidateMembership& bitmap,
                  std::span<const VertexId> left,
                  std::span<const VertexId> right, size_t i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (visited_[j]) continue;
      if (!bitmap.Test(left[i], right[j])) continue;
      visited_[j] = true;
      if (right_match_[j] < 0 ||
          TryAugment(query, data, bitmap, left, right,
                     static_cast<size_t>(right_match_[j]))) {
        right_match_[j] = static_cast<int>(i);
        return true;
      }
    }
    return false;
  }

  std::vector<int> right_match_;
  std::vector<bool> visited_;
};

}  // namespace

Result<CandidateSet> LDFFilter::Filter(const Graph& query,
                                       const Graph& data) const {
  RLQVO_RETURN_NOT_OK(ValidateInputs(query, data));
  return LdfCandidates(query, data);
}

Result<CandidateSet> NLFFilter::Filter(const Graph& query,
                                       const Graph& data) const {
  RLQVO_RETURN_NOT_OK(ValidateInputs(query, data));
  return NlfCandidates(query, data);
}

Result<CandidateSet> GQLFilter::Filter(const Graph& query,
                                       const Graph& data) const {
  RLQVO_RETURN_NOT_OK(ValidateInputs(query, data));
  // Local pruning: the profile sub-sequence test of GraphQL over sorted
  // neighborhood label sequences is exactly neighbor-label-count dominance.
  CandidateSet cs = NlfCandidates(query, data);

  CandidateMembership& bitmap = ThreadLocalMembership();
  bitmap.Reset(cs, data.num_vertices());
  SemiPerfectMatcher matcher;
  for (int round = 0; round < max_refinement_rounds_; ++round) {
    bool changed = false;
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      std::vector<VertexId> kept;
      kept.reserve(cs.candidates(u).size());
      for (VertexId v : cs.candidates(u)) {
        if (matcher.Covers(query, data, bitmap, u, v)) {
          kept.push_back(v);
        } else {
          bitmap.Clear(u, v);
          changed = true;
        }
      }
      cs.Set(u, std::move(kept));
    }
    if (!changed) break;
  }
  return cs;
}

Result<CandidateSet> DagDpFilter::Filter(const Graph& query,
                                         const Graph& data) const {
  RLQVO_RETURN_NOT_OK(ValidateInputs(query, data));
  CandidateSet cs = NlfCandidates(query, data);
  const uint32_t nq = query.num_vertices();

  // Root: minimise |C(u)| / d(u) (CFL's start-vertex rule).
  VertexId root = 0;
  double best = 1e300;
  for (VertexId u = 0; u < nq; ++u) {
    const double score = static_cast<double>(cs.candidates(u).size()) /
                         std::max(1u, query.degree(u));
    if (score < best) {
      best = score;
      root = u;
    }
  }

  // BFS levels define DAG edge directions (earlier level -> later level;
  // ties within a level by vertex id).
  std::vector<int> level(nq, -1);
  std::deque<VertexId> queue{root};
  level[root] = 0;
  std::vector<VertexId> bfs_order;
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    bfs_order.push_back(u);
    // neighbors-ok: BFS levels; the DAG shape is direction-agnostic.
    for (VertexId w : query.neighbors(u)) {
      if (level[w] < 0) {
        level[w] = level[u] + 1;
        queue.push_back(w);
      }
    }
  }
  // Disconnected query vertices (possible only for disconnected queries)
  // keep their NLF candidates.
  auto is_parent = [&](VertexId p, VertexId child) {
    return level[p] >= 0 && level[child] >= 0 &&
           (level[p] < level[child] ||
            (level[p] == level[child] && p < child));
  };

  auto sweep = [&](bool top_down) {
    CandidateMembership& bitmap = ThreadLocalMembership();
    bitmap.Reset(cs, data.num_vertices());
    const auto& order = bfs_order;
    // The labeled constraints between u and a relevant DAG neighbor are
    // candidate-independent; gather them once per u, in neighbor-list order.
    struct DagNeighbor {
      VertexId w;
      std::vector<std::pair<EdgeDir, EdgeLabel>> constraints;
    };
    std::vector<DagNeighbor> relevant;
    for (size_t idx = 0; idx < order.size(); ++idx) {
      const VertexId u = top_down ? order[idx] : order[order.size() - 1 - idx];
      relevant.clear();
      // neighbors-ok: endpoints only; constraints via EdgesBetween.
      for (VertexId w : query.neighbors(u)) {
        if (!(top_down ? is_parent(w, u) : is_parent(u, w))) continue;
        DagNeighbor& dn = relevant.emplace_back();
        dn.w = w;
        query.EdgesBetween(u, w, &dn.constraints);
      }
      std::vector<VertexId> kept;
      kept.reserve(cs.candidates(u).size());
      for (VertexId v : cs.candidates(u)) {
        bool ok = true;
        for (const DagNeighbor& dn : relevant) {
          // Only v's neighbors under the first labeled constraint carrying
          // w's label can be candidates of w: restrict the witness scan to
          // that slice (the degenerate slice is the classic label slice),
          // and hold witnesses to the remaining parallel-edge constraints.
          bool found = false;
          const auto& [dir0, elabel0] = dn.constraints.front();
          for (VertexId x :
               data.NeighborsWith(v, dir0, elabel0, query.label(dn.w))) {
            if (!bitmap.Test(dn.w, x)) continue;
            bool satisfies_all = true;
            for (size_t k = 1; k < dn.constraints.size(); ++k) {
              if (!data.HasEdge(v, x, dn.constraints[k].first,
                                dn.constraints[k].second)) {
                satisfies_all = false;
                break;
              }
            }
            if (satisfies_all) {
              found = true;
              break;
            }
          }
          if (!found) {
            ok = false;
            break;
          }
        }
        if (ok) {
          kept.push_back(v);
        } else {
          bitmap.Clear(u, v);
        }
      }
      cs.Set(u, std::move(kept));
    }
  };

  for (int s = 0; s < num_sweeps_; ++s) {
    sweep(/*top_down=*/true);
    sweep(/*top_down=*/false);
  }
  return cs;
}

Result<std::shared_ptr<CandidateFilter>> MakeFilter(const std::string& name) {
  if (name == "LDF") return std::shared_ptr<CandidateFilter>(new LDFFilter());
  if (name == "NLF") return std::shared_ptr<CandidateFilter>(new NLFFilter());
  if (name == "GQL") return std::shared_ptr<CandidateFilter>(new GQLFilter());
  if (name == "DAG-DP") {
    return std::shared_ptr<CandidateFilter>(new DagDpFilter());
  }
  return Status::NotFound("unknown filter '" + name + "'");
}

}  // namespace rlqvo
