#include "matching/filters.h"

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

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

/// One (dir, elabel, vlabel) slice of a query vertex's labeled
/// neighbourhood and its size: what the same-keyed slice of a candidate must
/// hold at least.
struct LabeledCount {
  EdgeDir dir;
  EdgeLabel elabel;
  Label vlabel;
  uint32_t count;
};
using LabeledCounts = std::vector<LabeledCount>;

/// u's labeled slices, per direction class. Undirected labeled graphs have
/// one direction class, so the kIn pass is skipped.
LabeledCounts LabeledNeighborCounts(const Graph& query, VertexId u) {
  LabeledCounts counts;
  const int num_dirs = query.directed() ? 2 : 1;
  for (int d = 0; d < num_dirs; ++d) {
    const EdgeDir dir = d == 0 ? EdgeDir::kOut : EdgeDir::kIn;
    const size_t slices = query.NumLabeledSlices(u, dir);
    for (size_t i = 0; i < slices; ++i) {
      const Graph::LabeledSlice s = query.LabeledSliceAt(u, dir, i);
      counts.push_back(
          {dir, s.elabel, s.vlabel, static_cast<uint32_t>(s.ids.size())});
    }
  }
  return counts;
}

/// Per-(dir, elabel, vlabel) slice dominance, the directed generalization
/// of the NLF histogram test: every labeled slice of the query vertex must
/// fit inside the data vertex's same-keyed slice.
bool LabeledSlicesDominate(const LabeledCounts& query_counts,
                           const Graph& data, VertexId v) {
  for (const LabeledCount& k : query_counts) {
    if (data.NeighborsWith(v, k.dir, k.elabel, k.vlabel).size() < k.count) {
      return false;
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
    const LabeledCounts u_labeled =
        labeled ? LabeledNeighborCounts(query, u) : LabeledCounts{};
    // Computed, not looked up: the query graph builds no signature array.
    const uint64_t u_mask = query.NeighborLabelMask(u);
    std::vector<VertexId> c;
    for (VertexId v : data.VerticesWithLabel(query.label(u))) {
      if (data.degree(v) < query.degree(u)) continue;
      // Exact screen: a label of N(u) whose bit v lacks is absent from N(v),
      // so DominatedBy would reject v too, at one lookup per label.
      if ((u_mask & ~data_masks[v]) != 0) continue;
      // The labeled-slice test rejects far more pairs than the skeleton
      // count test, so it runs first. It subsumes LDF's labeled-degree
      // test: a labeled degree is the sum of its direction's slices.
      if (labeled && !LabeledSlicesDominate(u_labeled, data, v)) continue;
      if (!DominatedBy(u_counts, data, v)) continue;
      c.push_back(v);
    }
    result.Set(u, std::move(c));
  }
  return result;
}

/// The per-thread membership the refinement filters stamp once per call
/// and reuse across queries. thread_local is the whole concurrency story:
/// each engine worker (or caller thread) owns its instance outright, so the
/// shared, stateless filter objects stay const-callable from any number of
/// threads without a lock. Both refinement loops keep the stamps equal to
/// the live sets: while deciding C(u) they test only C(w) for w != u, they
/// Clear() each removal, and they Set() C(u) before moving on.
CandidateMembership& ThreadLocalMembership() {
  static thread_local CandidateMembership membership;
  return membership;
}

/// GraphQL's semi-perfect matching test for one pair (u, v): does the
/// bipartite graph between N(u) and N(v), with an edge (w, x) iff x is in
/// C(w), have a matching that covers all of N(u)?
///
/// C(w) holds only label(w) vertices, so that graph splits into one
/// component per label of N(u): u's run of that label against N(v)'s slice
/// of it. Both neighbour lists are ordered by (label, id), so one merge walk
/// over the two label lists pairs each run with its slice, and a label that
/// N(v) lacks fails the pair at once. Each run is matched on its own: a
/// left vertex takes a free member of its slice when it has one, and only
/// otherwise runs Kuhn's augmenting-path search.
class SemiPerfectMatcher {
 public:
  bool Covers(const Graph& query, const Graph& data,
              const CandidateMembership& bitmap, VertexId u, VertexId v) {
    const auto u_labels = query.NeighborLabels(u);
    const auto v_labels = data.NeighborLabels(v);
    size_t k = 0;
    for (size_t i = 0; i < u_labels.size(); ++i) {
      while (k < v_labels.size() && v_labels[k] < u_labels[i]) ++k;
      if (k == v_labels.size() || v_labels[k] != u_labels[i]) return false;
      if (!CoversRun(bitmap, query.NeighborSlice(u, i),
                     data.NeighborSlice(v, k))) {
        return false;
      }
    }
    return true;
  }

 private:
  bool CoversRun(const CandidateMembership& bitmap,
                 std::span<const VertexId> left,
                 std::span<const VertexId> right) {
    if (right.size() < left.size()) return false;
    // right_match_[j] = left index matched to right slot j (or -1).
    right_match_.assign(right.size(), -1);
    if (visited_.size() < right.size()) visited_.resize(right.size(), 0);
    for (size_t i = 0; i < left.size(); ++i) {
      if (PlaceOnFreeSlot(bitmap, left, right, i)) continue;
      // A new stamp unmarks every slot; zero-fill only when it wraps.
      if (++visit_stamp_ == 0) {
        std::fill(visited_.begin(), visited_.end(), 0u);
        visit_stamp_ = 1;
      }
      if (!TryAugment(bitmap, left, right, i)) return false;
    }
    return true;
  }

  bool PlaceOnFreeSlot(const CandidateMembership& bitmap,
                       std::span<const VertexId> left,
                       std::span<const VertexId> right, size_t i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (right_match_[j] < 0 && bitmap.Test(left[i], right[j])) {
        right_match_[j] = static_cast<int>(i);
        return true;
      }
    }
    return false;
  }

  bool TryAugment(const CandidateMembership& bitmap,
                  std::span<const VertexId> left,
                  std::span<const VertexId> right, size_t i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (visited_[j] == visit_stamp_) continue;
      if (!bitmap.Test(left[i], right[j])) continue;
      visited_[j] = visit_stamp_;
      if (right_match_[j] < 0 ||
          TryAugment(bitmap, left, right,
                     static_cast<size_t>(right_match_[j]))) {
        right_match_[j] = static_cast<int>(i);
        return true;
      }
    }
    return false;
  }

  std::vector<int> right_match_;
  std::vector<uint32_t> visited_;  // slot j is visited iff == visit_stamp_
  uint32_t visit_stamp_ = 0;
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
  bitmap.Stamp(cs, data.num_vertices());
  SemiPerfectMatcher matcher;
  // Removal clock: every check of a query vertex takes the next tick. Covers
  // at u reads only the candidate sets of u's neighbours, so when none of
  // them lost a candidate after u's last check, every bipartite graph of u
  // is unchanged and all of C(u) would pass again: u is skipped. Round 1
  // checks every vertex.
  const uint32_t nq = query.num_vertices();
  std::vector<uint64_t> checked_at(nq, 0);
  std::vector<uint64_t> removed_at(nq, 0);
  uint64_t clock = 0;
  auto neighbour_changed = [&](VertexId u) {
    // neighbors-ok: Covers reads exactly the skeleton neighbours' sets.
    for (VertexId w : query.neighbors(u)) {
      if (removed_at[w] > checked_at[u]) return true;
    }
    return false;
  };
  for (int round = 0; round < max_refinement_rounds_; ++round) {
    bool changed = false;
    for (VertexId u = 0; u < nq; ++u) {
      if (round > 0 && !neighbour_changed(u)) continue;
      checked_at[u] = ++clock;
      std::vector<VertexId> kept;
      kept.reserve(cs.candidates(u).size());
      for (VertexId v : cs.candidates(u)) {
        if (matcher.Covers(query, data, bitmap, u, v)) {
          kept.push_back(v);
        } else {
          bitmap.Clear(u, v);
        }
      }
      if (kept.size() < cs.candidates(u).size()) {
        removed_at[u] = clock;
        changed = true;
        // A skipped vertex keeps this list, so it must not keep the
        // pre-check capacity (cached sets would hold it).
        kept.shrink_to_fit();
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

  // Stamped once: each sweep Clear()s what it removes, so the stamps
  // still equal cs when the next sweep starts.
  CandidateMembership& bitmap = ThreadLocalMembership();
  bitmap.Stamp(cs, data.num_vertices());
  auto sweep = [&](bool top_down) {
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

  for (int s = 0; s < kNumSweeps; ++s) {
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
