#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "common/rng.h"
#include "graph/generators.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

/// Triangle query A-B-C.
Graph TriangleQuery() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return b.Build();
}

/// Data graph: one triangle {0,1,2} with labels 0,1,2 plus a label-0 vertex
/// 3 attached only to vertex 1, and an isolated label-0 vertex 4.
Graph TriangleData() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(1, 3);
  return b.Build();
}

TEST(LdfFilterTest, FiltersByLabelAndDegree) {
  Graph q = TriangleQuery();
  Graph g = TriangleData();
  CandidateSet cs = LDFFilter().Filter(q, g).ValueOrDie();
  // Query vertex 0 (label 0, degree 2): data vertices with label 0 and
  // degree >= 2 — only vertex 0 (v3 has degree 1, v4 degree 0).
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{0}));
  EXPECT_EQ(cs.candidates(1), (std::vector<VertexId>{1}));
  EXPECT_EQ(cs.candidates(2), (std::vector<VertexId>{2}));
}

TEST(NlfFilterTest, TighterThanLdf) {
  // Query: label-0 vertex with two label-1 neighbors.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  Graph q = qb.Build();
  // Data: v0 label 0 with neighbors labels {1, 1}; v3 label 0 with
  // neighbors labels {1, 2} — LDF keeps both, NLF drops v3.
  GraphBuilder gb;
  gb.AddVertex(0);  // v0
  gb.AddVertex(1);  // v1
  gb.AddVertex(1);  // v2
  gb.AddVertex(0);  // v3
  gb.AddVertex(1);  // v4
  gb.AddVertex(2);  // v5
  gb.AddEdge(0, 1);
  gb.AddEdge(0, 2);
  gb.AddEdge(3, 4);
  gb.AddEdge(3, 5);
  Graph g = gb.Build();

  CandidateSet ldf = LDFFilter().Filter(q, g).ValueOrDie();
  CandidateSet nlf = NLFFilter().Filter(q, g).ValueOrDie();
  EXPECT_EQ(ldf.candidates(0), (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(nlf.candidates(0), (std::vector<VertexId>{0}));
}

TEST(GqlFilterTest, GlobalRefinementPrunes) {
  // Query: star with center label 0 and two leaves label 1.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  Graph q = qb.Build();
  // Data vertex v0: label 0 with ONE label-1 neighbor shared by both query
  // leaves -> no semi-perfect matching; v3: label 0 with two distinct
  // label-1 neighbors -> survives.
  GraphBuilder gb;
  gb.AddVertex(0);  // v0
  gb.AddVertex(1);  // v1 (v0's only label-1 neighbor)
  gb.AddVertex(2);  // v2 filler neighbor so degree passes
  gb.AddVertex(0);  // v3
  gb.AddVertex(1);  // v4
  gb.AddVertex(1);  // v5
  gb.AddEdge(0, 1);
  gb.AddEdge(0, 2);
  gb.AddEdge(3, 4);
  gb.AddEdge(3, 5);
  Graph g = gb.Build();

  CandidateSet gql = GQLFilter().Filter(q, g).ValueOrDie();
  EXPECT_EQ(gql.candidates(0), (std::vector<VertexId>{3}));
}

TEST(FiltersTest, EmptyInputsRejected) {
  Graph empty;
  Graph g = TriangleData();
  EXPECT_FALSE(LDFFilter().Filter(empty, g).ok());
  EXPECT_FALSE(NLFFilter().Filter(g, empty).ok());
  EXPECT_FALSE(GQLFilter().Filter(empty, empty).ok());
  EXPECT_FALSE(DagDpFilter().Filter(empty, g).ok());
}

TEST(FiltersTest, FactoryByName) {
  for (const char* name : {"LDF", "NLF", "GQL", "DAG-DP"}) {
    auto f = MakeFilter(name);
    ASSERT_TRUE(f.ok()) << name;
    EXPECT_EQ((*f)->name(), name);
  }
  EXPECT_FALSE(MakeFilter("bogus").ok());
}

TEST(FiltersTest, NamesAreStable) {
  EXPECT_EQ(LDFFilter().name(), "LDF");
  EXPECT_EQ(NLFFilter().name(), "NLF");
  EXPECT_EQ(GQLFilter().name(), "GQL");
  EXPECT_EQ(DagDpFilter().name(), "DAG-DP");
}

/// Property sweep: every filter is complete (Definition II.2) — no data
/// vertex participating in a brute-force match is ever pruned — and the
/// stronger filters are subsets of the weaker ones. The parameter is
/// (seed, number of vertex labels).
class FilterPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

/// The property sweep's inputs for (seed, number of vertex labels).
std::pair<Graph, Graph> PropertyInputs(uint64_t seed, uint32_t num_labels) {
  // More than 64 labels put labels that share a signature bit into one
  // graph; a larger graph keeps such labels on both sides of the screen.
  Graph data = num_labels > 64 ? RandomData(seed, 300, 6.0, num_labels)
                               : RandomData(seed, 60, 4.0, num_labels);
  Graph query = RandomQuery(data, seed * 31 + 1, 3 + seed % 3);
  return {std::move(data), std::move(query)};
}

TEST_P(FilterPropertyTest, CompletenessAndContainment) {
  const auto [seed, num_labels] = GetParam();
  const auto [data, query] = PropertyInputs(seed, num_labels);

  auto matches = BruteForceMatch(query, data);
  ASSERT_FALSE(matches.empty()) << "sampled query must have a match";

  CandidateSet ldf = LDFFilter().Filter(query, data).ValueOrDie();
  CandidateSet nlf = NLFFilter().Filter(query, data).ValueOrDie();
  CandidateSet gql = GQLFilter().Filter(query, data).ValueOrDie();
  CandidateSet dag = DagDpFilter().Filter(query, data).ValueOrDie();

  for (const auto& match : matches) {
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_TRUE(ldf.Contains(u, match[u])) << "LDF pruned a true match";
      EXPECT_TRUE(nlf.Contains(u, match[u])) << "NLF pruned a true match";
      EXPECT_TRUE(gql.Contains(u, match[u])) << "GQL pruned a true match";
      EXPECT_TRUE(dag.Contains(u, match[u])) << "DAG-DP pruned a true match";
    }
  }
  // Pruning-power ordering: GQL ⊆ NLF ⊆ LDF and DAG-DP ⊆ NLF.
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    for (VertexId v : nlf.candidates(u)) {
      EXPECT_TRUE(ldf.Contains(u, v));
    }
    for (VertexId v : gql.candidates(u)) {
      EXPECT_TRUE(nlf.Contains(u, v));
    }
    for (VertexId v : dag.candidates(u)) {
      EXPECT_TRUE(nlf.Contains(u, v));
    }
  }
}

/// The plain refinement, the reference GQLFilter must equal: every round
/// checks every candidate of every query vertex, and Kuhn's augmenting-path
/// search runs over all of N(v) for each query neighbour, with no label
/// slices and no skipped vertices. This is one (u, v) check.
bool PlainKuhnCovers(const Graph& query, const Graph& data,
                     const CandidateSet& cs, VertexId u, VertexId v) {
  const auto left = query.neighbors(u);
  const auto right = data.neighbors(v);
  std::vector<int> match(right.size(), -1);
  std::vector<bool> visited;
  std::function<bool(size_t)> augment = [&](size_t i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (visited[j] || !cs.Contains(left[i], right[j])) continue;
      visited[j] = true;
      if (match[j] < 0 || augment(static_cast<size_t>(match[j]))) {
        match[j] = static_cast<int>(i);
        return true;
      }
    }
    return false;
  };
  for (size_t i = 0; i < left.size(); ++i) {
    visited.assign(right.size(), false);
    if (!augment(i)) return false;
  }
  return true;
}

/// The plain refinement's candidate sets after each round cap 0..max_rounds
/// (entry r is what a cap of r rounds returns).
std::vector<CandidateSet> PlainGqlRefinement(const Graph& query,
                                             const Graph& data,
                                             int max_rounds) {
  std::vector<CandidateSet> after_round = {
      NLFFilter().Filter(query, data).ValueOrDie()};
  bool changed = true;
  for (int round = 0; round < max_rounds; ++round) {
    CandidateSet cs = after_round.back();
    if (changed) {
      changed = false;
      for (VertexId u = 0; u < query.num_vertices(); ++u) {
        std::vector<VertexId> kept;
        for (VertexId v : cs.candidates(u)) {
          if (PlainKuhnCovers(query, data, cs, u, v)) {
            kept.push_back(v);
          } else {
            changed = true;
          }
        }
        cs.Set(u, std::move(kept));
      }
    }
    after_round.push_back(std::move(cs));
  }
  return after_round;
}

/// Expects GQLFilter(r) to return the plain refinement's candidate lists
/// for every round cap r in 0..4. Returns how many of the caps 2..4 removed
/// candidates that cap r - 1 kept, i.e. whether rounds after the first did
/// any work on this input.
int ExpectGqlEqualsPlainRefinement(const Graph& query, const Graph& data,
                                   const std::string& what) {
  constexpr int kMaxRounds = 4;
  const std::vector<CandidateSet> expected =
      PlainGqlRefinement(query, data, kMaxRounds);
  int later_round_removals = 0;
  for (int rounds = 0; rounds <= kMaxRounds; ++rounds) {
    const CandidateSet actual =
        GQLFilter(rounds).Filter(query, data).ValueOrDie();
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_EQ(actual.candidates(u), expected[rounds].candidates(u))
          << what << ", " << rounds << " rounds, vertex " << u;
    }
    if (rounds >= 2 &&
        expected[rounds].TotalSize() < expected[rounds - 1].TotalSize()) {
      ++later_round_removals;
    }
  }
  return later_round_removals;
}

TEST_P(FilterPropertyTest, GqlEqualsPlainRefinementAtEveryRoundCap) {
  const auto [seed, num_labels] = GetParam();
  const auto [data, query] = PropertyInputs(seed, num_labels);
  ExpectGqlEqualsPlainRefinement(query, data,
                                 "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterPropertyTest,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 21),
                                            ::testing::Values(3u)));
INSTANTIATE_TEST_SUITE_P(ManyLabels, FilterPropertyTest,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 11),
                                            ::testing::Values(130u)));

/// NLF the slow way: label and degree test, then per-label neighbour counts
/// read straight from neighbors(), with no slice index and no signature.
std::vector<std::vector<VertexId>> NaiveNlf(const Graph& query,
                                            const Graph& data) {
  auto label_counts = [](const Graph& g, VertexId v) {
    std::map<Label, uint32_t> counts;
    for (VertexId w : g.neighbors(v)) ++counts[g.label(w)];
    return counts;
  };
  std::vector<std::vector<VertexId>> result(query.num_vertices());
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    const auto needed = label_counts(query, u);
    for (VertexId v = 0; v < data.num_vertices(); ++v) {
      if (data.label(v) != query.label(u)) continue;
      if (data.degree(v) < query.degree(u)) continue;
      const auto available = label_counts(data, v);
      bool dominated = true;
      for (const auto& [label, count] : needed) {
        const auto it = available.find(label);
        if (it == available.end() || it->second < count) dominated = false;
      }
      if (dominated) result[u].push_back(v);
    }
  }
  return result;
}

TEST(NlfFilterTest, EqualsNaiveReferenceWithMoreThan64Labels) {
  // 130 labels: labels l and l + 64 share a signature bit, so the data
  // graph's signatures must set a bit for every label, 64 and up included.
  LabelConfig labels;
  labels.num_labels = 130;
  labels.zipf_exponent = 0.3;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const Graph data = GenerateErdosRenyi(400, 8.0, labels, seed).ValueOrDie();
    ASSERT_GT(data.num_labels(), 64u);
    for (uint64_t i = 0; i < 5; ++i) {
      const Graph query = RandomQuery(data, seed * 100 + i, 8);
      const CandidateSet nlf = NLFFilter().Filter(query, data).ValueOrDie();
      const auto expected = NaiveNlf(query, data);
      for (VertexId u = 0; u < query.num_vertices(); ++u) {
        EXPECT_EQ(nlf.candidates(u), expected[u])
            << "seed " << seed << " query " << i << " vertex " << u;
      }
    }
  }
}

/// One vertex's neighbours counted per (direction, edge label, vertex
/// label) key and, over distinct skeleton neighbours, per vertex label.
struct NaiveProfile {
  std::map<std::tuple<EdgeDir, EdgeLabel, Label>, uint32_t> labeled;
  std::map<Label, uint32_t> skeleton;
};

/// Every vertex's NaiveProfile, counted from the labeled edge stream.
std::vector<NaiveProfile> NaiveProfiles(const Graph& g) {
  std::vector<NaiveProfile> out(g.num_vertices());
  std::vector<std::set<VertexId>> adjacent(g.num_vertices());
  g.ForEachLabeledEdge([&](VertexId a, VertexId b, EdgeLabel el) {
    // An undirected graph has one direction class: both ends see kOut.
    ++out[a].labeled[{EdgeDir::kOut, el, g.label(b)}];
    ++out[b].labeled[{g.directed() ? EdgeDir::kIn : EdgeDir::kOut, el,
                      g.label(a)}];
    adjacent[a].insert(b);
    adjacent[b].insert(a);
  });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : adjacent[v]) ++out[v].skeleton[g.label(w)];
  }
  return out;
}

/// NLF the slow way on directed or edge-labeled graphs: v is a candidate
/// of u iff the labels agree and v's count covers u's for every key of
/// u's NaiveProfile, labeled and skeleton alike.
std::vector<std::vector<VertexId>> NaiveLabeledNlf(
    const Graph& query, const Graph& data,
    const std::vector<NaiveProfile>& data_profiles) {
  auto covers = [](const auto& available, const auto& needed) {
    for (const auto& [key, count] : needed) {
      const auto it = available.find(key);
      if (it == available.end() || it->second < count) return false;
    }
    return true;
  };
  const std::vector<NaiveProfile> q = NaiveProfiles(query);
  std::vector<std::vector<VertexId>> result(query.num_vertices());
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    for (VertexId v = 0; v < data.num_vertices(); ++v) {
      if (data.label(v) == query.label(u) &&
          covers(data_profiles[v].labeled, q[u].labeled) &&
          covers(data_profiles[v].skeleton, q[u].skeleton)) {
        result[u].push_back(v);
      }
    }
  }
  return result;
}

/// A directed data graph with two edge labels, like directed_hot's at a
/// small scale.
Graph DirectedData(uint64_t seed, uint32_t vertex_labels) {
  LabelConfig labels;
  labels.num_labels = vertex_labels;
  labels.zipf_exponent = 0.3;
  labels.num_edge_labels = 2;
  labels.directed = true;
  return GenerateErdosRenyi(400, 8.0, labels, seed).ValueOrDie();
}

TEST(NlfFilterTest, EqualsNaiveLabeledReferenceOnDirectedGraphs) {
  for (uint32_t vertex_labels : {4u, 130u}) {
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      const Graph data = DirectedData(seed, vertex_labels);
      const std::vector<NaiveProfile> profiles = NaiveProfiles(data);
      ASSERT_TRUE(data.directed());
      if (vertex_labels > 64) {
        ASSERT_GT(data.num_labels(), 64u);
      }
      for (uint64_t i = 0; i < 5; ++i) {
        const Graph query = RandomQuery(data, seed * 100 + i, 8);
        const CandidateSet nlf = NLFFilter().Filter(query, data).ValueOrDie();
        const auto expected = NaiveLabeledNlf(query, data, profiles);
        for (VertexId u = 0; u < query.num_vertices(); ++u) {
          EXPECT_EQ(nlf.candidates(u), expected[u])
              << vertex_labels << " labels, seed " << seed << " query " << i
              << " vertex " << u;
        }
      }
    }
  }
}

TEST(NlfFilterTest, SkeletonCountTestRejectsWhatLabeledSlicesAdmit) {
  // u0 (label 0) has two label-1 out-neighbours, one over edge label 0 and
  // one over edge label 1.
  GraphBuilder qb;
  qb.set_directed(true);
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1, 0);
  qb.AddEdge(0, 2, 1);
  const Graph q = qb.Build();

  // v0 reaches one label-1 vertex over both edge labels, and has a label-2
  // in-neighbour, so its degree, labeled degrees, signature and labeled
  // slices all cover u0's; only its skeleton count of label 1 falls short.
  // v3 has two label-1 out-neighbours, like u0.
  GraphBuilder gb;
  gb.set_directed(true);
  gb.AddVertex(0);  // v0
  gb.AddVertex(1);  // v1
  gb.AddVertex(2);  // v2
  gb.AddVertex(0);  // v3
  gb.AddVertex(1);  // v4
  gb.AddVertex(1);  // v5
  gb.AddEdge(0, 1, 0);
  gb.AddEdge(0, 1, 1);
  gb.AddEdge(2, 0, 0);
  gb.AddEdge(3, 4, 0);
  gb.AddEdge(3, 5, 1);
  const Graph g = gb.Build();
  ASSERT_EQ(g.degree(0), q.degree(0));
  ASSERT_EQ(g.out_degree(0), q.out_degree(0));
  ASSERT_EQ(g.NeighborsWith(0, EdgeDir::kOut, 0, 1).size(), 1u);
  ASSERT_EQ(g.NeighborsWith(0, EdgeDir::kOut, 1, 1).size(), 1u);

  EXPECT_EQ(LDFFilter().Filter(q, g).ValueOrDie().candidates(0),
            (std::vector<VertexId>{0, 3}));
  EXPECT_EQ(NLFFilter().Filter(q, g).ValueOrDie().candidates(0),
            (std::vector<VertexId>{3}));
  EXPECT_EQ(NaiveLabeledNlf(q, g, NaiveProfiles(g))[0],
            (std::vector<VertexId>{3}));
}

/// A one-edge query whose vertex 0 (label 0) needs one neighbour labelled
/// `needed`, against a data graph with three label-0 vertices: v0 whose
/// only neighbour is labelled `aliased`, v2 with neighbours labelled
/// `needed` and `aliased`, and v5 with two `aliased` neighbours.
void ExpectAliasedLabelIsRejected(Label needed, Label aliased) {
  ASSERT_EQ(needed % 64, aliased % 64);
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(needed);
  qb.AddEdge(0, 1);
  const Graph q = qb.Build();

  GraphBuilder gb;
  gb.AddVertex(0);        // v0
  gb.AddVertex(aliased);  // v1
  gb.AddVertex(0);        // v2
  gb.AddVertex(needed);   // v3
  gb.AddVertex(aliased);  // v4
  gb.AddVertex(0);        // v5
  gb.AddVertex(aliased);  // v6
  gb.AddEdge(0, 1);
  gb.AddEdge(2, 3);
  gb.AddEdge(2, 4);
  gb.AddEdge(5, 1);
  gb.AddEdge(5, 6);
  const Graph g = gb.Build();
  // The screen cannot tell the labels apart: v0 and v5 cover u0's bit.
  const auto masks = g.NeighborLabelMasks();
  EXPECT_EQ(masks[0], q.NeighborLabelMask(0));
  EXPECT_EQ(masks[5], q.NeighborLabelMask(0));

  EXPECT_EQ(LDFFilter().Filter(q, g).ValueOrDie().candidates(0),
            (std::vector<VertexId>{0, 2, 5}));
  const CandidateSet nlf = NLFFilter().Filter(q, g).ValueOrDie();
  const CandidateSet gql = GQLFilter().Filter(q, g).ValueOrDie();
  const CandidateSet dag = DagDpFilter().Filter(q, g).ValueOrDie();
  for (const CandidateSet* cs : {&nlf, &gql, &dag}) {
    EXPECT_EQ(cs->candidates(0), (std::vector<VertexId>{2}))
        << "needed " << needed << ", aliased " << aliased;
  }
}

TEST(NlfFilterTest, CountTestRejectsWhatTheSignatureAliases) {
  ExpectAliasedLabelIsRejected(/*needed=*/6, /*aliased=*/70);
  ExpectAliasedLabelIsRejected(/*needed=*/70, /*aliased=*/6);
}

TEST(GqlFilterTest, EqualsPlainRefinementOnDirectedGraphs) {
  int later_round_removals = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph data = DirectedData(seed, 4);
    for (uint64_t i = 0; i < 5; ++i) {
      const Graph query = RandomQuery(data, seed * 100 + i, 8);
      later_round_removals += ExpectGqlEqualsPlainRefinement(
          query, data,
          "seed " + std::to_string(seed) + " query " + std::to_string(i));
    }
  }
  // Rounds after the first pruned something, so vertex skipping was tested.
  EXPECT_GT(later_round_removals, 0);
}

TEST(GqlFilterTest, EqualsPlainRefinementOnZipfLabeledPowerLawGraphs) {
  LabelConfig labels;
  labels.num_labels = 16;
  labels.zipf_exponent = 1.2;
  int later_round_removals = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph data =
        GeneratePowerLaw(400, 16.0, 2.2, labels, seed).ValueOrDie();
    for (uint64_t i = 0; i < 5; ++i) {
      const Graph query = RandomQuery(data, seed * 100 + i, 7);
      later_round_removals += ExpectGqlEqualsPlainRefinement(
          query, data,
          "seed " + std::to_string(seed) + " query " + std::to_string(i));
    }
  }
  EXPECT_GT(later_round_removals, 0);
}

/// DAG-DP with its membership table rebuilt from the candidate sets at the
/// start of every sweep, and each removal cleared from it at once: the
/// filter as it ran when it re-stamped per sweep. Unlike the filter it
/// scans all of N(v) for a witness and tests every parallel edge with
/// HasEdge. `sweep_pairs` top-down/bottom-up pairs run.
CandidateSet PerSweepDagDp(const Graph& query, const Graph& data,
                           int sweep_pairs) {
  CandidateSet cs = NLFFilter().Filter(query, data).ValueOrDie();
  const uint32_t nq = query.num_vertices();
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
  std::vector<int> level(nq, -1);
  std::vector<VertexId> bfs_order = {root};
  level[root] = 0;
  for (size_t i = 0; i < bfs_order.size(); ++i) {
    for (VertexId w : query.neighbors(bfs_order[i])) {
      if (level[w] < 0) {
        level[w] = level[bfs_order[i]] + 1;
        bfs_order.push_back(w);
      }
    }
  }
  auto is_parent = [&](VertexId p, VertexId child) {
    return level[p] < level[child] || (level[p] == level[child] && p < child);
  };
  std::vector<std::vector<bool>> member(nq);
  std::vector<std::pair<EdgeDir, EdgeLabel>> edges;
  for (int sweep = 0; sweep < 2 * sweep_pairs; ++sweep) {
    const bool top_down = sweep % 2 == 0;
    for (VertexId u = 0; u < nq; ++u) {
      member[u].assign(data.num_vertices(), false);
      for (VertexId v : cs.candidates(u)) member[u][v] = true;
    }
    for (size_t i = 0; i < bfs_order.size(); ++i) {
      const VertexId u = bfs_order[top_down ? i : bfs_order.size() - 1 - i];
      std::vector<VertexId> kept;
      for (VertexId v : cs.candidates(u)) {
        bool ok = true;
        for (VertexId w : query.neighbors(u)) {
          if (!(top_down ? is_parent(w, u) : is_parent(u, w))) continue;
          edges.clear();
          query.EdgesBetween(u, w, &edges);
          bool witness = false;
          for (VertexId x : data.neighbors(v)) {
            if (!member[w][x]) continue;
            witness = true;
            for (const auto& [dir, elabel] : edges) {
              witness = witness && data.HasEdge(v, x, dir, elabel);
            }
            if (witness) break;
          }
          if (!witness) {
            ok = false;
            break;
          }
        }
        if (ok) {
          kept.push_back(v);
        } else {
          member[u][v] = false;
        }
      }
      cs.Set(u, std::move(kept));
    }
  }
  return cs;
}

/// DagDpFilter stamps its membership once per call. It must return the
/// per-sweep reference's sets, stamped and (on a fresh thread whose stamp
/// array `workspace.grow` keeps from growing) by binary search. Later
/// sweep pairs must prune something on these inputs, so they read what
/// earlier sweeps cleared.
TEST(DagDpFilterTest, StampedOnceEqualsPerSweepReference) {
  int later_sweep_removals = 0;
  size_t dag_total = 0, nlf_total = 0;
  auto check = [&](const Graph& query, const Graph& data,
                   const std::string& what) {
    const CandidateSet expected =
        PerSweepDagDp(query, data, DagDpFilter::kNumSweeps);
    const CandidateSet stamped = DagDpFilter().Filter(query, data).ValueOrDie();
    CandidateSet searched;
    std::thread([&] {
      EXPECT_TRUE(failpoint::Activate("workspace.grow", "error").ok());
      searched = DagDpFilter().Filter(query, data).ValueOrDie();
      failpoint::Deactivate("workspace.grow");
    }).join();
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_EQ(stamped.candidates(u), expected.candidates(u))
          << what << " vertex " << u;
      EXPECT_EQ(searched.candidates(u), expected.candidates(u))
          << what << " vertex " << u << " (binary search)";
    }
    later_sweep_removals +=
        expected.TotalSize() < PerSweepDagDp(query, data, 1).TotalSize();
    dag_total += expected.TotalSize();
    nlf_total += NLFFilter().Filter(query, data).ValueOrDie().TotalSize();
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph data = RandomData(seed, 200, 5.0, 3);
    for (uint64_t i = 0; i < 3; ++i) {
      check(RandomQuery(data, seed * 100 + i, 6 + i), data,
            "undirected seed " + std::to_string(seed) + " query " +
                std::to_string(i));
    }
  }
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Graph data = DirectedData(seed, 4);
    for (uint64_t i = 0; i < 3; ++i) {
      check(RandomQuery(data, seed * 100 + i, 8), data,
            "directed seed " + std::to_string(seed) + " query " +
                std::to_string(i));
    }
  }
  EXPECT_LT(dag_total, nlf_total);
  EXPECT_GT(later_sweep_removals, 0);
}

/// Builds an undirected graph from vertex labels and edges.
Graph MakeGraph(const std::vector<Label>& labels,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder b;
  for (Label l : labels) b.AddVertex(l);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return b.Build();
}

TEST(GqlFilterTest, RechecksAVertexWhoseNeighbourLostACandidateAfterIt) {
  // Path query u0(0) - u1(1) - u2(2) - u3(3).
  const Graph q = MakeGraph({0, 1, 2, 3}, {{0, 1}, {1, 2}, {2, 3}});
  // The path a0 - b0 - c0 - d0 (v0..v3) matches it. v4 - v5 - v6 is a
  // decoy: v6 has no label-3 neighbour, so NLF drops it from C(u2), while
  // v4 in C(u0) and v5 in C(u1) survive NLF.
  const Graph g = MakeGraph({0, 1, 2, 3, 0, 1, 2},
                            {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}});
  const CandidateSet nlf = NLFFilter().Filter(q, g).ValueOrDie();
  ASSERT_EQ(nlf.candidates(0), (std::vector<VertexId>{0, 4}));
  ASSERT_EQ(nlf.candidates(1), (std::vector<VertexId>{1, 5}));
  ASSERT_EQ(nlf.candidates(2), (std::vector<VertexId>{2}));

  // Round 1 checks u0 while v5 is still in C(u1), then drops v5 from C(u1).
  // Only round 2, which must re-check u0, drops v4 from C(u0).
  const CandidateSet one = GQLFilter(1).Filter(q, g).ValueOrDie();
  EXPECT_EQ(one.candidates(0), (std::vector<VertexId>{0, 4}));
  EXPECT_EQ(one.candidates(1), (std::vector<VertexId>{1}));
  for (int rounds = 2; rounds <= 4; ++rounds) {
    const CandidateSet cs = GQLFilter(rounds).Filter(q, g).ValueOrDie();
    for (VertexId u = 0; u < 4; ++u) {
      EXPECT_EQ(cs.candidates(u), (std::vector<VertexId>{u}))
          << rounds << " rounds, vertex " << u;
    }
  }
  ExpectGqlEqualsPlainRefinement(q, g, "path");
}

TEST(GqlFilterTest, RejectsADataVertexLackingAQueryNeighboursLabel) {
  // u0 (label 0) has neighbours labelled 1 and 2.
  const Graph q = MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}});
  // Of the label-0 data vertices with two neighbours, v0's neighbours are
  // labelled 1 and 3 (the missing label falls between), v3's 1 and 1 (it
  // falls past the end), and only v6's carry both 1 and 2.
  const Graph g = MakeGraph({0, 1, 3, 0, 1, 1, 0, 1, 2},
                            {{0, 1}, {0, 2}, {3, 4}, {3, 5}, {6, 7}, {6, 8}});
  EXPECT_EQ(LDFFilter().Filter(q, g).ValueOrDie().candidates(0),
            (std::vector<VertexId>{0, 3, 6}));
  // NLF's count test already drops such a vertex; no round cap brings it
  // back.
  for (int rounds = 0; rounds <= 4; ++rounds) {
    EXPECT_EQ(GQLFilter(rounds).Filter(q, g).ValueOrDie().candidates(0),
              (std::vector<VertexId>{6}))
        << rounds << " rounds";
  }
  ExpectGqlEqualsPlainRefinement(q, g, "missing label");
}

TEST(GqlFilterTest, SameLabelNeighboursNeedAnAugmentingPath) {
  // u0 (label 0) has two label-1 neighbours; u2 also needs a label-2
  // neighbour, u1 does not.
  const Graph q = MakeGraph({0, 1, 1, 2}, {{0, 1}, {0, 2}, {2, 3}});
  // v0 has label-1 neighbours v1 and v2; only v1 has a label-2 neighbour,
  // so C(u1) = {v1, v2} and C(u2) = {v1}. Placing u1 first on its first
  // free candidate v1 leaves u2 nothing; the augmenting path moves u1 to
  // v2. v0 is in a match (u0 v0, u1 v2, u2 v1, u3 v3), so it must stay.
  const Graph g = MakeGraph({0, 1, 1, 2}, {{0, 1}, {0, 2}, {1, 3}});
  const CandidateSet nlf = NLFFilter().Filter(q, g).ValueOrDie();
  ASSERT_EQ(nlf.candidates(1), (std::vector<VertexId>{1, 2}));
  ASSERT_EQ(nlf.candidates(2), (std::vector<VertexId>{1}));
  ASSERT_EQ(BruteForceMatch(q, g).size(), 1u);
  for (int rounds = 1; rounds <= 4; ++rounds) {
    EXPECT_EQ(GQLFilter(rounds).Filter(q, g).ValueOrDie().candidates(0),
              (std::vector<VertexId>{0}))
        << rounds << " rounds";
  }
  ExpectGqlEqualsPlainRefinement(q, g, "augmenting path");
}

TEST(GqlFilterTest, ConcurrentFirstUseOfADataGraphMatchesSerial) {
  const Graph reference_data = RandomData(7, 300, 6.0, 100);
  const Graph query = RandomQuery(reference_data, 71, 6);
  const CandidateSet serial =
      GQLFilter().Filter(query, reference_data).ValueOrDie();

  // A fresh graph, so the four threads race to build its signatures.
  const Graph data = RandomData(7, 300, 6.0, 100);
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<CandidateSet> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      results[t] = GQLFilter().Filter(query, data).ValueOrDie();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const CandidateSet& result : results) {
    ASSERT_EQ(result.num_query_vertices(), query.num_vertices());
    for (VertexId u = 0; u < query.num_vertices(); ++u) {
      EXPECT_EQ(result.candidates(u), serial.candidates(u));
    }
  }
}

// The refinement filters' stamp array is charged to the memory budget, and
// a denied charge falls back to binary-search membership with identical
// candidate sets. The denied runs use a fresh thread, so its thread-local
// stamp array starts empty and every filter call must try to grow it.
TEST(FiltersTest, DeniedStampGrowthKeepsGqlAndDagDpExact) {
  const Graph data = RandomData(17, 200, 5.0, 3);
  std::vector<Graph> queries;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    queries.push_back(RandomQuery(data, 90 + seed, 6));
  }
  auto run_filters = [&] {
    std::vector<CandidateSet> out;
    for (const Graph& q : queries) {
      out.push_back(GQLFilter().Filter(q, data).ValueOrDie());
      out.push_back(DagDpFilter().Filter(q, data).ValueOrDie());
    }
    return out;
  };
  const std::vector<CandidateSet> unconstrained = run_filters();

  ASSERT_TRUE(failpoint::Activate("budget.charge", "error").ok());
  const uint64_t denials_before = MemoryBudget::Global().denials();
  std::vector<CandidateSet> denied;
  std::thread([&] { denied = run_filters(); }).join();
  const uint64_t denials = MemoryBudget::Global().denials() - denials_before;
  failpoint::Deactivate("budget.charge");

  // At least one denied growth per filter call: the buffer never grew.
  EXPECT_GE(denials, 2 * queries.size());
  ASSERT_EQ(denied.size(), unconstrained.size());
  uint64_t refined = 0, nlf = 0;
  for (size_t i = 0; i < denied.size(); ++i) {
    const Graph& q = queries[i / 2];
    for (VertexId u = 0; u < q.num_vertices(); ++u) {
      EXPECT_EQ(denied[i].candidates(u), unconstrained[i].candidates(u))
          << "query " << i / 2 << (i % 2 == 0 ? " GQL" : " DAG-DP")
          << " vertex " << u;
    }
    refined += unconstrained[i].TotalSize();
    nlf += NLFFilter().Filter(q, data).ValueOrDie().TotalSize();
  }
  // The membership tests decided something: refinement pruned below NLF.
  EXPECT_LT(refined, nlf);
}

TEST(FiltersTest, CandidateSetBasics) {
  CandidateSet cs(2);
  cs.Set(0, {5, 3, 3, 1});
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{1, 3, 5}));
  EXPECT_TRUE(cs.Contains(0, 3));
  EXPECT_FALSE(cs.Contains(0, 2));
  EXPECT_TRUE(cs.AnyEmpty());
  cs.Set(1, {0});
  EXPECT_FALSE(cs.AnyEmpty());
  EXPECT_EQ(cs.TotalSize(), 4u);
  EXPECT_NE(cs.ToString().find("C(0)=3"), std::string::npos);
}

TEST(FiltersTest, CandidateSetSortsOnlyWhatIsNotStrictlyAscending) {
  CandidateSet cs(1);
  cs.Set(0, {1, 2, 2, 7});  // ascending, but with a duplicate
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{1, 2, 7}));
  cs.Set(0, {4, 9, 6});  // one descent
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{4, 6, 9}));
  cs.Set(0, {2, 3, 8});
  EXPECT_EQ(cs.candidates(0), (std::vector<VertexId>{2, 3, 8}));

  // A strictly ascending list is kept as is, capacity included, and the
  // set accounts for that capacity.
  std::vector<VertexId> sorted = {1, 4, 5};
  sorted.reserve(64);
  const VertexId* storage = sorted.data();
  cs.Set(0, std::move(sorted));
  EXPECT_EQ(cs.candidates(0).data(), storage);
  EXPECT_EQ(cs.AllocatedBytes(),
            sizeof(std::vector<VertexId>) + 64 * sizeof(VertexId));
}

/// A candidate set over `data_vertices` vertices holding each (u, v) with
/// probability `fill`.
CandidateSet RandomCandidates(uint64_t seed, uint32_t nq,
                              uint32_t data_vertices, double fill) {
  Rng rng(seed);
  CandidateSet cs(nq);
  for (VertexId u = 0; u < nq; ++u) {
    std::vector<VertexId> c;
    for (VertexId v = 0; v < data_vertices; ++v) {
      if (rng.NextDouble() < fill) c.push_back(v);
    }
    cs.Set(u, std::move(c));
  }
  return cs;
}

/// Expects `m` to answer CandidateSet::Contains of `cs` on every cell.
void ExpectMembershipIs(const CandidateMembership& m, const CandidateSet& cs,
                        uint32_t data_vertices, const std::string& what) {
  for (VertexId u = 0; u < cs.num_query_vertices(); ++u) {
    for (VertexId v = 0; v < data_vertices; ++v) {
      ASSERT_EQ(m.Test(u, v), cs.Contains(u, v))
          << what << ": u " << u << " v " << v;
    }
  }
}

TEST(FiltersTest, CandidateMembershipStampedAndBoundAgreeWithContains) {
  const CandidateSet cs = RandomCandidates(1, 5, 300, 0.2);
  CandidateMembership m;
  EXPECT_FALSE(m.stamped());
  EXPECT_TRUE(m.Stamp(cs, 300));
  EXPECT_TRUE(m.stamped());
  EXPECT_EQ(m.stamp_bytes(), 5u * 300u);
  ExpectMembershipIs(m, cs, 300, "stamped");
  m.Bind(cs);
  EXPECT_FALSE(m.stamped());
  EXPECT_EQ(m.stamp_bytes(), 5u * 300u);  // binding keeps the array
  ExpectMembershipIs(m, cs, 300, "bound");
}

TEST(FiltersTest, CandidateMembershipClearRemovesOneStampedCell) {
  CandidateSet cs = RandomCandidates(2, 3, 100, 0.3);
  CandidateMembership m;
  ASSERT_TRUE(m.Stamp(cs, 100));
  const VertexId u = 1;
  const VertexId v = cs.candidates(u)[cs.candidates(u).size() / 2];
  m.Clear(u, v);
  EXPECT_FALSE(m.Test(u, v));
  // Mirrored in the set, the clear leaves stamps equal to binary search.
  std::vector<VertexId> rest;
  for (VertexId x : cs.candidates(u)) {
    if (x != v) rest.push_back(x);
  }
  const std::vector<VertexId> before = cs.candidates(u);
  cs.Set(u, rest);
  ExpectMembershipIs(m, cs, 100, "after Clear");
  // The next Stamp rebuilds from the set, so the cleared cell is back.
  cs.Set(u, before);
  ASSERT_TRUE(m.Stamp(cs, 100));
  EXPECT_TRUE(m.Test(u, v));
  // A bound membership answers from the set: Clear is a no-op.
  m.Bind(cs);
  m.Clear(u, v);
  EXPECT_TRUE(m.Test(u, v));
}

/// One instance across 600 stamps (two epoch wraps) of sets over data
/// graphs of three sizes, some members cleared in between: every stamp
/// reads exactly its own set, and the array grows only to a larger
/// footprint. The first stamp marks every cell of its footprint, and later
/// sets leave many of those cells alone, so they still hold epoch 1 when
/// the epoch wraps back to 1: only the zero-fill keeps them out.
TEST(FiltersTest, CandidateMembershipReuseAcrossEpochWrapsAndGraphSizes) {
  struct Shape {
    CandidateSet cs;
    uint32_t data_vertices;
  };
  const Shape first = {RandomCandidates(9, 5, 300, 1.0), 300};
  const Shape shapes[] = {{RandomCandidates(3, 5, 50, 0.3), 50},
                          {RandomCandidates(4, 4, 400, 0.05), 400},
                          {RandomCandidates(5, 6, 120, 0.5), 120}};
  CandidateMembership m;
  Rng rng(6);
  for (int i = 0; i < 600; ++i) {
    const Shape& shape = i == 0 ? first : shapes[i % 3];
    ASSERT_TRUE(m.Stamp(shape.cs, shape.data_vertices));
    ExpectMembershipIs(m, shape.cs, shape.data_vertices,
                       "stamp " + std::to_string(i));
    // Clear members only: non-member cells must keep their stale stamps.
    for (int k = 0; k < 5; ++k) {
      const auto u = static_cast<VertexId>(
          rng.NextBounded(shape.cs.num_query_vertices()));
      const std::vector<VertexId>& c = shape.cs.candidates(u);
      if (c.empty()) continue;
      const VertexId v = c[rng.NextBounded(c.size())];
      m.Clear(u, v);
      ASSERT_FALSE(m.Test(u, v));
    }
  }
  EXPECT_EQ(m.stats().epoch_resets, 2u);
  EXPECT_EQ(m.stats().stamp_grows, 2u);  // 1500 bytes, then 1600
  EXPECT_EQ(m.stamp_bytes(), 1600u);
  EXPECT_EQ(m.stats().denied_grows, 0u);
}

/// Growth denied by the `workspace.grow` failpoint or by the memory budget
/// binds for binary search with the same answers; an array grown before
/// keeps serving footprints that fit it.
TEST(FiltersTest, CandidateMembershipDeniedGrowthAnswersByBinarySearch) {
  const CandidateSet small = RandomCandidates(7, 3, 80, 0.3);
  const CandidateSet large = RandomCandidates(8, 5, 200, 0.2);
  for (const char* site : {"workspace.grow", "budget.charge"}) {
    SCOPED_TRACE(site);
    CandidateMembership m;
    ASSERT_TRUE(failpoint::Activate(site, "error").ok());
    EXPECT_FALSE(m.Stamp(small, 80));
    EXPECT_FALSE(m.stamped());
    EXPECT_EQ(m.stamp_bytes(), 0u);
    ExpectMembershipIs(m, small, 80, "denied");
    failpoint::Deactivate(site);
    EXPECT_TRUE(m.Stamp(small, 80));
    ExpectMembershipIs(m, small, 80, "granted");

    ASSERT_TRUE(failpoint::Activate(site, "error").ok());
    EXPECT_FALSE(m.Stamp(large, 200));  // needs 1000 bytes, has 240
    ExpectMembershipIs(m, large, 200, "denied larger");
    EXPECT_TRUE(m.Stamp(small, 80));  // fits: no growth to deny
    ExpectMembershipIs(m, small, 80, "fits while denied");
    failpoint::Deactivate(site);
    EXPECT_EQ(m.stats().denied_grows, 2u);
    EXPECT_EQ(m.stats().stamp_grows, 1u);
    EXPECT_EQ(m.stamp_bytes(), 240u);
  }
}

/// A footprint over kMaxStampBytes binds for binary search without
/// charging or allocating anything; it is not a denied growth.
TEST(FiltersTest, CandidateMembershipOverTheCapBindsWithoutAllocating) {
  const uint32_t data_vertices = static_cast<uint32_t>(
      CandidateMembership::kMaxStampBytes / 2 + 1);
  CandidateSet cs(2);
  cs.Set(0, {3, data_vertices - 1});
  cs.Set(1, {7});
  CandidateMembership m;
  const size_t used_before = MemoryBudget::Global().used_bytes();
  EXPECT_FALSE(m.Stamp(cs, data_vertices));
  EXPECT_EQ(MemoryBudget::Global().used_bytes(), used_before);
  EXPECT_EQ(m.stamp_bytes(), 0u);
  EXPECT_EQ(m.stats().denied_grows, 0u);
  EXPECT_TRUE(m.Test(0, data_vertices - 1));
  EXPECT_TRUE(m.Test(1, 7));
  EXPECT_FALSE(m.Test(0, 7));
  EXPECT_FALSE(m.Test(1, data_vertices - 1));
}

}  // namespace
}  // namespace rlqvo
