#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <thread>
#include <tuple>

#include "common/failpoint.h"
#include "common/memory_budget.h"
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

TEST_P(FilterPropertyTest, CompletenessAndContainment) {
  const auto [seed, num_labels] = GetParam();
  // More than 64 labels put labels that share a signature bit into one
  // graph; a larger graph keeps such labels on both sides of the screen.
  Graph data = num_labels > 64 ? RandomData(seed, 300, 6.0, num_labels)
                               : RandomData(seed, 60, 4.0, num_labels);
  Graph query = RandomQuery(data, seed * 31 + 1, 3 + seed % 3);

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

}  // namespace
}  // namespace rlqvo
