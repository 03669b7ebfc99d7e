#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/rlqvo.h"
#include "graph/graph_algorithms.h"
#include "matching/filters.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

OrderingContext MakeContext(const Graph* q, const Graph* g,
                            const CandidateSet* cs) {
  OrderingContext ctx;
  ctx.query = q;
  ctx.data = g;
  ctx.candidates = cs;
  return ctx;
}

TEST(RIOrderingTest, StartsAtMaxDegree) {
  // Star: center 0 with 3 leaves.
  GraphBuilder qb;
  for (int i = 0; i < 4; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  qb.AddEdge(0, 3);
  Graph q = qb.Build();
  RIOrdering ri;
  auto ctx = MakeContext(&q, nullptr, nullptr);
  auto order = ri.MakeOrder(ctx).ValueOrDie();
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order.size(), 4u);
}

TEST(RIOrderingTest, PrefersMostBackwardNeighbors) {
  // Square with diagonal: 0-1, 1-2, 2-3, 3-0, 0-2. Degrees: 0:3, 2:3.
  GraphBuilder qb;
  for (int i = 0; i < 4; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 3);
  qb.AddEdge(3, 0);
  qb.AddEdge(0, 2);
  Graph q = qb.Build();
  RIOrdering ri;
  auto ctx = MakeContext(&q, nullptr, nullptr);
  auto order = ri.MakeOrder(ctx).ValueOrDie();
  EXPECT_EQ(order[0], 0u);  // max degree, lowest id tie-break
  EXPECT_TRUE(q.HasEdge(order[0], order[1]));
  // After two picks, the third must be the vertex with TWO backward
  // neighbors: starting {0,1} that is 2 (adjacent to both); starting {0,2}
  // both 1 and 3 qualify.
  int backward = 0;
  for (VertexId w : q.neighbors(order[2])) {
    backward += (w == order[0] || w == order[1]);
  }
  EXPECT_EQ(backward, 2);
}

TEST(QSIOrderingTest, StartsWithInfrequentEdge) {
  // Query edge labels: (0,1) and (1,1). Data has many (1,1) edges but only
  // one (0,1) edge, so QSI must start with the (0,1) edge.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  Graph q = qb.Build();

  GraphBuilder gb;
  gb.AddVertex(0);                       // v0
  for (int i = 0; i < 6; ++i) gb.AddVertex(1);  // v1..v6
  gb.AddEdge(0, 1);                      // the single (0,1) edge
  gb.AddEdge(1, 2);
  gb.AddEdge(2, 3);
  gb.AddEdge(3, 4);
  gb.AddEdge(4, 5);
  gb.AddEdge(5, 6);
  Graph g = gb.Build();

  QSIOrdering qsi;
  auto ctx = MakeContext(&q, &g, nullptr);
  auto order = qsi.MakeOrder(ctx).ValueOrDie();
  // First two vertices must be the endpoints of the rare edge, rarer label
  // first.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
}

TEST(QSIOrderingTest, RequiresDataGraph) {
  Graph q = RandomQuery(RandomData(3), 4, 4);
  QSIOrdering qsi;
  auto ctx = MakeContext(&q, nullptr, nullptr);
  EXPECT_FALSE(qsi.MakeOrder(ctx).ok());
}

TEST(VF2PPOrderingTest, RootHasRarestLabel) {
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  Graph q = qb.Build();
  GraphBuilder gb;
  gb.AddVertex(0);  // label 0 occurs once
  for (int i = 0; i < 9; ++i) gb.AddVertex(1);
  gb.AddEdge(0, 1);
  for (int i = 1; i < 9; ++i) gb.AddEdge(i, i + 1);
  Graph g = gb.Build();
  VF2PPOrdering vf;
  auto ctx = MakeContext(&q, &g, nullptr);
  auto order = vf.MakeOrder(ctx).ValueOrDie();
  EXPECT_EQ(q.label(order[0]), 0u);
}

TEST(GQLOrderingTest, StartsAtSmallestCandidateSet) {
  Graph data = RandomData(11);
  Graph q = RandomQuery(data, 12, 5);
  CandidateSet cs = GQLFilter().Filter(q, data).ValueOrDie();
  GQLOrdering gql;
  auto ctx = MakeContext(&q, &data, &cs);
  auto order = gql.MakeOrder(ctx).ValueOrDie();
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    EXPECT_GE(cs.candidates(u).size(), cs.candidates(order[0]).size());
  }
}

TEST(GQLOrderingTest, RequiresCandidates) {
  Graph data = RandomData(13);
  Graph q = RandomQuery(data, 14, 4);
  GQLOrdering gql;
  auto ctx = MakeContext(&q, &data, nullptr);
  EXPECT_FALSE(gql.MakeOrder(ctx).ok());
}

TEST(NecClassesTest, GroupsEquivalentLeaves) {
  // Star: center 0 (label 0) with leaves 1,2 (label 1) and leaf 3 (label 2).
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddVertex(2);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  qb.AddEdge(0, 3);
  Graph q = qb.Build();
  auto nec = ComputeNecClasses(q);
  EXPECT_EQ(nec[1], nec[2]);  // same label, same neighbor
  EXPECT_NE(nec[1], nec[3]);  // different label
  EXPECT_NE(nec[0], nec[1]);  // center is a singleton
}

TEST(NecClassesTest, DifferentNeighborsSeparateClasses) {
  // Path 0-1-2-3: vertices 0 and 3 are degree-1 with the same label but
  // different neighbors.
  GraphBuilder qb;
  for (int i = 0; i < 4; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 3);
  Graph q = qb.Build();
  auto nec = ComputeNecClasses(q);
  EXPECT_NE(nec[0], nec[3]);
}

TEST(VEQOrderingTest, PostponesLeaves) {
  // Star center plus leaves: the center must come first, leaves last.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  qb.AddEdge(0, 3);
  Graph q = qb.Build();
  Graph data = RandomData(15, 80, 5.0, 2);
  CandidateSet cs = NLFFilter().Filter(q, data).ValueOrDie();
  VEQOrdering veq;
  auto ctx = MakeContext(&q, &data, &cs);
  auto order = veq.MakeOrder(ctx).ValueOrDie();
  EXPECT_EQ(order[0], 0u);
}

TEST(CFLOrderingTest, CoreBeforeForestBeforeLeaves) {
  // Triangle core {0,1,2}; forest vertex 3 (degree 2 path); leaf 4.
  GraphBuilder qb;
  for (int i = 0; i < 5; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 0);
  qb.AddEdge(2, 3);
  qb.AddEdge(3, 4);
  Graph q = qb.Build();
  Graph data = RandomData(19, 80, 5.0, 1);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  CFLOrdering cfl;
  auto ctx = MakeContext(&q, &data, &cs);
  auto order = cfl.MakeOrder(ctx).ValueOrDie();
  // The three core vertices must occupy the first three positions; the
  // leaf must come last.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_LT(order[i], 3u) << "position " << i;
  }
  EXPECT_EQ(order[3], 3u);
  EXPECT_EQ(order[4], 4u);
}

TEST(CFLOrderingTest, TreeQueryStillWorks) {
  // No 2-core at all: internal vertices become the leading stratum.
  GraphBuilder qb;
  for (int i = 0; i < 4; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 3);
  Graph q = qb.Build();
  Graph data = RandomData(20, 60, 4.0, 1);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  CFLOrdering cfl;
  auto ctx = MakeContext(&q, &data, &cs);
  auto order = cfl.MakeOrder(ctx).ValueOrDie();
  EXPECT_TRUE(IsValidMatchingOrder(q, order));
  // Degree-2 internal vertices (1, 2) precede the endpoints.
  EXPECT_TRUE(order[0] == 1 || order[0] == 2);
}

TEST(CFLOrderingTest, RequiresCandidates) {
  Graph data = RandomData(21);
  Graph q = RandomQuery(data, 22, 4);
  CFLOrdering cfl;
  auto ctx = MakeContext(&q, &data, nullptr);
  EXPECT_FALSE(cfl.MakeOrder(ctx).ok());
}

TEST(OrderingTest, DisconnectedQueryRejected) {
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  Graph q = qb.Build();  // two isolated vertices
  RIOrdering ri;
  auto ctx = MakeContext(&q, nullptr, nullptr);
  EXPECT_FALSE(ri.MakeOrder(ctx).ok());
}

TEST(OrderingTest, SingleVertexQuery) {
  GraphBuilder qb;
  qb.AddVertex(0);
  Graph q = qb.Build();
  Graph data = RandomData(16);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  for (const char* name :
       {"RI", "QSI", "VF2PP", "GQL", "VEQ", "CFL", "Random"}) {
    auto ordering = MakeOrdering(name).ValueOrDie();
    auto ctx = MakeContext(&q, &data, &cs);
    auto order = ordering->MakeOrder(ctx);
    ASSERT_TRUE(order.ok()) << name << ": " << order.status().ToString();
    EXPECT_EQ(*order, (std::vector<VertexId>{0})) << name;
  }
}

TEST(OrderingTest, FactoryRejectsUnknown) {
  EXPECT_FALSE(MakeOrdering("nope").ok());
}

TEST(RandomOrderingTest, SeededRngReproduces) {
  Graph data = RandomData(17);
  Graph q = RandomQuery(data, 18, 8);
  RandomOrdering random;
  Rng rng1(5), rng2(5);
  auto ctx1 = MakeContext(&q, &data, nullptr);
  ctx1.rng = &rng1;
  auto ctx2 = MakeContext(&q, &data, nullptr);
  ctx2.rng = &rng2;
  EXPECT_EQ(random.MakeOrder(ctx1).ValueOrDie(),
            random.MakeOrder(ctx2).ValueOrDie());
}

Graph BuildQuery(std::initializer_list<Label> labels,
                 std::initializer_list<std::pair<VertexId, VertexId>> edges) {
  GraphBuilder b;
  for (Label l : labels) b.AddVertex(l);
  for (auto [u, v] : edges) b.AddEdge(u, v);
  return b.Build();
}

/// Equal labels and degrees: every ordering meets a tie at every step.
Graph Cycle6() {
  return BuildQuery({0, 0, 0, 0, 0, 0},
                    {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
}

/// Center 0; three interchangeable label-1 leaves and one label-0 leaf.
Graph Star5() {
  return BuildQuery({0, 1, 1, 1, 0}, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
}

/// An equal-label K4 {0..3} with the path 3-4-5 hanging off it.
Graph CliqueWithTail() {
  return BuildQuery({0, 0, 0, 0, 0, 1}, {{0, 1},
                                         {0, 2},
                                         {0, 3},
                                         {1, 2},
                                         {1, 3},
                                         {2, 3},
                                         {3, 4},
                                         {4, 5}});
}

/// Every ordering's full order on the tie-heavy queries above, LDF
/// candidates, Random seeded with 7. Each query meets ties, so a changed
/// tie rule (e.g. the highest id winning one) changes these orders.
TEST(OrderingTest, PinnedOrdersOnTies) {
  const Graph data = RandomData(31, 60, 4.0, 2);
  using Orders = std::map<std::string, std::vector<VertexId>>;
  const std::vector<std::pair<Graph, Orders>> cases = {
      {Cycle6(),
       {{"RI", {0, 1, 2, 3, 4, 5}},
        {"QSI", {0, 1, 2, 3, 4, 5}},
        {"VF2PP", {0, 1, 5, 2, 4, 3}},
        {"GQL", {0, 1, 2, 3, 4, 5}},
        {"VEQ", {0, 1, 2, 3, 4, 5}},
        {"CFL", {0, 1, 2, 3, 4, 5}},
        {"Random", {0, 1, 2, 3, 4, 5}}}},
      {Star5(),
       {{"RI", {0, 1, 2, 3, 4}},
        {"QSI", {0, 4, 1, 2, 3}},
        {"VF2PP", {1, 0, 2, 3, 4}},
        {"GQL", {0, 1, 2, 3, 4}},
        {"VEQ", {0, 1, 2, 3, 4}},
        {"CFL", {0, 1, 2, 3, 4}},
        {"Random", {4, 0, 1, 2, 3}}}},
      {CliqueWithTail(),
       {{"RI", {3, 0, 1, 2, 4, 5}},
        {"QSI", {0, 1, 2, 3, 4, 5}},
        {"VF2PP", {5, 4, 3, 0, 1, 2}},
        {"GQL", {3, 0, 1, 2, 4, 5}},
        {"VEQ", {3, 0, 1, 2, 4, 5}},
        {"CFL", {3, 0, 1, 2, 4, 5}},
        {"Random", {0, 3, 1, 2, 4, 5}}}},
  };
  for (size_t c = 0; c < cases.size(); ++c) {
    const Graph& q = cases[c].first;
    const CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
    for (const auto& [name, expected] : cases[c].second) {
      auto ctx = MakeContext(&q, &data, &cs);
      Rng rng(7);
      ctx.rng = &rng;
      auto order = MakeOrdering(name).ValueOrDie()->MakeOrder(ctx);
      ASSERT_TRUE(order.ok()) << name << ": " << order.status().ToString();
      EXPECT_EQ(*order, expected) << name << " on case " << c;
    }
  }
}

/// Untrained RL-QVO on a disconnected query: the policy orders the
/// isolated vertex 5, the action space empties, RI refuses the query, and
/// the greedy completion seeds each further component by degree.
TEST(OrderingTest, PinnedRlqvoFallbackOnDisconnectedQuery) {
  const Graph data = RandomData(31, 60, 4.0, 2);
  const Graph q =
      BuildQuery({0, 0, 1, 0, 1, 0}, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  RLQVOModel model;
  EXPECT_EQ(model.MakeOrder(q, data).ValueOrDie(),
            (std::vector<VertexId>{5, 0, 1, 2, 3, 4}));
}

TEST(OrderPrefixTest, BackwardCountsFollowPushAndPop) {
  const Graph q = CliqueWithTail();
  OrderPrefix prefix(q);
  prefix.Push(3);
  EXPECT_EQ(prefix.order(), (std::vector<VertexId>{3}));
  EXPECT_EQ(prefix.backward(0), 1u);
  EXPECT_EQ(prefix.backward(4), 1u);
  EXPECT_EQ(prefix.backward(5), 0u);
  prefix.Push(4);
  EXPECT_EQ(prefix.backward(3), 1u);
  EXPECT_EQ(prefix.backward(5), 1u);
  prefix.Push(0);
  EXPECT_EQ(prefix.backward(1), 2u);
  EXPECT_EQ(prefix.backward(2), 2u);
  EXPECT_EQ(prefix.backward(3), 2u);
  prefix.Pop();
  EXPECT_EQ(prefix.order(), (std::vector<VertexId>{3, 4}));
  EXPECT_FALSE(prefix.IsOrdered(0));
  EXPECT_EQ(prefix.backward(1), 1u);
  EXPECT_EQ(prefix.backward(3), 1u);
  prefix.Clear();
  EXPECT_EQ(prefix.size(), 0u);
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    EXPECT_EQ(prefix.backward(u), 0u) << u;
    EXPECT_FALSE(prefix.IsOrdered(u)) << u;
  }
}

TEST(OrderPrefixTest, SelectableOnEmptyPartialAndFullPrefixes) {
  const Graph q = CliqueWithTail();
  OrderPrefix prefix(q);
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    EXPECT_TRUE(prefix.Selectable(u)) << u;
  }
  prefix.Push(4);
  std::vector<VertexId> selectable;
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    if (prefix.Selectable(u)) selectable.push_back(u);
  }
  EXPECT_EQ(selectable, (std::vector<VertexId>{3, 5}));
  for (VertexId u : {3u, 5u, 0u, 1u, 2u}) prefix.Push(u);
  EXPECT_TRUE(prefix.full());
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    EXPECT_FALSE(prefix.Selectable(u)) << u;
  }
}

TEST(GreedyOrderTest, LowestIdWinsATie) {
  const Graph q = Cycle6();
  OrderPrefix prefix(q);
  prefix.Push(3);
  // Every vertex has the same key: each step takes the lowest selectable
  // id.
  GreedyOrder(&prefix, [](VertexId) { return 0; });
  EXPECT_EQ(prefix.order(), (std::vector<VertexId>{3, 2, 1, 0, 4, 5}));
}

TEST(GreedyOrderTest, SmallestKeyAmongSelectableVertices) {
  const Graph q = Cycle6();
  OrderPrefix prefix(q);
  // Key = -id: the largest selectable id wins, never a non-adjacent one.
  GreedyOrder(&prefix, [](VertexId u) { return -static_cast<int>(u); });
  EXPECT_EQ(prefix.order(), (std::vector<VertexId>{5, 4, 3, 2, 1, 0}));
  EXPECT_TRUE(IsValidMatchingOrder(q, prefix.order()));
}

TEST(GreedyOrderTest, DisconnectedQueryTakesTheUnorderedFallback) {
  // Components {0, 1} and {2, 3, 4}.
  const Graph q = BuildQuery({0, 0, 0, 0, 0}, {{0, 1}, {2, 3}, {3, 4}});
  OrderPrefix prefix(q);
  prefix.Push(1);
  // Key = -id: after 0, no vertex is selectable, so the smallest key among
  // all unordered vertices (4) seeds the next component.
  GreedyOrder(&prefix, [](VertexId u) { return -static_cast<int>(u); });
  EXPECT_EQ(prefix.order(), (std::vector<VertexId>{1, 0, 4, 3, 2}));
}

/// Property sweep: every ordering method emits a valid matching order — a
/// connected permutation of V(q) — on random queries of varied size.
class OrderingPropertyTest : public ::testing::TestWithParam<
                                 std::tuple<std::string, uint64_t>> {};

TEST_P(OrderingPropertyTest, ProducesValidMatchingOrder) {
  const auto& [name, seed] = GetParam();
  Graph data = RandomData(seed);
  Graph query = RandomQuery(data, seed * 7 + 3, 3 + seed % 6);
  CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
  auto ordering = MakeOrdering(name).ValueOrDie();
  auto ctx = MakeContext(&query, &data, &cs);
  Rng rng(seed);
  ctx.rng = &rng;
  auto order = ordering->MakeOrder(ctx);
  ASSERT_TRUE(order.ok()) << name << ": " << order.status().ToString();
  EXPECT_TRUE(IsValidMatchingOrder(query, *order))
      << name << " produced an invalid order";
}

INSTANTIATE_TEST_SUITE_P(
    MethodsBySeeds, OrderingPropertyTest,
    ::testing::Combine(::testing::Values("RI", "QSI", "VF2PP", "GQL", "VEQ",
                                         "CFL", "Random"),
                       ::testing::Range<uint64_t>(1, 11)));

}  // namespace
}  // namespace rlqvo
