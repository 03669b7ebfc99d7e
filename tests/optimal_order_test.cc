#include <gtest/gtest.h>

#include "matching/matcher.h"
#include "matching/optimal_order.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

TEST(OptimalOrderTest, BeatsOrTiesEveryHeuristic) {
  Graph data = RandomData(61, 80, 5.0, 3);
  Graph q = RandomQuery(data, 62, 5);
  CandidateSet cs = GQLFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  auto optimal = FindOptimalOrder(q, data, cs, opts);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
  EXPECT_GT(optimal->orders_evaluated, 0u);

  Enumerator enumerator;
  for (const char* name : {"RI", "QSI", "VF2PP", "GQL", "VEQ"}) {
    OrderingContext ctx;
    ctx.query = &q;
    ctx.data = &data;
    ctx.candidates = &cs;
    auto order = MakeOrdering(name).ValueOrDie()->MakeOrder(ctx).ValueOrDie();
    auto run = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
    EXPECT_LE(optimal->num_enumerations, run.num_enumerations) << name;
  }
}

TEST(OptimalOrderTest, OptimalOrderIsValid) {
  Graph data = RandomData(63);
  Graph q = RandomQuery(data, 64, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  auto optimal = FindOptimalOrder(q, data, cs, opts).ValueOrDie();
  EXPECT_EQ(optimal.order.size(), q.num_vertices());
}

TEST(OptimalOrderTest, EvaluatesOnlyConnectedPermutations) {
  // A path of 3 vertices has 6 permutations but only 4 connected ones
  // (the middle vertex cannot come last... actually: orders starting at an
  // endpoint must follow the path; enumerate: 012, 210, 102, 120, 201, 021;
  // connected ones: 012, 210, 102, 120, 201, 021 -> those where each next
  // vertex touches an earlier one: 012 ok, 021 invalid(2 not adj 0), 102 ok,
  // 120 ok, 201 invalid(0 not adj 2)->0 adj1? order 2,0,...: 0 not adjacent
  // to 2 -> invalid, 210 ok.
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph q = b.Build();
  CandidateSet cs = LDFFilter().Filter(q, q).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  auto optimal = FindOptimalOrder(q, q, cs, opts).ValueOrDie();
  EXPECT_EQ(optimal.orders_evaluated, 4u);
}

TEST(OptimalOrderTest, RefusesLargeQueries) {
  Graph data = RandomData(65, 200, 5.0, 2);
  QuerySampler sampler(&data, 3);
  Graph q = sampler.SampleQuery(13).ValueOrDie();
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  auto result = FindOptimalOrder(q, data, cs, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(OptimalOrderTest, EnumerationErrorEndsTheSearch) {
  // An out-of-range data vertex in C(0): every Run inside the walk fails
  // in EnumeratorWorkspace::Prepare, and the search must return that
  // error, not NotFound or a result.
  Graph data = RandomData(66);
  Graph q = RandomQuery(data, 67, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  std::vector<VertexId> c0 = cs.candidates(0);
  c0.push_back(data.num_vertices());
  cs.Set(0, std::move(c0));
  EnumerateOptions opts;
  opts.match_limit = 0;
  auto result = FindOptimalOrder(q, data, cs, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(OptimalOrderTest, EmptyQueryRejected) {
  Graph empty;
  CandidateSet cs(0);
  EnumerateOptions opts;
  EXPECT_FALSE(FindOptimalOrder(empty, empty, cs, opts).ok());
}

}  // namespace
}  // namespace rlqvo
