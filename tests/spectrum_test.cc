#include <gtest/gtest.h>

#include "matching/filters.h"
#include "matching/optimal_order.h"
#include "matching/ordering.h"
#include "matching/spectrum.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

EnumerateOptions Unlimited() {
  EnumerateOptions opts;
  opts.match_limit = 0;
  return opts;
}

TEST(SpectrumTest, MinMatchesOptimalOrderSearch) {
  Graph data = RandomData(401, 70, 4.0, 3);
  Graph q = RandomQuery(data, 402, 5);
  CandidateSet cs = GQLFilter().Filter(q, data).ValueOrDie();
  auto spectrum =
      ComputeOrderSpectrum(q, data, cs, Unlimited()).ValueOrDie();
  auto optimal = FindOptimalOrder(q, data, cs, Unlimited()).ValueOrDie();
  EXPECT_EQ(spectrum.min_enumerations, optimal.num_enumerations);
  EXPECT_EQ(spectrum.num_orders, optimal.orders_evaluated);
}

TEST(SpectrumTest, StatisticsAreConsistent) {
  Graph data = RandomData(403, 60, 4.0, 2);
  Graph q = RandomQuery(data, 404, 5);
  CandidateSet cs = NLFFilter().Filter(q, data).ValueOrDie();
  auto s = ComputeOrderSpectrum(q, data, cs, Unlimited()).ValueOrDie();
  ASSERT_GT(s.num_orders, 0u);
  EXPECT_LE(s.min_enumerations, s.max_enumerations);
  EXPECT_GE(s.mean_enumerations, static_cast<double>(s.min_enumerations));
  EXPECT_LE(s.mean_enumerations, static_cast<double>(s.max_enumerations));
  EXPECT_TRUE(std::is_sorted(s.sorted_enumerations.begin(),
                             s.sorted_enumerations.end()));
  EXPECT_EQ(s.sorted_enumerations.size(), s.num_orders);
}

TEST(SpectrumTest, FractionWithinFactorMonotone) {
  Graph data = RandomData(405, 60, 4.0, 2);
  Graph q = RandomQuery(data, 406, 5);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  auto s = ComputeOrderSpectrum(q, data, cs, Unlimited()).ValueOrDie();
  const double at1 = s.FractionWithinFactorOfOptimal(1.0);
  const double at2 = s.FractionWithinFactorOfOptimal(2.0);
  const double at100 = s.FractionWithinFactorOfOptimal(100.0);
  EXPECT_GT(at1, 0.0);  // the optimum itself is always within factor 1
  EXPECT_LE(at1, at2);
  EXPECT_LE(at2, at100);
  EXPECT_LE(at100, 1.0 + 1e-12);
}

TEST(SpectrumTest, RankOfOptimalIsZero) {
  Graph data = RandomData(407, 50, 3.5, 2);
  Graph q = RandomQuery(data, 408, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  auto s = ComputeOrderSpectrum(q, data, cs, Unlimited()).ValueOrDie();
  EXPECT_EQ(s.RankOf(s.min_enumerations), 0u);
  EXPECT_EQ(s.RankOf(s.max_enumerations + 1), s.num_orders);
}

TEST(SpectrumTest, HeuristicOrdersLandInsideSpectrum) {
  Graph data = RandomData(409, 70, 4.0, 3);
  Graph q = RandomQuery(data, 410, 5);
  CandidateSet cs = GQLFilter().Filter(q, data).ValueOrDie();
  auto s = ComputeOrderSpectrum(q, data, cs, Unlimited()).ValueOrDie();
  Enumerator enumerator;
  for (const char* name : {"RI", "GQL", "VEQ", "CFL"}) {
    OrderingContext ctx;
    ctx.query = &q;
    ctx.data = &data;
    ctx.candidates = &cs;
    auto order = MakeOrdering(name).ValueOrDie()->MakeOrder(ctx).ValueOrDie();
    auto run = enumerator.Run(q, data, cs, order, Unlimited()).ValueOrDie();
    EXPECT_GE(run.num_enumerations, s.min_enumerations) << name;
    EXPECT_LE(run.num_enumerations, s.max_enumerations) << name;
  }
}

TEST(SpectrumTest, EnumerationErrorEndsTheWalk) {
  // An out-of-range data vertex in C(0): every Run inside the walk fails
  // in EnumeratorWorkspace::Prepare, and the spectrum must return that
  // error, not NotFound or a result.
  Graph data = RandomData(412);
  Graph q = RandomQuery(data, 413, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  std::vector<VertexId> c0 = cs.candidates(0);
  c0.push_back(data.num_vertices());
  cs.Set(0, std::move(c0));
  auto result = ComputeOrderSpectrum(q, data, cs, Unlimited());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
}

TEST(SpectrumTest, RefusesOversizedQueries) {
  Graph data = RandomData(411, 150, 4.0, 2);
  QuerySampler sampler(&data, 1);
  Graph q = sampler.SampleQuery(11).ValueOrDie();
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EXPECT_FALSE(ComputeOrderSpectrum(q, data, cs, Unlimited()).ok());
}

}  // namespace
}  // namespace rlqvo
