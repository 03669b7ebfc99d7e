#include <gtest/gtest.h>

#include "matching/matcher.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

TEST(MatcherTest, FactoryBuildsAllBaselines) {
  for (const std::string& name : BaselineMatcherNames()) {
    auto matcher = MakeMatcherByName(name);
    ASSERT_TRUE(matcher.ok()) << name;
    EXPECT_EQ((*matcher)->name(), name);
  }
  EXPECT_TRUE(MakeMatcherByName("Random").ok());
  EXPECT_FALSE(MakeMatcherByName("nonsense").ok());
}

TEST(MatcherTest, HybridCombinesGqlFilterAndRiOrder) {
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  EXPECT_EQ(matcher->config().filter->name(), "GQL");
  EXPECT_EQ(matcher->config().ordering->name(), "RI");
}

TEST(MatcherTest, EndToEndCountsMatchBruteForce) {
  Graph data = RandomData(51);
  Graph q = RandomQuery(data, 52, 4);
  const uint64_t expected = BruteForceMatch(q, data).size();
  EnumerateOptions opts;
  opts.match_limit = 0;
  for (const std::string& name : BaselineMatcherNames()) {
    auto matcher = MakeMatcherByName(name, opts).ValueOrDie();
    auto stats = matcher->Match(q, data);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    EXPECT_EQ(stats->num_matches, expected) << name;
    EXPECT_TRUE(stats->solved) << name;
  }
}

TEST(MatcherTest, StatsBreakdownIsConsistent) {
  Graph data = RandomData(53);
  Graph q = RandomQuery(data, 54, 5);
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  auto stats = matcher->Match(q, data).ValueOrDie();
  EXPECT_GT(stats.candidate_total, 0u);
  EXPECT_GE(stats.total_time_seconds, 0.0);
  EXPECT_GE(stats.total_time_seconds, stats.enum_time_seconds);
  EXPECT_EQ(stats.order.size(), q.num_vertices());
  EXPECT_GT(stats.num_enumerations, 0u);
}

TEST(MatcherTest, TinyTimeLimitMarksUnsolved) {
  Graph data = RandomData(55, 400, 10.0, 1);  // unlabeled & dense: explosive
  QuerySampler sampler(&data, 2);
  Graph q = sampler.SampleQuery(12).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 1e-5;
  auto matcher = MakeMatcherByName("RI", opts).ValueOrDie();
  auto stats = matcher->Match(q, data).ValueOrDie();
  EXPECT_FALSE(stats.solved);
}

TEST(MatcherTest, MatchLimitPropagates) {
  Graph data = RandomData(56, 150, 6.0, 1);
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();
  EnumerateOptions opts;
  opts.match_limit = 7;
  auto matcher = MakeMatcherByName("QSI", opts).ValueOrDie();
  auto stats = matcher->Match(q, data).ValueOrDie();
  EXPECT_EQ(stats.num_matches, 7u);
  EXPECT_TRUE(stats.hit_match_limit);
}

TEST(MatcherTest, MutableEnumOptions) {
  auto matcher = MakeMatcherByName("RI").ValueOrDie();
  matcher->mutable_enum_options()->match_limit = 3;
  EXPECT_EQ(matcher->config().enum_options.match_limit, 3u);
}

// The matcher is the serial reference pipeline: intra-query parallelism
// belongs to QueryEngine, so a parallel request fails loudly instead of
// silently running serial — whether it came in through the factory's
// options or was set later through mutable_enum_options().
TEST(MatcherTest, ParallelThreadsAreRejectedNamingQueryEngine) {
  Graph data = RandomData(57);
  Graph q = RandomQuery(data, 58, 4);
  EnumerateOptions parallel;
  parallel.parallel_threads = 2;
  auto from_factory = MakeMatcherByName("Hybrid", parallel).ValueOrDie();
  const Status status = from_factory->Match(q, data).status();
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("QueryEngine"), std::string::npos)
      << status.ToString();

  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  ASSERT_TRUE(matcher->Match(q, data).ok());
  matcher->mutable_enum_options()->parallel_threads = 1;
  EXPECT_TRUE(matcher->Match(q, data).status().IsInvalidArgument());
  matcher->mutable_enum_options()->parallel_threads = 0;
  EXPECT_TRUE(matcher->Match(q, data).ok());
}

TEST(MatcherTest, DefaultNameFromComponents) {
  MatcherConfig config;
  config.filter = std::make_shared<LDFFilter>();
  config.ordering = std::make_shared<RIOrdering>();
  SubgraphMatcher matcher(std::move(config));
  EXPECT_EQ(matcher.name(), "LDF+RI");
}

}  // namespace
}  // namespace rlqvo
