#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::IsIsomorphism;
using testing_util::RandomData;
using testing_util::RandomQuery;

EnumerateOptions Unlimited() {
  EnumerateOptions opts;
  opts.match_limit = 0;
  return opts;
}

TEST(EnumeratorTest, TriangleInTriangleDataHasSixAutomorphicMatches) {
  // Unlabeled triangle (all labels equal): 3! = 6 embeddings onto itself.
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph q = b.Build();
  CandidateSet cs = LDFFilter().Filter(q, q).ValueOrDie();
  Enumerator enumerator;
  auto result =
      enumerator.Run(q, q, cs, {0, 1, 2}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 6u);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GT(result.num_enumerations, 6u);
}

TEST(EnumeratorTest, LabelsBreakSymmetry) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph q = b.Build();
  CandidateSet cs = LDFFilter().Filter(q, q).ValueOrDie();
  Enumerator enumerator;
  auto result =
      enumerator.Run(q, q, cs, {0, 1, 2}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 1u);
}

TEST(EnumeratorTest, SingleVertexQueryMatchesAllLabelMates) {
  GraphBuilder qb;
  qb.AddVertex(1);
  Graph q = qb.Build();
  GraphBuilder gb;
  gb.AddVertex(1);
  gb.AddVertex(1);
  gb.AddVertex(0);
  gb.AddEdge(0, 2);
  Graph g = gb.Build();
  CandidateSet cs = LDFFilter().Filter(q, g).ValueOrDie();
  Enumerator enumerator;
  auto result = enumerator.Run(q, g, cs, {0}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 2u);
}

TEST(EnumeratorTest, MatchLimitStopsEarly) {
  Graph data = RandomData(31, 100, 6.0, 1);  // single label: many matches
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();  // a single edge
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 10;
  Enumerator enumerator;
  auto result = enumerator.Run(q, data, cs, {0, 1}, opts).ValueOrDie();
  EXPECT_EQ(result.num_matches, 10u);
  EXPECT_TRUE(result.hit_match_limit);
}

TEST(EnumeratorTest, TimeLimitReported) {
  Graph data = RandomData(32, 400, 12.0, 1);
  QuerySampler sampler(&data, 1);
  Graph q = sampler.SampleQuery(10).ValueOrDie();
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 1e-4;
  Enumerator enumerator;
  auto result =
      enumerator.Run(q, data, cs, RIOrdering()
                                      .MakeOrder({.query = &q,
                                                  .data = &data,
                                                  .candidates = &cs,
                                                  .rng = nullptr})
                                      .ValueOrDie(),
                     opts)
          .ValueOrDie();
  // Either it finished very fast or it reports the timeout; on this dense
  // unlabeled graph the timeout is the expected outcome. Setup time counts
  // against the budget too, so a timed-out run may legitimately report zero
  // enumerations (the deadline fired before the first Extend).
  if (!result.timed_out) {
    EXPECT_FALSE(result.hit_match_limit);  // ran to completion
  }
  EXPECT_GE(result.enum_time_seconds, 0.0);
}

TEST(EnumeratorTest, StoredEmbeddingsAreIsomorphisms) {
  Graph data = RandomData(33);
  Graph q = RandomQuery(data, 34, 4);
  CandidateSet cs = GQLFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  Enumerator enumerator;
  OrderingContext octx;
  octx.query = &q;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();
  auto result = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
  ASSERT_EQ(result.embeddings.size(), result.num_matches);
  ASSERT_GT(result.num_matches, 0u);
  for (const auto& embedding : result.embeddings) {
    EXPECT_TRUE(IsIsomorphism(q, data, embedding));
  }
}

TEST(EnumeratorTest, RejectsInvalidOrder) {
  Graph data = RandomData(35);
  Graph q = RandomQuery(data, 36, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  Enumerator enumerator;
  std::vector<VertexId> bad = {0, 0, 1, 2};
  EXPECT_FALSE(enumerator.Run(q, data, cs, bad, Unlimited()).ok());
  std::vector<VertexId> short_order = {0};
  EXPECT_FALSE(enumerator.Run(q, data, cs, short_order, Unlimited()).ok());
}

TEST(EnumeratorTest, RejectsMismatchedCandidates) {
  Graph data = RandomData(37);
  Graph q = RandomQuery(data, 38, 4);
  CandidateSet wrong(q.num_vertices() + 1);
  Enumerator enumerator;
  EXPECT_FALSE(
      enumerator.Run(q, data, wrong, {0, 1, 2, 3}, Unlimited()).ok());
}

TEST(EnumeratorTest, EmptyCandidateSetShortCircuits) {
  GraphBuilder qb;
  qb.AddVertex(9);  // label absent from data
  qb.AddVertex(9);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();
  Graph data = RandomData(39, 50, 3.0, 2);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  ASSERT_TRUE(cs.AnyEmpty());
  Enumerator enumerator;
  auto result = enumerator.Run(q, data, cs, {0, 1}, Unlimited()).ValueOrDie();
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_EQ(result.num_enumerations, 0u);
}

TEST(BruteForceTest, RespectsLimit) {
  Graph data = RandomData(40, 50, 5.0, 1);
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph q = qb.Build();
  auto matches = BruteForceMatch(q, data, 5);
  EXPECT_EQ(matches.size(), 5u);
}

/// Property sweep: the engine agrees with brute force on match counts, and
/// the count is identical across every ordering method and filter — the
/// core correctness invariant of the three-phase framework.
class EnumeratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnumeratorPropertyTest, AgreesWithBruteForceForAllOrdersAndFilters) {
  const uint64_t seed = GetParam();
  Graph data = RandomData(seed, 50, 4.0, 3);
  Graph query = RandomQuery(data, seed * 13 + 5, 3 + seed % 3);

  const uint64_t expected = BruteForceMatch(query, data).size();
  ASSERT_GT(expected, 0u);

  Enumerator enumerator;
  for (const char* filter_name : {"LDF", "NLF", "GQL", "DAG-DP"}) {
    CandidateSet cs = MakeFilter(filter_name)
                          .ValueOrDie()
                          ->Filter(query, data)
                          .ValueOrDie();
    for (const char* order_name : {"RI", "QSI", "VF2PP", "GQL", "VEQ", "CFL"}) {
      OrderingContext ctx;
      ctx.query = &query;
      ctx.data = &data;
      ctx.candidates = &cs;
      auto order = MakeOrdering(order_name).ValueOrDie()->MakeOrder(ctx);
      ASSERT_TRUE(order.ok()) << order_name;
      auto result =
          enumerator.Run(query, data, cs, *order, Unlimited()).ValueOrDie();
      EXPECT_EQ(result.num_matches, expected)
          << "filter=" << filter_name << " order=" << order_name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumeratorPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

/// The intersection core's work counters: no backward neighbors means no
/// intersections; a cycle query must intersect at its closing vertex.
TEST(EnumeratorTest, IntersectionCountersTrackBackwardStructure) {
  // Path query 0-1-2 in order {0,1,2}: every vertex has <= 1 backward
  // neighbor, so local candidates come straight from slices.
  GraphBuilder pb;
  for (int i = 0; i < 3; ++i) pb.AddVertex(0);
  pb.AddEdge(0, 1);
  pb.AddEdge(1, 2);
  Graph path = pb.Build();
  Graph data = RandomData(50, 60, 5.0, 1);
  CandidateSet cs = LDFFilter().Filter(path, data).ValueOrDie();
  Enumerator enumerator;
  auto result = enumerator.Run(path, data, cs, {0, 1, 2}, Unlimited())
                    .ValueOrDie();
  EXPECT_EQ(result.num_intersections, 0u);
  EXPECT_GT(result.local_candidate_sets, 0u);

  // Triangle query: the third vertex has two mapped backward neighbors.
  GraphBuilder tb;
  for (int i = 0; i < 3; ++i) tb.AddVertex(0);
  tb.AddEdge(0, 1);
  tb.AddEdge(1, 2);
  tb.AddEdge(2, 0);
  Graph triangle = tb.Build();
  CandidateSet tcs = LDFFilter().Filter(triangle, data).ValueOrDie();
  auto tresult = enumerator.Run(triangle, data, tcs, {0, 1, 2}, Unlimited())
                     .ValueOrDie();
  if (tresult.num_matches > 0 || tresult.num_enumerations > 2) {
    EXPECT_GT(tresult.num_intersections, 0u);
    EXPECT_GT(tresult.num_probe_comparisons, 0u);
  }
  EXPECT_GE(tresult.local_candidates_total, tresult.num_matches);
}

// --- EnumWorkCounters ---

TEST(EnumWorkCountersTest, MergeSumsTakesMaximaAndIgnoresZeroMinima) {
  EnumWorkCounters a;
  a.num_matches = 3;
  a.num_enumerations = 10;
  a.num_intersections = 2;
  a.num_probe_comparisons = 5;
  a.local_candidates_total = 7;
  a.local_candidate_sets = 4;
  a.num_simd_intersections = 1;
  a.num_steals = 2;
  a.num_splits = 1;
  a.max_segment_depth = 3;
  a.min_worker_work = 40;
  a.max_worker_work = 90;

  EnumWorkCounters b;  // a run that did no enumeration work of its own
  b.num_matches = 1;
  b.num_enumerations = 20;
  b.num_intersections = 30;
  b.num_probe_comparisons = 40;
  b.local_candidates_total = 50;
  b.local_candidate_sets = 60;
  b.num_simd_intersections = 70;
  b.num_steals = 80;
  b.num_splits = 90;
  b.max_segment_depth = 5;
  b.min_worker_work = 0;
  b.max_worker_work = 60;

  a.Merge(b);
  EXPECT_EQ(a.num_matches, 4u);
  EXPECT_EQ(a.num_enumerations, 30u);
  EXPECT_EQ(a.num_intersections, 32u);
  EXPECT_EQ(a.num_probe_comparisons, 45u);
  EXPECT_EQ(a.local_candidates_total, 57u);
  EXPECT_EQ(a.local_candidate_sets, 64u);
  EXPECT_EQ(a.num_simd_intersections, 71u);
  EXPECT_EQ(a.num_steals, 82u);
  EXPECT_EQ(a.num_splits, 91u);
  EXPECT_EQ(a.max_segment_depth, 5u);  // maximum, not sum
  EXPECT_EQ(a.max_worker_work, 90u);   // maximum, not sum
  EXPECT_EQ(a.min_worker_work, 40u);   // b's 0 cannot mask the spread

  EnumWorkCounters c;
  c.min_worker_work = 25;
  a.Merge(c);
  EXPECT_EQ(a.min_worker_work, 25u);  // a smaller non-zero minimum wins

  // Merging into a default value takes the other side's values, including
  // a non-zero minimum over the default's 0.
  EnumWorkCounters empty;
  empty.Merge(a);
  EnumWorkCounters::ForEachField(
      [&](const char* name, uint64_t EnumWorkCounters::*field,
          EnumWorkCounters::Rule) {
        EXPECT_EQ(empty.*field, a.*field) << name;
      });
}

TEST(EnumWorkCountersTest, ForEachFieldVisitsEveryFieldExactlyOnce) {
  EnumWorkCounters probe;
  std::set<std::string> names;
  std::set<const void*> members;
  size_t visits = 0;
  size_t bytes = 0;
  size_t maxima = 0;
  size_t minima = 0;
  EnumWorkCounters::ForEachField([&](const char* name,
                                     uint64_t EnumWorkCounters::*field,
                                     EnumWorkCounters::Rule rule) {
    ++visits;
    names.insert(name);
    members.insert(&(probe.*field));
    bytes += sizeof(probe.*field);
    if (rule == EnumWorkCounters::Rule::kMax) ++maxima;
    if (rule == EnumWorkCounters::Rule::kMinNonZero) ++minima;
  });
  EXPECT_EQ(names.size(), visits);
  EXPECT_EQ(members.size(), visits);
  // A field declared without its ForEachField entry leaves bytes unvisited.
  EXPECT_EQ(bytes, sizeof(EnumWorkCounters));
  EXPECT_EQ(maxima, 2u);  // max_segment_depth, max_worker_work
  EXPECT_EQ(minima, 1u);  // min_worker_work
  EXPECT_TRUE(names.count("num_enumerations"));
}

/// Heavily skewed label distributions exercise the gallop path (tiny rare-
/// label slices intersected against hub-label slices); results must still be
/// exactly the brute-force embedding set.
TEST(EnumeratorTest, SkewedLabelEquivalence) {
  for (uint64_t seed = 60; seed < 66; ++seed) {
    LabelConfig cfg;
    cfg.num_labels = 8;
    cfg.zipf_exponent = 1.8;
    Graph data = GenerateErdosRenyi(70, 5.0, cfg, seed).ValueOrDie();
    QuerySampler sampler(&data, seed + 1);
    auto query_or = sampler.SampleQuery(4);
    if (!query_or.ok()) continue;
    Graph q = std::move(query_or).ValueOrDie();
    auto expected_list = BruteForceMatch(q, data);
    std::set<std::vector<VertexId>> expected(expected_list.begin(),
                                             expected_list.end());
    CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
    OrderingContext octx;
    octx.query = &q;
    octx.data = &data;
    octx.candidates = &cs;
    auto order = RIOrdering().MakeOrder(octx).ValueOrDie();
    EnumerateOptions opts;
    opts.match_limit = 0;
    opts.store_embeddings = true;
    Enumerator enumerator;
    auto result = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
    std::set<std::vector<VertexId>> actual(result.embeddings.begin(),
                                           result.embeddings.end());
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

/// The embeddings found are exactly the brute-force set (not just the same
/// count) when stored.
TEST(EnumeratorTest, EmbeddingSetsMatchBruteForceExactly) {
  Graph data = RandomData(41, 40, 4.0, 2);
  Graph q = RandomQuery(data, 42, 3);
  auto expected = BruteForceMatch(q, data);
  std::set<std::vector<VertexId>> expected_set(expected.begin(),
                                               expected.end());

  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  OrderingContext octx;
  octx.query = &q;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = GQLOrdering().MakeOrder(octx).ValueOrDie();
  Enumerator enumerator;
  auto result = enumerator.Run(q, data, cs, order, opts).ValueOrDie();
  std::set<std::vector<VertexId>> actual_set(result.embeddings.begin(),
                                             result.embeddings.end());
  EXPECT_EQ(actual_set, expected_set);
}

}  // namespace
}  // namespace rlqvo
