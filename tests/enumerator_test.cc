#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "core/rlqvo.h"
#include "graph/generators.h"
#include "graph/graph_algorithms.h"
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

/// ROADMAP item 7(i) at bench scale, with no brute force: the embedding
/// set of a query does not depend on the matching order. On a Chung-Lu
/// power-law graph and a directed Erdős-Rényi graph with 2 edge labels,
/// every order — the 7 orderings, untrained RL-QVO, and seeded random
/// connected and disconnected permutations — yields RI's sorted embedding
/// set under LDF and GQL candidates.
TEST(EnumeratorTest, EmbeddingSetDoesNotDependOnTheOrderAtBenchScale) {
  LabelConfig power_law_labels;
  power_law_labels.num_labels = 20;
  LabelConfig directed_labels;
  directed_labels.num_labels = 2;
  directed_labels.num_edge_labels = 2;
  directed_labels.directed = true;
  const Graph graphs[] = {
      GeneratePowerLaw(800, 4.0, 2.5, power_law_labels, 71).ValueOrDie(),
      GenerateErdosRenyi(400, 12.0, directed_labels, 72).ValueOrDie()};
  RLQVOModel model;  // untrained: deterministic, and a real policy order
  std::shared_ptr<Ordering> rlqvo = model.MakeOrdering();
  Enumerator enumerator;
  EnumeratorWorkspace workspace;
  EnumerateOptions opts = Unlimited();
  opts.store_embeddings = true;
  uint64_t runs = 0, disconnected_orders = 0;
  for (size_t gi = 0; gi < std::size(graphs); ++gi) {
    const Graph& data = graphs[gi];
    QuerySampler sampler(&data, 100 + gi);
    for (uint32_t size = 5; size <= 8; ++size) {
      const Graph query = sampler.SampleQuery(size).ValueOrDie();
      for (const char* filter_name : {"LDF", "GQL"}) {
        const CandidateSet cs = MakeFilter(filter_name)
                                    .ValueOrDie()
                                    ->Filter(query, data)
                                    .ValueOrDie();
        std::vector<std::pair<std::string, std::vector<VertexId>>> orders;
        OrderingContext ctx;
        ctx.query = &query;
        ctx.data = &data;
        ctx.candidates = &cs;
        Rng rng(size * 31 + gi);
        ctx.rng = &rng;
        for (const char* name :
             {"RI", "QSI", "VF2PP", "GQL", "VEQ", "CFL", "Random"}) {
          orders.emplace_back(name, MakeOrdering(name)
                                        .ValueOrDie()
                                        ->MakeOrder(ctx)
                                        .ValueOrDie());
        }
        orders.emplace_back("RL-QVO", rlqvo->MakeOrder(ctx).ValueOrDie());
        // Disconnected permutations: a seeded random connected order with
        // the first adjacent pair whose swap breaks connectivity swapped.
        // That opens a product over one level only, so the run stays
        // cheap; a fully shuffled permutation can open several and cost
        // seconds on these graphs.
        for (int k = 0; k < 3; ++k) {
          std::vector<VertexId> perm = MakeOrdering("Random")
                                           .ValueOrDie()
                                           ->MakeOrder(ctx)
                                           .ValueOrDie();
          for (size_t i = 1; i + 1 < perm.size(); ++i) {
            std::swap(perm[i], perm[i + 1]);
            if (!IsValidMatchingOrder(query, perm)) break;
            std::swap(perm[i], perm[i + 1]);
          }
          disconnected_orders += !IsValidMatchingOrder(query, perm);
          orders.emplace_back("disconnected" + std::to_string(k), perm);
        }

        std::vector<std::vector<VertexId>> reference;
        for (const auto& [name, order] : orders) {
          auto result = enumerator.Run(query, data, cs, order, opts, &workspace)
                            .ValueOrDie();
          ASSERT_FALSE(result.hit_match_limit);
          std::sort(result.embeddings.begin(), result.embeddings.end());
          ++runs;
          if (name == "RI") {
            ASSERT_GT(result.embeddings.size(), 0u);
            reference = std::move(result.embeddings);
            continue;
          }
          EXPECT_EQ(result.embeddings, reference)
              << "graph " << gi << " size " << size << " filter "
              << filter_name << " order " << name;
        }
      }
    }
  }
  EXPECT_EQ(runs, 2u * 4u * 2u * 11u);
  EXPECT_GT(disconnected_orders, 0u);
}

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

// --- Count-only runs: the last order position is counted ---
//
// With store_embeddings == false the enumerator counts the candidates of
// the last order position and claims them in one batch; a run that stores
// embeddings descends into each one. The two must charge the same work.

/// The EnumWorkCounters fields that describe a parallel run's schedule
/// rather than its search.
bool IsSchedulerDiagnostic(std::string_view name) {
  return name == "num_steals" || name == "num_splits" ||
         name == "max_segment_depth" || name == "min_worker_work" ||
         name == "max_worker_work";
}

/// Expects `actual` to report every EnumWorkCounters field of `expected`
/// (the scheduler diagnostics only if `with_scheduler`) and its limit flag.
void ExpectSameWork(const EnumerateResult& expected,
                    const EnumerateResult& actual, bool with_scheduler) {
  EnumWorkCounters::ForEachField(
      [&](const char* name, uint64_t EnumWorkCounters::*field,
          EnumWorkCounters::Rule) {
        if (!with_scheduler && IsSchedulerDiagnostic(name)) return;
        EXPECT_EQ(actual.*field, expected.*field) << name;
      });
  EXPECT_EQ(actual.hit_match_limit, expected.hit_match_limit);
  EXPECT_FALSE(actual.timed_out);
}

/// A pool and its per-worker workspaces for RunParallel.
struct ParallelRig {
  explicit ParallelRig(uint32_t threads) : pool(threads), workspaces(threads) {}

  EnumerateResult Run(const Graph& q, const Graph& g, const CandidateSet& cs,
                      const std::vector<VertexId>& order,
                      EnumerateOptions opts) {
    opts.parallel_threads = pool.size();
    ParallelEnumResources resources;
    resources.pool = &pool;
    resources.worker_workspaces = &workspaces;
    resources.caller_workspace = &caller;
    return Enumerator()
        .RunParallel(q, g, cs, order, opts, resources)
        .ValueOrDie();
  }

  ThreadPool pool;
  std::vector<EnumeratorWorkspace> workspaces;
  EnumeratorWorkspace caller;
};

/// Runs `order` storing embeddings (serial) and count-only (serial, and
/// RunParallel at 1, 2 and 8 threads). The serial count-only run must
/// report every counter of the storing run. A parallel run must report
/// every counter but the scheduler diagnostics when the limit did not
/// fire, and the same match count when it did (which matches fill a
/// truncated quota is schedule-dependent). Returns the match count.
uint64_t ExpectCountOnlyChargesAsStored(const Graph& q, const Graph& g,
                                        const CandidateSet& cs,
                                        const std::vector<VertexId>& order,
                                        uint64_t match_limit = 0) {
  EnumerateOptions store;
  store.match_limit = match_limit;
  store.store_embeddings = true;
  EnumerateOptions count = store;
  count.store_embeddings = false;
  Enumerator enumerator;
  const EnumerateResult stored =
      enumerator.Run(q, g, cs, order, store).ValueOrDie();
  EXPECT_EQ(stored.embeddings.size(), stored.num_matches);
  const EnumerateResult counted =
      enumerator.Run(q, g, cs, order, count).ValueOrDie();
  EXPECT_TRUE(counted.embeddings.empty());
  {
    SCOPED_TRACE("serial");
    ExpectSameWork(stored, counted, /*with_scheduler=*/true);
  }
  for (const uint32_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ParallelRig rig(threads);
    const EnumerateResult parallel = rig.Run(q, g, cs, order, count);
    if (stored.hit_match_limit) {
      EXPECT_EQ(parallel.num_matches, stored.num_matches);
      EXPECT_TRUE(parallel.hit_match_limit);
    } else {
      ExpectSameWork(stored, parallel, /*with_scheduler=*/false);
    }
  }
  return stored.num_matches;
}

LabelConfig DirectedEdgeLabeled() {
  LabelConfig cfg;
  cfg.num_labels = 3;
  cfg.zipf_exponent = 0.5;
  cfg.num_edge_labels = 3;
  cfg.directed = true;
  return cfg;
}

/// The property-test seeds, every filter, undirected and directed
/// edge-labeled data graphs.
class CountOnlyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CountOnlyPropertyTest, ChargesWhatStoringRunsCharge) {
  const uint64_t seed = GetParam();
  const Graph undirected = RandomData(seed, 50, 4.0, 3);
  const Graph directed =
      GenerateErdosRenyi(60, 4.0, DirectedEdgeLabeled(), seed).ValueOrDie();
  for (const Graph* data : {&undirected, &directed}) {
    SCOPED_TRACE(data->directed() ? "directed" : "undirected");
    const Graph query = RandomQuery(*data, seed * 13 + 5, 3 + seed % 3);
    const uint64_t expected = BruteForceMatch(query, *data).size();
    for (const char* filter_name : {"LDF", "NLF", "GQL", "DAG-DP"}) {
      CandidateSet cs = MakeFilter(filter_name)
                            .ValueOrDie()
                            ->Filter(query, *data)
                            .ValueOrDie();
      for (const char* order_name : {"RI", "QSI"}) {
        SCOPED_TRACE(std::string(filter_name) + " " + order_name);
        OrderingContext ctx;
        ctx.query = &query;
        ctx.data = data;
        ctx.candidates = &cs;
        const std::vector<VertexId> order =
            MakeOrdering(order_name).ValueOrDie()->MakeOrder(ctx).ValueOrDie();
        EXPECT_EQ(ExpectCountOnlyChargesAsStored(query, *data, cs, order),
                  expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CountOnlyPropertyTest,
                         ::testing::Range<uint64_t>(1, 16));

/// An edge plus an isolated vertex, all of label 0. Ordered {0, 1, 2}, the
/// last position is a component break: it scans all of C(2), and only the
/// visited test keeps M(0) and M(1) out.
Graph EdgePlusIsolatedVertex() {
  GraphBuilder b;
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  return b.Build();
}

TEST(CountOnlyTest, LastPositionIsAComponentBreak) {
  const Graph data = RandomData(71, 30, 3.0, 1);
  const Graph q = EdgePlusIsolatedVertex();
  const CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  const uint64_t expected = BruteForceMatch(q, data).size();
  ASSERT_GT(expected, 0u);
  // {2, 0, 1} puts the break in the middle and a slice at the end.
  for (const std::vector<VertexId>& order :
       {std::vector<VertexId>{0, 1, 2}, std::vector<VertexId>{2, 0, 1}}) {
    EXPECT_EQ(ExpectCountOnlyChargesAsStored(q, data, cs, order), expected);
  }
}

/// A match limit that falls inside one last-position candidate list: the
/// batch claim is granted only the slots left, and the run stops exactly
/// there, as the per-candidate path does.
TEST(CountOnlyTest, MatchLimitInsideOneLastPositionList) {
  // Every last-position list of the component-break order holds |C(2)| - 2
  // valid candidates, so limits 1 and total - 1 both fall strictly inside
  // a list. A one-vertex query's root is its last position, and every
  // match comes from that one list. Limit total + 1 never fires, so those
  // runs are compared in full.
  const Graph data = RandomData(71, 30, 3.0, 1);
  const Graph q = EdgePlusIsolatedVertex();
  const CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  const uint64_t per_list = cs.candidates(2).size() - 2;
  const uint64_t total = BruteForceMatch(q, data).size();
  ASSERT_GT(per_list, 2u);
  ASSERT_EQ(total % per_list, 0u);

  GraphBuilder qb;
  qb.AddVertex(0);
  const Graph single = qb.Build();
  const CandidateSet single_cs = LDFFilter().Filter(single, data).ValueOrDie();
  const uint64_t single_total = single_cs.candidates(0).size();
  ASSERT_GT(single_total, 2u);

  struct Case {
    const Graph* query;
    const CandidateSet* candidates;
    std::vector<VertexId> order;
    uint64_t total;
  };
  const Case cases[] = {{&q, &cs, {0, 1, 2}, total},
                        {&single, &single_cs, {0}, single_total}};
  for (const Case& c : cases) {
    for (const uint64_t limit : {uint64_t{1}, c.total - 1, c.total,
                                 c.total + 1}) {
      SCOPED_TRACE("limit=" + std::to_string(limit) + " of " +
                   std::to_string(c.total));
      EXPECT_EQ(ExpectCountOnlyChargesAsStored(*c.query, data, *c.candidates,
                                               c.order, limit),
                std::min(limit, c.total));
    }
  }
}

/// Where the images of the last vertex's label mates (earlier positions
/// with its label) fall for the prefixes of `embeddings`: inside the last
/// position's list, which the count by subtraction must take them out of,
/// or outside it, where its binary search must leave the count alone. A
/// prefix's list holds the vertices joined, by every labeled query edge of
/// the last vertex, to the images of that vertex's query neighbours.
struct MateImages {
  uint64_t in_list = 0;
  uint64_t outside = 0;
};

MateImages CountMateImages(
    const Graph& q, const Graph& g, const std::vector<VertexId>& order,
    const std::vector<std::vector<VertexId>>& embeddings) {
  const VertexId u = order.back();
  MateImages images;
  std::vector<std::pair<EdgeDir, EdgeLabel>> edges;
  for (const std::vector<VertexId>& m : embeddings) {
    for (size_t p = 0; p + 1 < order.size(); ++p) {
      const VertexId mate = order[p];
      if (q.label(mate) != q.label(u)) continue;
      bool in_list = true;
      for (const VertexId x : q.neighbors(u)) {
        edges.clear();
        q.EdgesBetween(x, u, &edges);
        for (const auto& [dir, elabel] : edges) {
          in_list = in_list && g.HasEdge(m[x], m[mate], dir, elabel);
        }
      }
      ++(in_list ? images.in_list : images.outside);
    }
  }
  return images;
}

/// Last vertices that share their label with 1, 2 and 3 earlier order
/// positions, on undirected and on directed two-edge-label graphs, under
/// every filter: count-only runs charge what storing runs charge and find
/// the brute-force count, and the mates' images fall both inside and
/// outside last-position lists.
TEST(CountOnlyTest, LastVertexLabelMates) {
  LabelConfig directed_labels = DirectedEdgeLabeled();
  directed_labels.num_labels = 2;
  directed_labels.num_edge_labels = 2;
  const Graph undirected = RandomData(81, 40, 4.0, 2);
  const Graph directed =
      GenerateErdosRenyi(30, 6.0, directed_labels, 82).ValueOrDie();
  for (const Graph* data : {&undirected, &directed}) {
    SCOPED_TRACE(data->directed() ? "directed" : "undirected");
    std::set<size_t> mate_counts;
    MateImages images;
    const auto covered = [&] {
      return mate_counts.size() == 3 && images.in_list > 0 &&
             images.outside > 0;
    };
    for (uint64_t seed = 1; seed < 60 && !covered(); ++seed) {
      const Graph q = RandomQuery(*data, seed, 3 + seed % 3);
      const CandidateSet ldf = LDFFilter().Filter(q, *data).ValueOrDie();
      OrderingContext ctx;
      ctx.query = &q;
      ctx.data = data;
      ctx.candidates = &ldf;
      const std::vector<VertexId> order =
          RIOrdering().MakeOrder(ctx).ValueOrDie();
      size_t mates = 0;
      for (size_t p = 0; p + 1 < order.size(); ++p) {
        mates += q.label(order[p]) == q.label(order.back());
      }
      if (mates == 0 || mates > 3) continue;
      mate_counts.insert(mates);
      SCOPED_TRACE("query seed " + std::to_string(seed) + ", " +
                   std::to_string(mates) + " mates");
      const uint64_t expected = BruteForceMatch(q, *data).size();
      for (const char* filter_name : {"LDF", "NLF", "GQL", "DAG-DP"}) {
        SCOPED_TRACE(filter_name);
        const CandidateSet cs = MakeFilter(filter_name)
                                    .ValueOrDie()
                                    ->Filter(q, *data)
                                    .ValueOrDie();
        EXPECT_EQ(ExpectCountOnlyChargesAsStored(q, *data, cs, order),
                  expected);
      }
      EnumerateOptions store;
      store.match_limit = 0;
      store.store_embeddings = true;
      const EnumerateResult stored =
          Enumerator().Run(q, *data, ldf, order, store).ValueOrDie();
      const MateImages found =
          CountMateImages(q, *data, order, stored.embeddings);
      images.in_list += found.in_list;
      images.outside += found.outside;
    }
    EXPECT_EQ(mate_counts, (std::set<size_t>{1, 2, 3}));
    EXPECT_GT(images.in_list, 0u);
    EXPECT_GT(images.outside, 0u);
  }
}

/// Candidate membership in both membership modes. Narrowing C(u) at an
/// internal order position with a backward constraint makes the membership
/// test decide there. (The last position takes no membership test: under
/// the complete-filter contract every unvisited vertex of its lists is in
/// C(u), and debug builds check that, so narrowing its C(u) by hand would
/// break the contract.) `workspace.grow=error` denies the stamp array, so
/// the second pass runs the binary-search membership path.
TEST(CountOnlyTest, MembershipDecidesOnNarrowedSetsInBothModes) {
  const Graph data = RandomData(73, 60, 5.0, 2);
  const Graph q = RandomQuery(data, 74, 4);
  CandidateSet cs = LDFFilter().Filter(q, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &q;
  ctx.data = &data;
  ctx.candidates = &cs;
  const std::vector<VertexId> order =
      RIOrdering().MakeOrder(ctx).ValueOrDie();
  EnumerateOptions count;
  count.match_limit = 0;
  const uint64_t full =
      Enumerator().Run(q, data, cs, order, count).ValueOrDie().num_matches;

  const size_t position = order.size() - 2;
  const VertexId narrowed_u = order[position];
  bool has_backward = false;
  for (size_t p = 0; p < position; ++p) {
    has_backward |= q.HasEdge(order[p], narrowed_u);
  }
  ASSERT_TRUE(has_backward);
  std::vector<VertexId> narrowed;
  for (size_t i = 0; i < cs.candidates(narrowed_u).size(); i += 2) {
    narrowed.push_back(cs.candidates(narrowed_u)[i]);
  }
  cs.Set(narrowed_u, std::move(narrowed));

  for (const bool grow_denied : {false, true}) {
    SCOPED_TRACE(grow_denied ? "binary search" : "stamped");
    if (grow_denied) {
      ASSERT_TRUE(failpoint::Activate("workspace.grow", "error").ok());
    }
    EnumeratorWorkspace probe;
    const uint64_t matches = Enumerator()
                                 .Run(q, data, cs, order, count, &probe)
                                 .ValueOrDie()
                                 .num_matches;
    EXPECT_EQ(probe.stats().last_dense, !grow_denied);
    EXPECT_GT(matches, 0u);
    EXPECT_LT(matches, full);
    EXPECT_EQ(ExpectCountOnlyChargesAsStored(q, data, cs, order), matches);
    failpoint::DeactivateAll();
  }
}

}  // namespace
}  // namespace rlqvo
