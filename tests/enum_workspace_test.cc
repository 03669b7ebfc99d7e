#include "matching/enum_workspace.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/matcher.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::IsIsomorphism;
using testing_util::RandomData;
using testing_util::RandomQuery;

/// When `active`, pins binary-search membership for its lifetime: the
/// `workspace.grow` failpoint denies every stamp-array growth, so a
/// workspace that has not grown a stamp array yet degrades to the sparse
/// path (the production fallback under memory pressure). Without it the
/// small test graphs (|V(G)| <= kDenseVertexCutoff) always take the stamped
/// path.
class DenyStampGrowth {
 public:
  explicit DenyStampGrowth(bool active) : active_(active) {
    if (active_) {
      EXPECT_TRUE(failpoint::Activate("workspace.grow", "error").ok());
    }
  }
  ~DenyStampGrowth() {
    if (active_) failpoint::Deactivate("workspace.grow");
  }
  DenyStampGrowth(const DenyStampGrowth&) = delete;
  DenyStampGrowth& operator=(const DenyStampGrowth&) = delete;

 private:
  bool active_;
};

EnumerateOptions Unlimited() {
  EnumerateOptions opts;
  opts.match_limit = 0;
  return opts;
}

std::vector<VertexId> IdentityOrder(const Graph& q) {
  std::vector<VertexId> order(q.num_vertices());
  for (VertexId u = 0; u < q.num_vertices(); ++u) order[u] = u;
  return order;
}

/// Randomized equivalence: one reused workspace, both membership paths, the
/// result always equals BruteForceMatch — the reference the seed bitmap path
/// was validated against.
class WorkspaceEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WorkspaceEquivalenceTest, AllModesAgreeWithBruteForce) {
  const uint64_t seed = GetParam();
  Graph data = RandomData(seed, 50, 4.0, 3);
  Graph query = RandomQuery(data, seed * 17 + 3, 3 + seed % 3);
  const uint64_t expected = BruteForceMatch(query, data).size();
  ASSERT_GT(expected, 0u);

  CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  Enumerator enumerator;
  EnumeratorWorkspace ws;  // shared by both paths: epochs must isolate
  // Sparse first: denied growth pins binary search only while the workspace
  // has no stamp array. The dense runs then grow one and reuse it.
  for (const bool sparse : {true, false, false}) {
    const DenyStampGrowth deny(sparse);
    auto result =
        enumerator.Run(query, data, cs, order, Unlimited(), &ws).ValueOrDie();
    EXPECT_EQ(ws.stats().last_dense, !sparse);
    EXPECT_EQ(result.num_matches, expected) << "sparse=" << sparse;
    EXPECT_FALSE(result.timed_out);
  }
  EXPECT_EQ(ws.stats().prepares, 3u);
  EXPECT_EQ(ws.stats().dense_prepares, 2u);
  EXPECT_EQ(ws.stats().sparse_fallbacks, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkspaceEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(EnumWorkspaceTest, DisconnectedQueryMatchesBruteForce) {
  // Two components: a labeled triangle and a disjoint edge. Any permutation
  // is a legal order now; the component break falls back to iterating C(u).
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 0);
  qb.AddVertex(1);
  qb.AddVertex(0);
  qb.AddEdge(3, 4);
  Graph query = qb.Build();

  Graph data = RandomData(91, 60, 5.0, 2);
  const uint64_t expected = BruteForceMatch(query, data).size();

  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  for (const bool sparse : {true, false}) {
    const DenyStampGrowth deny(sparse);
    auto result =
        enumerator.Run(query, data, cs, IdentityOrder(query), Unlimited(), &ws)
            .ValueOrDie();
    EXPECT_EQ(ws.stats().last_dense, !sparse);
    EXPECT_EQ(result.num_matches, expected) << "sparse=" << sparse;
  }
}

TEST(EnumWorkspaceTest, DisconnectedOrderOnConnectedQueryStillExact) {
  // A path 0-1-2 enumerated in the non-connected order {0, 2, 1}: position 1
  // has no mapped backward neighbor, exercising the fallback mid-order.
  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  Graph query = qb.Build();
  Graph data = RandomData(92, 40, 4.0, 1);
  const uint64_t expected = BruteForceMatch(query, data).size();

  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  auto result =
      enumerator.Run(query, data, cs, {0, 2, 1}, Unlimited(), &ws)
          .ValueOrDie();
  EXPECT_EQ(result.num_matches, expected);
}

TEST(EnumWorkspaceTest, ReuseAcrossQueriesAndGraphsLeavesNoStaleState) {
  // One workspace serves alternating (query, data) pairs of different sizes
  // for many rounds; every run must match a fresh-workspace run. This is
  // the cross-query leak test: stale candidate stamps, visited marks or
  // backward lists would skew counts.
  Enumerator enumerator;
  EnumeratorWorkspace reused;

  struct Case {
    Graph data;
    Graph query;
    CandidateSet cs;
    std::vector<VertexId> order;
    uint64_t expected = 0;
  };
  std::vector<Case> cases;
  for (uint64_t seed : {101u, 202u, 303u}) {
    Case c;
    c.data = RandomData(seed, 30 + 15 * (seed % 3), 4.0, 2 + seed % 2);
    c.query = RandomQuery(c.data, seed + 7, 3 + seed % 2);
    c.cs = LDFFilter().Filter(c.query, c.data).ValueOrDie();
    OrderingContext octx;
    octx.query = &c.query;
    octx.data = &c.data;
    octx.candidates = &c.cs;
    c.order = RIOrdering().MakeOrder(octx).ValueOrDie();
    EnumeratorWorkspace fresh;
    c.expected = enumerator
                     .Run(c.query, c.data, c.cs, c.order, Unlimited(), &fresh)
                     .ValueOrDie()
                     .num_matches;
    cases.push_back(std::move(c));
  }

  // 300 rounds crosses the uint8 epoch wrap (every 255 prepares), proving
  // the wrap-around clear keeps reuse exact.
  for (int round = 0; round < 300; ++round) {
    const Case& c = cases[round % cases.size()];
    auto result =
        enumerator.Run(c.query, c.data, c.cs, c.order, Unlimited(), &reused)
            .ValueOrDie();
    ASSERT_EQ(result.num_matches, c.expected) << "round " << round;
  }
  EXPECT_EQ(reused.stats().prepares, 300u);
  EXPECT_GE(reused.stats().epoch_resets, 1u);
  // Steady state: the stamp array grew to the high-water mark and stopped.
  EXPECT_LE(reused.stats().stamp_grows, cases.size());
}

/// Vertices 1..20 on a path, labels alternating 1 and 0, and a hub, vertex
/// 0, of label 2 joined to vertices first..last. Graphs built with other
/// spoke ranges share every vertex id and label but differ in adjacency.
Graph HubAndPath(VertexId first, VertexId last) {
  GraphBuilder b;
  b.AddVertex(2);
  for (VertexId v = 1; v <= 20; ++v) b.AddVertex(v % 2);
  for (VertexId v = 1; v < 20; ++v) b.AddEdge(v, v + 1);
  for (VertexId v = first; v <= last; ++v) b.AddEdge(0, v);
  return b.Build();
}

/// A triangle of the hub label and labels `a` and 1 - a, ordered hub first.
/// Mapped into a HubAndPath graph, the hub always lands on vertex 0, so
/// every run's slice lookups at both depths anchor on the same vertex.
Graph HubTriangle(Label a) {
  GraphBuilder b;
  b.AddVertex(2);
  b.AddVertex(a);
  b.AddVertex(1 - a);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return b.Build();
}

/// The slice memo across Prepares: one workspace (and one set of worker
/// workspaces) serves data graphs that share vertex ids but differ in
/// adjacency, and queries whose labels differ at the same depth, with the
/// same anchor vertex every time. Each run must equal a fresh workspace's
/// run, counters and embeddings alike, in both modes, serial and parallel.
TEST(EnumWorkspaceTest, SliceMemoStartsEmptyOnEveryPrepare) {
  const Graph graphs[] = {HubAndPath(1, 12), HubAndPath(5, 20)};
  const Graph queries[] = {HubTriangle(0), HubTriangle(1)};
  const std::vector<VertexId> order = {0, 1, 2};
  Enumerator enumerator;
  EnumeratorWorkspace reused;
  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> reused_workers(pool.size());
  EnumeratorWorkspace reused_caller;
  ParallelEnumResources resources;
  resources.pool = &pool;
  resources.worker_workspaces = &reused_workers;
  resources.caller_workspace = &reused_caller;

  std::set<uint64_t> match_counts;
  for (int round = 0; round < 2; ++round) {
    for (const Graph& data : graphs) {
      for (const Graph& query : queries) {
        const CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
        for (const bool store : {false, true}) {
          SCOPED_TRACE("round " + std::to_string(round) + " spokes " +
                       std::to_string(data.degree(0)) + " a-label " +
                       std::to_string(query.label(1)) +
                       (store ? " storing" : " count-only"));
          EnumerateOptions opts = Unlimited();
          opts.store_embeddings = store;
          EnumeratorWorkspace fresh;
          const EnumerateResult expected =
              enumerator.Run(query, data, cs, order, opts, &fresh)
                  .ValueOrDie();
          ASSERT_GT(expected.num_matches, 0u);
          match_counts.insert(expected.num_matches);
          const EnumerateResult serial =
              enumerator.Run(query, data, cs, order, opts, &reused)
                  .ValueOrDie();
          opts.parallel_threads = pool.size();
          const EnumerateResult parallel =
              enumerator.RunParallel(query, data, cs, order, opts, resources)
                  .ValueOrDie();
          EnumWorkCounters::ForEachField(
              [&](const char* name, uint64_t EnumWorkCounters::*field,
                  EnumWorkCounters::Rule) {
                EXPECT_EQ(serial.*field, expected.*field) << name;
              });
          EXPECT_EQ(serial.embeddings, expected.embeddings);
          // The parallel run's scheduler diagnostics describe its schedule.
          EXPECT_EQ(parallel.num_matches, expected.num_matches);
          EXPECT_EQ(parallel.num_enumerations, expected.num_enumerations);
          EXPECT_EQ(parallel.local_candidates_total,
                    expected.local_candidates_total);
          EXPECT_EQ(parallel.num_probe_comparisons,
                    expected.num_probe_comparisons);
          EXPECT_EQ(parallel.embeddings, expected.embeddings);
        }
      }
    }
  }
  // The two graphs really differ where the memo could confuse them.
  EXPECT_EQ(match_counts.size(), 2u);
}

TEST(EnumWorkspaceTest, MatchLimitPathWithReusedWorkspace) {
  Graph data = RandomData(111, 100, 6.0, 1);  // single label: many matches
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddEdge(0, 1);
  Graph query = qb.Build();
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();

  EnumerateOptions opts;
  opts.match_limit = 10;
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  for (int i = 0; i < 3; ++i) {
    auto result =
        enumerator.Run(query, data, cs, {0, 1}, opts, &ws).ValueOrDie();
    EXPECT_EQ(result.num_matches, 10u);
    EXPECT_TRUE(result.hit_match_limit);
  }
}

TEST(EnumWorkspaceTest, ExpiredExternalDeadlineCountsSetupAgainstBudget) {
  Graph data = RandomData(121, 80, 5.0, 2);
  Graph query = RandomQuery(data, 122, 5);
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  // A deadline that is already (effectively) expired when Run starts: the
  // post-setup check must report the timeout before any recursion happens.
  const Deadline expired(1e-12);
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  auto result =
      enumerator.Run(query, data, cs, order, Unlimited(), &ws, &expired)
          .ValueOrDie();
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_EQ(result.num_enumerations, 0u);
}

/// The steady state allocates nothing: after one warm-up Prepare, further
/// Prepares of the same query leave the stamp array as it was.
TEST(EnumWorkspaceTest, SteadyStatePreparesNeverGrowTheStampArray) {
  const Graph data = RandomData(171, 2000, 8.0, 4);
  const Graph query = RandomQuery(data, 172, 12);
  const CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  const auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  EnumeratorWorkspace ws;
  ASSERT_TRUE(ws.Prepare(query, data, cs, order).ok());  // warm-up growth
  const EnumeratorWorkspace::Stats warm = ws.stats();
  EXPECT_EQ(warm.stamp_grows, 1u);
  EXPECT_EQ(warm.stamp_bytes,
            static_cast<size_t>(query.num_vertices()) * data.num_vertices());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ws.Prepare(query, data, cs, order).ok());
  }
  EXPECT_EQ(ws.stats().stamp_grows, warm.stamp_grows);
  EXPECT_EQ(ws.stats().stamp_bytes, warm.stamp_bytes);
  EXPECT_EQ(ws.stats().prepares, 51u);
  EXPECT_EQ(ws.stats().dense_prepares, 51u);
}

/// The visited marks are a plain array that Prepare never clears: every
/// mark must be undone by the code that set it, however the run ends. A
/// workspace reused after runs cut by a match limit, by a deadline and by
/// a parallel match limit must equal a fresh one on every counter of a
/// full run, counting and storing.
TEST(EnumWorkspaceTest, ReuseAfterCutRunsEqualsAFreshWorkspace) {
  const Graph data = RandomData(181, 60, 6.0, 1);
  const Graph query = RandomQuery(data, 182, 5);
  const CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  const auto order = RIOrdering().MakeOrder(octx).ValueOrDie();
  Enumerator enumerator;
  ThreadPool pool(2);
  int mid_run_deadline_cuts = 0;

  for (const bool store : {false, true}) {
    SCOPED_TRACE(store ? "storing" : "count-only");
    EnumerateOptions full = Unlimited();
    full.store_embeddings = store;
    EnumeratorWorkspace fresh;
    const EnumerateResult expected =
        enumerator.Run(query, data, cs, order, full, &fresh).ValueOrDie();
    ASSERT_GT(expected.num_matches, 100u);
    auto expect_full_run = [&](EnumeratorWorkspace* ws,
                               const std::string& after) {
      const EnumerateResult r =
          enumerator.Run(query, data, cs, order, full, ws).ValueOrDie();
      EnumWorkCounters::ForEachField(
          [&](const char* name, uint64_t EnumWorkCounters::*field,
              EnumWorkCounters::Rule) {
            EXPECT_EQ(r.*field, expected.*field) << after << ": " << name;
          });
      EXPECT_EQ(r.embeddings, expected.embeddings) << after;
    };

    EnumerateOptions cut = full;
    cut.match_limit = expected.num_matches / 3;
    EnumeratorWorkspace reused;
    const EnumerateResult limited =
        enumerator.Run(query, data, cs, order, cut, &reused).ValueOrDie();
    ASSERT_TRUE(limited.hit_match_limit);
    expect_full_run(&reused, "match limit");

    for (const double seconds : {2e-5, 1e-4, 5e-4, 2e-3}) {
      const Deadline deadline(seconds);
      const EnumerateResult timed =
          enumerator.Run(query, data, cs, order, full, &reused, &deadline)
              .ValueOrDie();
      if (!timed.timed_out) continue;
      mid_run_deadline_cuts += timed.num_enumerations > 0;
      expect_full_run(&reused, "deadline " + std::to_string(seconds));
    }

    // Eight loop tasks on two workers and the caller: the seeds no loop
    // claimed are stolen, and the limit cuts only after nearly all the
    // work, carved segments with their installed prefixes included.
    std::vector<EnumeratorWorkspace> workers(pool.size());
    ParallelEnumResources resources;
    resources.pool = &pool;
    resources.worker_workspaces = &workers;
    resources.caller_workspace = &reused;
    cut.match_limit = expected.num_matches - 1;
    cut.parallel_threads = 8;
    ASSERT_GE(cs.candidates(order[0]).size(), cut.parallel_threads);
    const EnumerateResult parallel =
        enumerator.RunParallel(query, data, cs, order, cut, resources)
            .ValueOrDie();
    ASSERT_TRUE(parallel.hit_match_limit);
    EXPECT_GT(parallel.num_steals, 0u);
    expect_full_run(&reused, "parallel match limit, caller");
    for (size_t w = 0; w < workers.size(); ++w) {
      expect_full_run(&workers[w],
                      "parallel match limit, worker " + std::to_string(w));
    }
  }
  EXPECT_GT(mid_run_deadline_cuts, 0);
}

TEST(EnumWorkspaceTest, AutoModePicksBinarySearchOnLargeSparseGraph) {
  // 70k vertices (> kDenseVertexCutoff) with 200 uniform labels: every
  // candidate row fills ~0.5% < kDenseMinFill, so Prepare must skip the
  // stamp array entirely.
  LabelConfig labels;
  labels.num_labels = 200;
  labels.zipf_exponent = 0.0;  // uniform
  Graph data = GenerateErdosRenyi(70000, 4.0, labels, 131).ValueOrDie();
  ASSERT_GT(data.num_vertices(), EnumeratorWorkspace::kDenseVertexCutoff);
  Graph query = RandomQuery(data, 132, 4);
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(octx).ValueOrDie();

  Enumerator enumerator;
  EnumeratorWorkspace ws;
  ASSERT_TRUE(enumerator.Run(query, data, cs, order, {}, &ws).ok());
  EXPECT_FALSE(ws.stats().last_dense);
  EXPECT_EQ(ws.stats().sparse_fallbacks, 0u);  // chosen, not denied
  EXPECT_EQ(ws.stats().stamp_bytes, 0u);       // never allocated
}

TEST(EnumWorkspaceTest, StoredEmbeddingsAreIsomorphismsAcrossReuse) {
  Graph data = RandomData(141, 50, 4.0, 2);
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph query = RandomQuery(data, 400 + seed, 4);
    CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
    OrderingContext octx;
    octx.query = &query;
    octx.data = &data;
    octx.candidates = &cs;
    auto order = GQLOrdering().MakeOrder(octx).ValueOrDie();
    EnumerateOptions opts;
    opts.match_limit = 0;
    opts.store_embeddings = true;
    auto result =
        enumerator.Run(query, data, cs, order, opts, &ws).ValueOrDie();
    ASSERT_EQ(result.embeddings.size(), result.num_matches);
    for (const auto& embedding : result.embeddings) {
      EXPECT_TRUE(IsIsomorphism(query, data, embedding));
    }
  }
}

TEST(EnumWorkspaceTest, OutOfRangeCandidatesRejectedOnBothPaths) {
  Graph data = RandomData(151);
  Graph query = RandomQuery(data, 152, 4);
  CandidateSet cs(query.num_vertices());
  for (VertexId u = 0; u < query.num_vertices(); ++u) {
    cs.Set(u, {data.num_vertices() + 1});
  }
  Enumerator enumerator;
  EnumeratorWorkspace ws;
  for (const bool sparse : {true, false}) {
    const DenyStampGrowth deny(sparse);
    auto result =
        enumerator.Run(query, data, cs, IdentityOrder(query), {}, &ws);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.status().IsInvalidArgument()) << "sparse=" << sparse;
  }
}

/// The matcher-level workspace: repeated Match calls on one SubgraphMatcher
/// reuse its workspace and stay identical to a fresh matcher's results.
TEST(EnumWorkspaceTest, SubgraphMatcherReusesWorkspaceAcrossMatches) {
  Graph data = RandomData(161, 60, 4.0, 3);
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  for (uint64_t seed : {11u, 12u, 13u, 11u}) {  // repeat 11 to re-hit state
    Graph query = RandomQuery(data, seed, 4);
    const MatchRunStats reused = matcher->Match(query, data).ValueOrDie();
    auto fresh_matcher = MakeMatcherByName("Hybrid").ValueOrDie();
    const MatchRunStats fresh = fresh_matcher->Match(query, data).ValueOrDie();
    EXPECT_EQ(reused.num_matches, fresh.num_matches);
    EXPECT_EQ(reused.num_enumerations, fresh.num_enumerations);
    EXPECT_EQ(reused.order, fresh.order);
  }
}

}  // namespace
}  // namespace rlqvo
