// Chaos suite: iterate every registered failpoint — in every mode — against
// a live QueryEngine and assert the robustness contracts of
// docs/ROBUSTNESS.md:
//   - no crash, ever: faults surface as Status or degrade to a slower path;
//   - batch isolation: a failed query occupies exactly its own statuses[i],
//     every other query completes with results identical to a fault-free run;
//   - balanced cache accounting under any interleaving of faults and
//     retries: hits + misses == lookups on both engine caches;
//   - exact enumeration budgets: match_limit holds to the match even while
//     faults force degraded paths;
//   - overload sheds with retryable kResourceExhausted while admitted
//     queries still complete.
// Runs in Release and under ASan/TSan (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "core/rlqvo.h"
#include "engine/query_engine.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = std::make_shared<const Graph>(RandomData(8101, 60, 5.0, 3));
    for (int i = 0; i < 8; ++i) {
      queries_.push_back(RandomQuery(*data_, 8200 + i, 4));
    }
  }

  // Failpoints and the global budget are process state; never leak them
  // into the next test.
  void TearDown() override {
    failpoint::DeactivateAll();
    MemoryBudget::Global().set_limit_bytes(0);
  }

  std::shared_ptr<QueryEngine> MakeEngine(const EngineOptions& options = {
                                              .num_threads = 4}) {
    return MakeEngineByName("Hybrid", data_, options).ValueOrDie();
  }

  // Per-query match counts with a sentinel for failed slots, for
  // baseline-vs-chaos comparison.
  static std::vector<uint64_t> MatchCounts(const BatchResult& batch) {
    std::vector<uint64_t> counts(batch.statuses.size(), UINT64_MAX);
    for (size_t i = 0; i < batch.statuses.size(); ++i) {
      if (batch.statuses[i].ok()) counts[i] = batch.per_query[i].num_matches;
    }
    return counts;
  }

  static void ExpectBalancedAccounting(const QueryEngine& engine) {
    const EngineCounters c = engine.counters();
    EXPECT_EQ(c.cache.hits + c.cache.misses, c.cache.lookups)
        << "candidate cache accounting unbalanced";
    EXPECT_EQ(c.order_cache.hits + c.order_cache.misses,
              c.order_cache.lookups)
        << "order cache accounting unbalanced";
  }

  std::shared_ptr<const Graph> data_;
  std::vector<Graph> queries_;
};

// The capstone sweep: every registered site, in all three modes, against a
// fresh live engine. Contracts: the process never dies, the batch call
// itself stays OK (faults are per-query outcomes), every OK query returns
// exactly its fault-free match count, and cache accounting balances.
TEST_F(ChaosTest, EveryFailpointEveryModeNoCrashAndIsolation) {
  const std::vector<uint64_t> baseline =
      MatchCounts(MakeEngine()->MatchBatch(queries_).ValueOrDie());
  for (uint64_t count : baseline) ASSERT_NE(count, UINT64_MAX);

  for (std::string_view site : failpoint::AllSites()) {
    for (const char* mode : {"error", "delay:1", "prob:0.5"}) {
      ASSERT_TRUE(failpoint::Activate(site, mode).ok());
      auto engine = MakeEngine();
      auto result = engine->MatchBatch(queries_);
      ASSERT_TRUE(result.ok())
          << site << "=" << mode << ": " << result.status().ToString();
      const BatchResult& batch = result.ValueOrDie();
      uint32_t failed = 0;
      for (size_t i = 0; i < queries_.size(); ++i) {
        if (batch.statuses[i].ok()) {
          // Isolation + graceful degradation: an admitted query that
          // completed must have the exact fault-free answer, whatever
          // slower path it was forced onto.
          EXPECT_EQ(batch.per_query[i].num_matches, baseline[i])
              << site << "=" << mode << " changed query " << i;
        } else {
          ++failed;
        }
      }
      EXPECT_EQ(batch.failed, failed) << site << "=" << mode;
      ExpectBalancedAccounting(*engine);
      failpoint::DeactivateAll();
    }
  }

  // Full recovery: with every site off again, a fresh engine reproduces
  // the baseline exactly.
  EXPECT_EQ(MatchCounts(MakeEngine()->MatchBatch(queries_).ValueOrDie()),
            baseline);
}

// The work-stealing scheduler's failpoints only evaluate under intra-query
// parallelism (the capstone sweep above runs them against a serial-enum
// engine, where they are dormant). Against an engine that fans segments
// into its pool, both sites are pure degradations — `enumerate.split`
// keeps work on the owner's deque, `enumerate.steal` sends the hunter back
// to waiting — so no mode may crash, fail a query, or change an answer:
// untruncated results are bit-determined regardless of the schedule.
TEST_F(ChaosTest, WorkStealingFailpointsDegradeWithoutChangingAnswers) {
  EnumerateOptions enum_options;
  enum_options.parallel_threads = 3;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  auto make_parallel_engine = [&] {
    return MakeEngineByName("Hybrid", data_, engine_options, enum_options)
        .ValueOrDie();
  };
  const std::vector<uint64_t> baseline =
      MatchCounts(make_parallel_engine()->MatchBatch(queries_).ValueOrDie());
  for (uint64_t count : baseline) ASSERT_NE(count, UINT64_MAX);

  for (const char* site : {"enumerate.split", "enumerate.steal"}) {
    for (const char* mode : {"error", "delay:1", "prob:0.5"}) {
      ASSERT_TRUE(failpoint::Activate(site, mode).ok());
      auto engine = make_parallel_engine();
      const BatchResult batch = engine->MatchBatch(queries_).ValueOrDie();
      for (size_t i = 0; i < queries_.size(); ++i) {
        ASSERT_TRUE(batch.statuses[i].ok())
            << site << "=" << mode << " failed query " << i << ": "
            << batch.statuses[i].ToString();
        EXPECT_EQ(batch.per_query[i].num_matches, baseline[i])
            << site << "=" << mode << " changed query " << i;
      }
      EXPECT_EQ(batch.failed, 0u) << site << "=" << mode;
      ExpectBalancedAccounting(*engine);
      failpoint::DeactivateAll();
    }
  }
}

// prob:p faults on the filter phase land in individual statuses[i] slots
// with the catalogued code; the rest of the batch is untouched.
TEST_F(ChaosTest, ProbabilisticFaultsAreIsolatedPerQuery) {
  const std::vector<uint64_t> baseline =
      MatchCounts(MakeEngine()->MatchBatch(queries_).ValueOrDie());
  ASSERT_TRUE(failpoint::Activate("engine.filter", "prob:0.5").ok());
  auto engine = MakeEngine();
  // Several rounds so both outcomes occur with overwhelming probability.
  BatchOptions options;
  options.skip_cache = true;  // every query re-filters -> independent draws
  uint64_t ok_queries = 0, failed_queries = 0;
  for (int round = 0; round < 6; ++round) {
    const BatchResult batch =
        engine->MatchBatch(queries_, options).ValueOrDie();
    for (size_t i = 0; i < queries_.size(); ++i) {
      if (batch.statuses[i].ok()) {
        ++ok_queries;
        EXPECT_EQ(batch.per_query[i].num_matches, baseline[i]);
      } else {
        ++failed_queries;
        EXPECT_EQ(batch.statuses[i].code(), StatusCode::kInternal);
        EXPECT_NE(batch.statuses[i].message().find("engine.filter"),
                  std::string::npos);
      }
    }
  }
  // 48 fair coin flips: P(all same side) ~ 2^-47.
  EXPECT_GT(ok_queries, 0u);
  EXPECT_GT(failed_queries, 0u);
}

// match_limit is exact even while chaos forces the degraded membership and
// uncached paths: a truncated enumeration still emits exactly the limit.
TEST_F(ChaosTest, MatchLimitExactUnderChaos) {
  // Complete graph on one label: a triangle query has 30*29*28 embeddings,
  // far beyond the limit.
  GraphBuilder db;
  for (int i = 0; i < 30; ++i) db.AddVertex(0);
  for (VertexId u = 0; u < 30; ++u) {
    for (VertexId v = u + 1; v < 30; ++v) db.AddEdge(u, v);
  }
  auto data = std::make_shared<const Graph>(db.Build());
  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(0, 2);
  std::vector<Graph> queries(4, qb.Build());

  ASSERT_TRUE(
      failpoint::ActivateFromSpec("workspace.grow=error,cache.put=error")
          .ok());
  EnumerateOptions enum_options;
  enum_options.match_limit = 10;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  auto engine =
      MakeEngineByName("Hybrid", data, engine_options, enum_options)
          .ValueOrDie();
  const BatchResult batch = engine->MatchBatch(queries).ValueOrDie();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch.statuses[i].ok());
    EXPECT_EQ(batch.per_query[i].num_matches, 10u) << "query " << i;
  }
  ExpectBalancedAccounting(*engine);
}

// Admission control: queries beyond max_batch_queries are shed with a
// retryable kResourceExhausted in their own slot while every admitted
// query completes with the fault-free answer.
TEST_F(ChaosTest, OverloadShedsRetryablyWhileAdmittedQueriesComplete) {
  const std::vector<uint64_t> baseline =
      MatchCounts(MakeEngine()->MatchBatch(queries_).ValueOrDie());
  EngineOptions options;
  options.num_threads = 4;
  options.max_batch_queries = 4;
  auto engine = MakeEngine(options);
  const BatchResult batch = engine->MatchBatch(queries_).ValueOrDie();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (i < 4) {
      ASSERT_TRUE(batch.statuses[i].ok()) << "admitted query " << i;
      EXPECT_EQ(batch.per_query[i].num_matches, baseline[i]);
    } else {
      EXPECT_TRUE(batch.statuses[i].IsResourceExhausted());
      EXPECT_TRUE(IsRetryable(batch.statuses[i]));
    }
  }
  EXPECT_EQ(batch.failed, 4u);
  const EngineCounters counters = engine->counters();
  EXPECT_EQ(counters.queries_shed, 4u);
  EXPECT_EQ(counters.queries_served, 4u);
  ExpectBalancedAccounting(*engine);
}

// Batch-level admission: with max_pending_batches=1 and a slow batch in
// flight (latency injected into enumeration), a second concurrent batch is
// shed whole — immediately and retryably — instead of queueing behind it.
TEST_F(ChaosTest, ConcurrentBatchBeyondPendingCapIsShedWhole) {
  EngineOptions options;
  options.num_threads = 2;
  options.max_pending_batches = 1;
  auto engine = MakeEngine(options);
  ASSERT_TRUE(failpoint::Activate("engine.enumerate", "delay:100").ok());
  std::atomic<bool> slow_started{false};
  Result<BatchResult> slow = Status::Internal("not run yet");
  std::thread slow_batch([&] {
    slow_started.store(true);
    slow = engine->MatchBatch(queries_);
  });
  while (!slow_started.load()) std::this_thread::yield();
  // Give the slow batch time to pass admission and start its (delayed)
  // queries; 8 queries x 100ms over 2 workers keeps it in flight ~400ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto shed = engine->MatchBatch(queries_);
  slow_batch.join();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow.ValueOrDie().failed, 0u);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());
  EXPECT_TRUE(IsRetryable(shed.status()));
  EXPECT_EQ(engine->counters().batches_shed, 1u);
}

// Memory-budget degradation ladder: under a starvation-level budget the
// workspace's stamp table is denied and it stays on binary-search
// membership — and the answers do not change.
TEST_F(ChaosTest, MemoryStarvationDegradesGracefullyWithIdenticalResults) {
  // Dense one-label graph: the 3-vertex query below needs a 3 x 200-byte
  // stamp table, more than the starvation budget grants.
  GraphBuilder b;
  for (int i = 0; i < 200; ++i) b.AddVertex(0);
  for (VertexId u = 0; u < 200; ++u) {
    for (VertexId v = u + 1; v < 200; ++v) b.AddEdge(u, v);
  }
  const auto data = std::make_shared<const Graph>(b.Build());

  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(0, 2);
  const Graph query = qb.Build();
  EnumerateOptions enum_options;
  enum_options.match_limit = 5000;

  MemoryBudget::Global().set_limit_bytes(0);
  auto rich_engine =
      MakeEngineByName("Hybrid", data, {.num_threads = 2}, enum_options);
  const uint64_t rich_matches =
      rich_engine.ValueOrDie()->Match(query).ValueOrDie().num_matches;

  MemoryBudget::Global().set_limit_bytes(512);
  const uint64_t denials_before = MemoryBudget::Global().denials();
  auto lean_engine =
      MakeEngineByName("Hybrid", data, {.num_threads = 2}, enum_options);
  const MatchRunStats lean =
      lean_engine.ValueOrDie()->Match(query).ValueOrDie();
  EXPECT_EQ(lean.num_matches, rich_matches);
  EXPECT_GT(MemoryBudget::Global().denials(), denials_before);  // not fatal
}

// A workspace explicitly pinned to the stamped membership path cannot
// degrade; budget denial must surface as kResourceExhausted, not abort.
TEST_F(ChaosTest, ForcedStampedWorkspaceSurfacesResourceExhausted) {
  Graph data = RandomData(8301, 60, 5.0, 3);
  Graph query = RandomQuery(data, 8302, 4);
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  ASSERT_TRUE(failpoint::Activate("workspace.grow", "error").ok());

  EnumeratorWorkspace forced;
  forced.set_mode(EnumeratorWorkspace::MembershipMode::kForceStamped);
  auto filter = matcher->config().filter;
  CandidateSet candidates =
      filter->Filter(query, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &query;
  ctx.data = &data;
  ctx.candidates = &candidates;
  std::vector<VertexId> order =
      matcher->config().ordering->MakeOrder(ctx).ValueOrDie();
  Status denied = forced.Prepare(query, data, candidates, order);
  EXPECT_TRUE(denied.IsResourceExhausted());

  // kAuto degrades instead: same inputs, sparse fallback, success.
  EnumeratorWorkspace auto_ws;
  EXPECT_TRUE(auto_ws.Prepare(query, data, candidates, order).ok());
  EXPECT_FALSE(auto_ws.stats().last_dense);
  EXPECT_GE(auto_ws.stats().sparse_fallbacks, 1u);
}

// The three I/O failpoints inject at their real call sites: loading a
// graph file, parsing graph text, and reading a model checkpoint.
TEST_F(ChaosTest, IoFailpointsInjectAtTheirCallSites) {
  const std::string graph_path =
      (std::filesystem::temp_directory_path() / "rlqvo_chaos.graph").string();
  Graph g = RandomData(8401, 30, 3.0, 2);
  ASSERT_TRUE(SaveGraphToFile(g, graph_path).ok());
  ASSERT_TRUE(failpoint::Activate("graph_io.load", "error").ok());
  EXPECT_TRUE(LoadGraphFromFile(graph_path).status().IsIOError());
  failpoint::DeactivateAll();
  ASSERT_TRUE(failpoint::Activate("graph_io.parse", "error").ok());
  EXPECT_TRUE(
      LoadGraphFromFile(graph_path).status().IsInvalidArgument());
  failpoint::DeactivateAll();
  EXPECT_TRUE(LoadGraphFromFile(graph_path).ok());
  std::remove(graph_path.c_str());

  const std::string model_path =
      (std::filesystem::temp_directory_path() / "rlqvo_chaos.model").string();
  RLQVOModel model;
  ASSERT_TRUE(model.Save(model_path).ok());
  ASSERT_TRUE(failpoint::Activate("nn.checkpoint_load", "error").ok());
  EXPECT_TRUE(RLQVOModel::Load(model_path).status().IsIOError());
  failpoint::DeactivateAll();
  EXPECT_TRUE(RLQVOModel::Load(model_path).ok());
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace rlqvo
