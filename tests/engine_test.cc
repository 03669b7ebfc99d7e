#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "core/rlqvo.h"
#include "engine/candidate_cache.h"
#include "engine/query_engine.h"
#include "matching/filters.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

std::vector<Graph> MakeQueries(const Graph& data, uint64_t seed, size_t count,
                               uint32_t size = 4) {
  std::vector<Graph> queries;
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(RandomQuery(data, seed + i, size));
  }
  return queries;
}

// --- ThreadPool ---

TEST(ThreadPoolTest, RunsEveryTaskAndReportsWorkerIndex) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), -1);  // not a worker thread

  std::atomic<int> ran{0};
  std::atomic<bool> bad_index{false};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      const int w = ThreadPool::CurrentWorkerIndex();
      if (w < 0 || w >= 4) bad_index = true;
      ran.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_FALSE(bad_index.load());

  // Wait is repeatable and a second round of submissions works.
  pool.Wait();
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 101);
}

// --- Query fingerprint ---

TEST(QueryFingerprintTest, IdenticalGraphsCollideDistinctOnesDoNot) {
  Graph data = RandomData(11);
  Graph q1 = RandomQuery(data, 21, 5);
  Graph q1_again = RandomQuery(data, 21, 5);
  Graph q2 = RandomQuery(data, 22, 5);
  EXPECT_EQ(QueryFingerprint(q1), QueryFingerprint(q1_again));
  EXPECT_NE(QueryFingerprint(q1), QueryFingerprint(q2));

  // A single label change flips the fingerprint.
  GraphBuilder a, b;
  a.AddVertex(0); a.AddVertex(1); a.AddEdge(0, 1);
  b.AddVertex(0); b.AddVertex(2); b.AddEdge(0, 1);
  EXPECT_NE(QueryFingerprint(a.Build()), QueryFingerprint(b.Build()));
}

TEST(QueryFingerprintTest, ModelViewsOfOneSkeletonNeverAlias) {
  // The same two-edge path 0-1-2 (labels 0,1,0) under five semantic views:
  // undirected single-label, undirected with an edge label, directed
  // forward, directed backward, directed with an edge label. All of these
  // match different embedding sets, so all five fingerprints must differ.
  auto build = [](bool directed, bool reverse, EdgeLabel e01, EdgeLabel e12) {
    GraphBuilder b;
    b.set_directed(directed);
    b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(0);
    if (reverse) {
      b.AddEdge(1, 0, e01);
      b.AddEdge(2, 1, e12);
    } else {
      b.AddEdge(0, 1, e01);
      b.AddEdge(1, 2, e12);
    }
    return b.Build();
  };
  const std::vector<uint64_t> prints = {
      QueryFingerprint(build(false, false, 0, 0)),  // degenerate
      QueryFingerprint(build(false, false, 0, 1)),  // undirected, labeled
      QueryFingerprint(build(true, false, 0, 0)),   // directed forward
      QueryFingerprint(build(true, true, 0, 0)),    // directed backward
      QueryFingerprint(build(true, false, 0, 1)),   // directed, labeled
  };
  std::set<uint64_t> distinct(prints.begin(), prints.end());
  EXPECT_EQ(distinct.size(), prints.size());

  // Equal views key identically (the cache contract's other half).
  EXPECT_EQ(QueryFingerprint(build(true, false, 0, 1)), prints[4]);
}

TEST(QueryFingerprintTest, DirectedQueriesKeyStablyInTheCache) {
  // End-to-end through the engine: repeating a directed edge-labeled batch
  // hits the candidate cache, and a reversed-arc variant does not.
  LabelConfig cfg;
  cfg.num_labels = 3;
  cfg.zipf_exponent = 0.5;
  cfg.num_edge_labels = 2;
  cfg.directed = true;
  Graph data = GenerateErdosRenyi(60, 4.0, cfg, 5).ValueOrDie();
  QuerySampler sampler(&data, 9);
  std::vector<Graph> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(sampler.SampleQuery(4).ValueOrDie());
  }
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();
  auto first = engine->MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(first.cache_hits, 0u);
  auto second = engine->MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(second.cache_hits, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(second.per_query[i].num_matches, first.per_query[i].num_matches);
  }
}

// --- CandidateCache (LRU eviction and counters through GetOrCompute) ---

/// Looks `key` up in `cache`, computing a fresh single-candidate set on a
/// miss; returns whether the value was served without computing.
bool ServedFromCache(CandidateCache* cache, uint64_t key) {
  bool computed = false;
  auto result = cache->GetOrCompute(
      key, /*bypass=*/false,
      []() -> Result<std::shared_ptr<const CandidateSet>> {
        return std::make_shared<const CandidateSet>(CandidateSet(1));
      },
      &computed);
  EXPECT_TRUE(result.ok());
  EXPECT_NE(result.ValueOrDie(), nullptr);
  return !computed;
}

TEST(CandidateCacheTest, LruEvictionAndCounters) {
  CandidateCache cache(2);
  EXPECT_FALSE(ServedFromCache(&cache, 1));  // miss, inserts 1
  EXPECT_FALSE(ServedFromCache(&cache, 2));  // miss, inserts 2
  EXPECT_TRUE(ServedFromCache(&cache, 1));   // hit; 1 becomes MRU
  EXPECT_FALSE(ServedFromCache(&cache, 3));  // miss, evicts 2 (LRU)
  EXPECT_TRUE(ServedFromCache(&cache, 1));
  EXPECT_TRUE(ServedFromCache(&cache, 3));   // 3 MRU, 1 LRU
  EXPECT_FALSE(ServedFromCache(&cache, 2));  // 2 was evicted; evicts 1

  const CandidateCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.lookups, 7u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(c.entries, 2u);
  EXPECT_TRUE(ServedFromCache(&cache, 3));
  EXPECT_TRUE(ServedFromCache(&cache, 2));
}

TEST(CandidateCacheTest, ZeroCapacityDisablesCaching) {
  CandidateCache cache(0);
  EXPECT_FALSE(ServedFromCache(&cache, 1));
  EXPECT_FALSE(ServedFromCache(&cache, 1));
  EXPECT_EQ(cache.counters().entries, 0u);
  EXPECT_EQ(cache.counters().lookups, 0u);
}

// --- QueryEngine ---

TEST(QueryEngineTest, MatchBatchEqualsSequentialMatcher) {
  Graph data = RandomData(31, 80, 4.0, 3);
  std::vector<Graph> queries = MakeQueries(data, 100, 12);

  EnumerateOptions enum_options;
  enum_options.store_embeddings = true;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  auto data_ptr = std::make_shared<const Graph>(data);
  auto engine =
      MakeEngineByName("Hybrid", data_ptr, engine_options, enum_options)
          .ValueOrDie();
  EXPECT_EQ(engine->num_threads(), 4u);

  auto batch = engine->MatchBatch(queries).ValueOrDie();
  ASSERT_EQ(batch.per_query.size(), queries.size());

  auto matcher = MakeMatcherByName("Hybrid", enum_options).ValueOrDie();
  EnumWorkCounters expected_totals;
  for (size_t i = 0; i < queries.size(); ++i) {
    const MatchRunStats sequential =
        matcher->Match(queries[i], data).ValueOrDie();
    const MatchRunStats& parallel = batch.per_query[i];
    EXPECT_EQ(parallel.num_matches, sequential.num_matches) << "query " << i;
    EXPECT_EQ(parallel.num_enumerations, sequential.num_enumerations);
    EXPECT_EQ(parallel.order, sequential.order);
    EXPECT_EQ(parallel.embeddings, sequential.embeddings);
    for (const auto& embedding : parallel.embeddings) {
      EXPECT_TRUE(testing_util::IsIsomorphism(queries[i], data, embedding));
    }
    expected_totals.Merge(sequential);
  }
  // The batch totals are the Merge of the per-query counters, and a serial
  // batch's per-query counters are the sequential matcher's, field by field.
  EnumWorkCounters::ForEachField(
      [&](const char* name, uint64_t EnumWorkCounters::*field,
          EnumWorkCounters::Rule) {
        EXPECT_EQ(batch.totals.*field, expected_totals.*field) << name;
      });
  EXPECT_GT(batch.totals.num_matches, 0u);
  EXPECT_EQ(batch.unsolved, 0u);
}

TEST(QueryEngineTest, DeterministicAcrossRepeatedBatches) {
  Graph data = RandomData(41);
  std::vector<Graph> queries = MakeQueries(data, 200, 8);
  EnumerateOptions enum_options;
  enum_options.store_embeddings = true;
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  auto engine = MakeEngineByName("GQL", std::make_shared<const Graph>(data),
                                 engine_options, enum_options)
                    .ValueOrDie();

  auto first = engine->MatchBatch(queries).ValueOrDie();
  auto second = engine->MatchBatch(queries).ValueOrDie();  // cache-hit path
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(first.per_query[i].num_matches, second.per_query[i].num_matches);
    EXPECT_EQ(first.per_query[i].order, second.per_query[i].order);
    EXPECT_EQ(first.per_query[i].embeddings, second.per_query[i].embeddings);
  }
}

TEST(QueryEngineTest, CacheHitAndMissCounters) {
  Graph data = RandomData(51);
  std::vector<Graph> queries = MakeQueries(data, 300, 6);
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();

  auto first = engine->MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_EQ(first.cache_misses, queries.size());

  auto second = engine->MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(second.cache_hits, queries.size());
  EXPECT_EQ(second.cache_misses, 0u);

  const EngineCounters counters = engine->counters();
  EXPECT_EQ(counters.batches_served, 2u);
  EXPECT_EQ(counters.queries_served, 2 * queries.size());
  EXPECT_EQ(counters.cache.hits, queries.size());
  EXPECT_EQ(counters.cache.misses, queries.size());
  EXPECT_EQ(counters.cache.entries, queries.size());

  // skip_cache bypasses both lookup and insert.
  BatchOptions skip;
  skip.skip_cache = true;
  auto third = engine->MatchBatch(queries, skip).ValueOrDie();
  EXPECT_EQ(third.cache_hits, 0u);
  EXPECT_EQ(third.cache_misses, 0u);

  engine->ClearCache();
  EXPECT_EQ(engine->counters().cache.entries, 0u);
}

TEST(QueryEngineTest, CandidateCacheChargesWhatItsEntriesHold) {
  // RI serves LDF candidates, whose lists grow by push_back and keep slack
  // capacity; the budget must be charged for that capacity too.
  Graph data = RandomData(57, 200, 6.0, 3);
  std::vector<Graph> warmup = MakeQueries(data, 360, 1, 5);
  std::vector<Graph> cold = MakeQueries(data, 361, 1, 5);
  EngineOptions engine_options;
  engine_options.num_threads = 1;
  engine_options.order_cache_capacity = 0;  // only candidate sets charge
  auto engine = MakeEngineByName("RI", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();
  // An uncached query of the same size first grows the worker's
  // enumeration workspace, whose stamp table also charges the budget.
  BatchOptions skip;
  skip.skip_cache = true;
  ASSERT_TRUE(engine->MatchBatch(warmup, skip).ok());

  const size_t before = MemoryBudget::Global().used_bytes();
  ASSERT_TRUE(engine->MatchBatch(cold).ok());
  ASSERT_EQ(engine->counters().cache.entries, 1u);
  const size_t charged = MemoryBudget::Global().used_bytes() - before;

  const CandidateSet cached = LDFFilter().Filter(cold[0], data).ValueOrDie();
  size_t slack = 0;
  for (VertexId u = 0; u < cached.num_query_vertices(); ++u) {
    slack += cached.candidates(u).capacity() - cached.candidates(u).size();
  }
  ASSERT_GT(slack, 0u) << "no slack capacity to account for";
  EXPECT_EQ(charged, cached.AllocatedBytes());

  engine->ClearCache();
  EXPECT_EQ(MemoryBudget::Global().used_bytes(), before);
}

TEST(QueryEngineTest, ColdBatchOfDuplicateQueriesIsSingleFlighted) {
  Graph data = RandomData(55, 80, 4.0, 3);
  // 24 copies of one query, hitting a cold 4-worker engine at once.
  std::vector<Graph> queries(24, RandomQuery(data, 350, 5));
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();

  auto batch = engine->MatchBatch(queries).ValueOrDie();
  // Every copy sees the same candidates, so results are identical; each
  // query is one lookup (hit or miss depending on timing), never more —
  // single-flight reclassification keeps hits + misses == lookups, and
  // only lookups the filter actually ran for may count as misses.
  EXPECT_EQ(batch.cache_hits + batch.cache_misses, queries.size());
  EXPECT_GE(batch.cache_misses, 1u);
  EXPECT_EQ(engine->counters().cache.entries, 1u);
  const EngineCounters after = engine->counters();
  EXPECT_EQ(after.cache.hits + after.cache.misses, after.queries_served);
  for (const MatchRunStats& stats : batch.per_query) {
    EXPECT_EQ(stats.num_matches, batch.per_query[0].num_matches);
    EXPECT_EQ(stats.order, batch.per_query[0].order);
    EXPECT_EQ(stats.candidate_total, batch.per_query[0].candidate_total);
  }
}

TEST(QueryEngineTest, PerQueryDeadlinesAreHonoured) {
  Graph data = RandomData(61, 100, 5.0, 2);
  std::vector<Graph> queries = MakeQueries(data, 400, 4, 5);

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();

  BatchOptions options;
  options.per_query.resize(queries.size());
  // Query 0 gets an unmeetable deadline; the rest are unlimited.
  options.per_query[0].time_limit_seconds = 1e-9;
  auto batch = engine->MatchBatch(queries, options).ValueOrDie();
  EXPECT_FALSE(batch.per_query[0].solved);
  EXPECT_EQ(batch.unsolved, 1u);
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_TRUE(batch.per_query[i].solved) << "query " << i;
  }
}

TEST(QueryEngineTest, BatchWithInvalidQueryReturnsPartialResults) {
  Graph data = RandomData(45, 80, 4.0, 3);
  std::vector<Graph> queries = MakeQueries(data, 900, 4);
  queries.insert(queries.begin() + 2, Graph());  // empty query: rejected

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();

  // The batch call itself succeeds; the bad query fails per-query and every
  // other query still reports its results.
  auto batch = engine->MatchBatch(queries).ValueOrDie();
  ASSERT_EQ(batch.statuses.size(), queries.size());
  EXPECT_FALSE(batch.statuses[2].ok());
  EXPECT_EQ(batch.failed, 1u);

  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  uint64_t expected_total = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(batch.statuses[i].ok()) << "query " << i;
    const MatchRunStats sequential =
        matcher->Match(queries[i], data).ValueOrDie();
    EXPECT_EQ(batch.per_query[i].num_matches, sequential.num_matches)
        << "query " << i;
    expected_total += sequential.num_matches;
  }
  EXPECT_EQ(batch.totals.num_matches, expected_total);

  // The single-query wrapper surfaces the per-query failure as its status.
  EXPECT_FALSE(engine->Match(Graph()).ok());
}

TEST(QueryEngineTest, OversizedPerQueryFanOutFailsOnlyThatQuery) {
  Graph data = RandomData(61, 100, 5.0, 2);
  std::vector<Graph> queries = MakeQueries(data, 400, 4, 5);

  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data),
                                 engine_options)
                    .ValueOrDie();

  BatchOptions options;
  options.per_query.resize(queries.size());
  options.per_query[1].parallel_threads = 4294967295u;
  options.per_query[2].parallel_threads = 2;
  auto batch = engine->MatchBatch(queries, options).ValueOrDie();
  ASSERT_EQ(batch.statuses.size(), queries.size());
  EXPECT_TRUE(batch.statuses[1].IsInvalidArgument())
      << batch.statuses[1].ToString();
  EXPECT_EQ(batch.failed, 1u);
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == 1) continue;
    ASSERT_TRUE(batch.statuses[i].ok()) << "query " << i;
    EXPECT_EQ(batch.per_query[i].num_matches,
              matcher->Match(queries[i], data).ValueOrDie().num_matches)
        << "query " << i;
  }
}

TEST(QueryEngineTest, PerQueryOptionsSizeMismatchIsRejected) {
  Graph data = RandomData(71);
  auto engine =
      MakeEngineByName("RI", std::make_shared<const Graph>(data)).ValueOrDie();
  BatchOptions options;
  options.per_query.resize(2);
  auto result = engine->MatchBatch(MakeQueries(data, 500, 3), options);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(QueryEngineTest, EmptyBatchAndSingleQueryWrapper) {
  Graph data = RandomData(81);
  auto engine = MakeEngineByName("Hybrid", std::make_shared<const Graph>(data))
                    .ValueOrDie();
  auto empty = engine->MatchBatch({}).ValueOrDie();
  EXPECT_TRUE(empty.per_query.empty());
  EXPECT_EQ(empty.totals.num_matches, 0u);

  Graph q = RandomQuery(data, 600, 4);
  const MatchRunStats via_engine = engine->Match(q).ValueOrDie();
  auto matcher = MakeMatcherByName("Hybrid").ValueOrDie();
  const MatchRunStats sequential = matcher->Match(q, data).ValueOrDie();
  EXPECT_EQ(via_engine.num_matches, sequential.num_matches);
  EXPECT_EQ(via_engine.order, sequential.order);
}

TEST(QueryEngineTest, UnknownBaselineNameIsRejected) {
  Graph data = RandomData(91);
  auto result =
      MakeEngineByName("nonsense", std::make_shared<const Graph>(data));
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(MakeEngineByName("RI", nullptr).ok());
}

TEST(QueryEngineTest, OrderingFactoryFailurePoisonsEngineInsteadOfAborting) {
  Graph data = RandomData(111);
  EngineConfig config;
  config.data = std::make_shared<const Graph>(data);
  config.filter = MakeFilter("LDF").ValueOrDie();
  config.ordering_factory = []() -> Result<std::shared_ptr<Ordering>> {
    return Status::NotFound("no model checkpoint");
  };
  QueryEngine engine(std::move(config));
  auto result = engine.MatchBatch(MakeQueries(data, 800, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

// Intra-query parallelism through the engine: whole-query tasks and their
// enumeration chunk subtasks share one pool (nested submit-from-worker +
// help-while-waiting), and untruncated results stay bit-identical to a
// fully serial matcher.
TEST(QueryEngineTest, IntraQueryParallelBatchEqualsSerialMatcher) {
  Graph data = RandomData(61, 80, 4.0, 3);
  std::vector<Graph> queries = MakeQueries(data, 400, 10, 5);

  EnumerateOptions serial_options;
  serial_options.match_limit = 0;
  serial_options.store_embeddings = true;
  auto matcher = MakeMatcherByName("Hybrid", serial_options).ValueOrDie();

  for (uint32_t threads : {1u, 2u, 8u}) {
    EnumerateOptions enum_options = serial_options;
    enum_options.parallel_threads = threads;
    EngineOptions engine_options;
    engine_options.num_threads = 2;  // pool smaller than chunk fan-out
    auto engine = MakeEngineByName("Hybrid",
                                   std::make_shared<const Graph>(data),
                                   engine_options, enum_options)
                      .ValueOrDie();
    auto batch = engine->MatchBatch(queries).ValueOrDie();
    ASSERT_EQ(batch.per_query.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const MatchRunStats sequential =
          matcher->Match(queries[i], data).ValueOrDie();
      const MatchRunStats& parallel = batch.per_query[i];
      EXPECT_EQ(parallel.num_matches, sequential.num_matches)
          << "threads " << threads << " query " << i;
      EXPECT_EQ(parallel.num_enumerations, sequential.num_enumerations);
      EXPECT_EQ(parallel.num_intersections, sequential.num_intersections);
      EXPECT_EQ(parallel.order, sequential.order);
      EXPECT_EQ(parallel.embeddings, sequential.embeddings);
    }
  }
}

TEST(QueryEngineTest, RlqvoEngineMatchesRlqvoMatcher) {
  Graph data = RandomData(101, 50, 4.0, 3);
  std::vector<Graph> queries = MakeQueries(data, 700, 4);

  RLQVOModel model;  // untrained: inference is still deterministic
  EngineOptions engine_options;
  engine_options.num_threads = 4;
  auto engine =
      model.MakeEngine(std::make_shared<const Graph>(data), engine_options)
          .ValueOrDie();
  EXPECT_EQ(engine->name(), "RL-QVO");

  auto batch = engine->MatchBatch(queries).ValueOrDie();
  auto matcher = model.MakeMatcher().ValueOrDie();
  for (size_t i = 0; i < queries.size(); ++i) {
    const MatchRunStats sequential =
        matcher->Match(queries[i], data).ValueOrDie();
    EXPECT_EQ(batch.per_query[i].num_matches, sequential.num_matches);
    EXPECT_EQ(batch.per_query[i].order, sequential.order);
  }
}

}  // namespace
}  // namespace rlqvo
