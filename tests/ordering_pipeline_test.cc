// The serving-side ordering pipeline: the generic LRU + single-flight cache
// (engine/lru_cache.h), the engine's fingerprint-keyed order cache
// (hit/miss accounting, stochastic bypass, on-vs-off result equivalence),
// and RLQVOOrdering's RI fallback on an invalid policy order.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/memory_budget.h"
#include "core/rlqvo.h"
#include "engine/lru_cache.h"
#include "engine/query_engine.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

using StringCache = SingleFlightCache<int, std::shared_ptr<const std::string>>;

std::shared_ptr<const std::string> Str(const char* s) {
  return std::make_shared<const std::string>(s);
}

PolicyConfig TinyPolicy() {
  PolicyConfig config;
  config.hidden_dim = 8;
  config.num_gnn_layers = 2;
  return config;
}

// --- Generic SingleFlightCache (the machinery both engine caches share) ---

/// Looks `key` up in `cache`, computing `value` on a miss; returns whether
/// the value was served without computing.
bool ServedFromCache(StringCache* cache, int key, const char* value) {
  bool computed = false;
  auto result = cache->GetOrCompute(
      key, /*bypass=*/false,
      [value]() -> Result<std::shared_ptr<const std::string>> {
        return Str(value);
      },
      &computed);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(*result.ValueOrDie(), value);
  return !computed;
}

TEST(LruCacheTest, GenericValueLruEvictionAndCounters) {
  StringCache cache(2);
  EXPECT_FALSE(ServedFromCache(&cache, 1, "one"));    // miss
  EXPECT_FALSE(ServedFromCache(&cache, 2, "two"));    // miss
  EXPECT_TRUE(ServedFromCache(&cache, 1, "one"));     // hit; 1 becomes MRU
  EXPECT_FALSE(ServedFromCache(&cache, 3, "three"));  // evicts 2 (LRU)
  EXPECT_TRUE(ServedFromCache(&cache, 1, "one"));
  EXPECT_TRUE(ServedFromCache(&cache, 3, "three"));
  EXPECT_FALSE(ServedFromCache(&cache, 2, "two"));    // evicted; evicts 1
  const auto c = cache.counters();
  EXPECT_EQ(c.hits, 3u);
  EXPECT_EQ(c.misses, 4u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.hits + c.misses, c.lookups);  // == logical lookups
  EXPECT_EQ(c.lookups, 7u);
}

TEST(SingleFlightCacheTest, ComputesOncePerKeyAndCountsOneLookupEach) {
  StringCache cache(8);
  std::atomic<int> computes{0};
  auto compute = [&]() -> Result<std::shared_ptr<const std::string>> {
    computes.fetch_add(1);
    return Str("value");
  };
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto result = cache.GetOrCompute(7, /*bypass=*/false, compute);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(*result.ValueOrDie(), "value");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);  // single flight
  const auto c = cache.counters();
  // Every caller counted exactly one lookup: the leader and each follower
  // that joined its flight a miss (the value was not in the cache when they
  // looked), any caller arriving after the insert a hit.
  EXPECT_EQ(c.hits + c.misses, static_cast<uint64_t>(kThreads));
  EXPECT_GE(c.misses, 1u);
  // A later lookup is a plain hit.
  bool computed = true;
  auto again = cache.GetOrCompute(7, false, compute, &computed);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(computed);
  EXPECT_EQ(computes.load(), 1);
}

// An insert is admitted only when the `cache.put` failpoint stays quiet and
// the memory budget grants the entry's cost. A rejected insert still serves
// the computed value; an entry's charge is released when it is evicted or
// cleared.
TEST(SingleFlightCacheTest, BudgetAndPutFailpointGateInserts) {
  MemoryBudget budget;
  budget.set_limit_bytes(10);
  StringCache cache(1, &budget,
                    [](const std::shared_ptr<const std::string>& v) {
                      return v->size();
                    });
  EXPECT_FALSE(ServedFromCache(&cache, 1, "eleven-byte"));  // over budget
  EXPECT_FALSE(ServedFromCache(&cache, 1, "eleven-byte"));
  EXPECT_EQ(budget.denials(), 2u);
  EXPECT_EQ(cache.counters().put_rejects, 2u);
  EXPECT_EQ(cache.counters().entries, 0u);

  EXPECT_FALSE(ServedFromCache(&cache, 2, "four"));
  EXPECT_TRUE(ServedFromCache(&cache, 2, "four"));
  EXPECT_EQ(budget.used_bytes(), 4u);
  EXPECT_FALSE(ServedFromCache(&cache, 3, "six---"));  // evicts 2
  EXPECT_EQ(budget.used_bytes(), 6u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  cache.Clear();
  EXPECT_EQ(budget.used_bytes(), 0u);

  ASSERT_TRUE(failpoint::Activate("cache.put", "error").ok());
  EXPECT_FALSE(ServedFromCache(&cache, 4, "four"));
  failpoint::Deactivate("cache.put");
  EXPECT_FALSE(ServedFromCache(&cache, 4, "four"));  // was not cached
  EXPECT_TRUE(ServedFromCache(&cache, 4, "four"));
  EXPECT_EQ(cache.counters().put_rejects, 3u);
  EXPECT_EQ(budget.used_bytes(), 4u);
}

TEST(SingleFlightCacheTest, BypassSkipsCacheAndCounters) {
  StringCache cache(8);
  int computes = 0;
  auto compute = [&]() -> Result<std::shared_ptr<const std::string>> {
    ++computes;
    return Str("fresh");
  };
  for (int i = 0; i < 3; ++i) {
    bool computed = false;
    auto result = cache.GetOrCompute(1, /*bypass=*/true, compute, &computed);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(computed);
  }
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.counters().hits + cache.counters().misses, 0u);
  EXPECT_EQ(cache.counters().entries, 0u);
}

TEST(SingleFlightCacheTest, ErrorsAreNotCached) {
  StringCache cache(8);
  int computes = 0;
  auto failing = [&]() -> Result<std::shared_ptr<const std::string>> {
    ++computes;
    return Status::InvalidArgument("boom");
  };
  EXPECT_FALSE(cache.GetOrCompute(1, false, failing).ok());
  EXPECT_FALSE(cache.GetOrCompute(1, false, failing).ok());
  EXPECT_EQ(computes, 2);  // an error never poisons the cache
  auto ok = cache.GetOrCompute(
      1, false, [&]() -> Result<std::shared_ptr<const std::string>> {
        return Str("recovered");
      });
  ASSERT_TRUE(ok.ok());
}

// Leader-failure contract: the leader returns its own error immediately
// (never cached); followers that inherited the error *retry* — re-consult
// the cache, compete to lead a fresh flight — instead of failing or
// re-stampeding. A transient fault (fails once, then recovers) is
// therefore absorbed: only the original leader surfaces the error.
TEST(SingleFlightCacheTest, FollowersRetryAfterLeaderFailure) {
  StringCache cache(8);
  constexpr int kThreads = 4;
  std::atomic<int> computes{0};
  std::atomic<int> arrived{0};
  auto compute = [&]() -> Result<std::shared_ptr<const std::string>> {
    if (computes.fetch_add(1) == 0) {
      // Leader: hold the flight open until every thread has arrived (so
      // the others join as followers), then fail.
      while (arrived.load() < kThreads) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return Status::Internal("leader died");
    }
    return Str("recovered");
  };
  std::vector<Status> statuses(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      auto result = cache.GetOrCompute(1, /*bypass=*/false, compute);
      statuses[i] = result.ok() ? Status::OK() : result.status();
      if (result.ok()) {
        EXPECT_EQ(*result.ValueOrDie(), "recovered");
      }
    });
  }
  for (auto& t : threads) t.join();
  int failed = 0;
  for (const Status& s : statuses) {
    if (!s.ok()) {
      ++failed;
      EXPECT_NE(s.message().find("leader died"), std::string::npos);
    }
  }
  // Exactly the original leader fails; every follower retried to success.
  EXPECT_EQ(failed, 1);
  // The error was never cached: the recovered value is what lives there.
  auto cached = cache.GetOrCompute(
      1, false, [&]() -> Result<std::shared_ptr<const std::string>> {
        ADD_FAILURE() << "value should have been cached";
        return Status::Internal("unreachable");
      });
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached.ValueOrDie(), "recovered");
  // Accounting stays balanced across the retries (each retry is its own
  // counted lookup).
  const auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, c.lookups);
}

// A *deterministic* failure must still surface: follower retries are
// bounded, so concurrent callers of a compute that always fails all
// return the error instead of hanging or looping forever.
TEST(SingleFlightCacheTest, BoundedRetriesSurfaceDeterministicFailure) {
  StringCache cache(8);
  std::atomic<int> computes{0};
  auto compute = [&]() -> Result<std::shared_ptr<const std::string>> {
    computes.fetch_add(1);
    return Status::InvalidArgument("always fails");
  };
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      auto result = cache.GetOrCompute(2, /*bypass=*/false, compute);
      EXPECT_FALSE(result.ok());
      EXPECT_TRUE(result.status().IsInvalidArgument());
    });
  }
  for (auto& t : threads) t.join();
  // Bounded work: at most one compute per caller per attempt round.
  EXPECT_LE(computes.load(), kThreads * 3);
  const auto c = cache.counters();
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.entries, 0u);  // errors never cached
}

// --- Engine order cache ---

TEST(OrderCacheTest, RepeatedFingerprintsHitAndAccountingBalances) {
  auto data = std::make_shared<Graph>(RandomData(31));
  EngineOptions options;
  options.num_threads = 4;
  auto engine = MakeEngineByName("GQL", data, options).ValueOrDie();

  // 3 distinct shapes, each repeated 4 times.
  std::vector<Graph> queries;
  for (uint64_t s = 0; s < 3; ++s) {
    const Graph q = RandomQuery(*data, 50 + s, 5);
    for (int r = 0; r < 4; ++r) queries.push_back(q);
  }
  const BatchResult batch = engine->MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(batch.failed, 0u);
  // Accounting invariant: every query consulted the order cache exactly
  // once. Exact hit/miss splits are timing-dependent in a cold concurrent
  // batch — a follower waiting on a computing single-flight leader keeps
  // its counted miss (the value was not cached when it looked) yet did not
  // compute, so only invariants are asserted here.
  EXPECT_EQ(batch.order_cache_hits + batch.order_cache_misses,
            queries.size());
  EXPECT_GE(batch.order_cache_misses, 3u);   // >= one cold miss per shape
  EXPECT_LE(batch.order_cache_misses, queries.size());
  const EngineCounters counters = engine->counters();
  EXPECT_EQ(counters.order_cache.hits + counters.order_cache.misses,
            queries.size());
  // Per-query flags mark queries served without computing; that includes
  // followers whose counted miss stands, so flagged >= counter hits.
  uint64_t flagged = 0;
  for (const MatchRunStats& stats : batch.per_query) {
    if (stats.order_cache_hit) ++flagged;
  }
  EXPECT_GE(flagged, batch.order_cache_hits);
  EXPECT_GE(flagged, queries.size() - 3u);  // each shape computes once

  // A warm second batch is deterministic: every lookup is a plain hit.
  const BatchResult warm = engine->MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(warm.order_cache_hits, queries.size());
  EXPECT_EQ(warm.order_cache_misses, 0u);
  for (const MatchRunStats& stats : warm.per_query) {
    EXPECT_TRUE(stats.order_cache_hit);
  }
}

TEST(OrderCacheTest, BatchResultsBitIdenticalWithCacheOnAndOff) {
  auto data = std::make_shared<Graph>(RandomData(37));
  std::vector<Graph> queries;
  for (uint64_t s = 0; s < 4; ++s) {
    const Graph q = RandomQuery(*data, 70 + s, 5);
    queries.push_back(q);
    queries.push_back(q);  // repeat every shape
  }
  EnumerateOptions enum_options;
  enum_options.store_embeddings = true;

  EngineOptions with_cache;
  with_cache.num_threads = 3;
  EngineOptions no_cache = with_cache;
  no_cache.order_cache_capacity = 0;

  auto cached =
      MakeEngineByName("GQL", data, with_cache, enum_options).ValueOrDie();
  auto uncached =
      MakeEngineByName("GQL", data, no_cache, enum_options).ValueOrDie();
  const BatchResult a = cached->MatchBatch(queries).ValueOrDie();
  const BatchResult b = uncached->MatchBatch(queries).ValueOrDie();
  ASSERT_EQ(a.per_query.size(), b.per_query.size());
  EXPECT_EQ(a.totals.num_matches, b.totals.num_matches);
  EXPECT_EQ(a.totals.num_enumerations, b.totals.num_enumerations);
  EXPECT_EQ(b.order_cache_hits, 0u);
  EXPECT_EQ(b.order_cache_misses, 0u);
  for (size_t i = 0; i < a.per_query.size(); ++i) {
    EXPECT_EQ(a.per_query[i].order, b.per_query[i].order) << "query " << i;
    EXPECT_EQ(a.per_query[i].num_matches, b.per_query[i].num_matches);
    EXPECT_EQ(a.per_query[i].embeddings, b.per_query[i].embeddings);
  }
}

TEST(OrderCacheTest, StochasticOrderingBypassesOrderCache) {
  Graph data_graph = RandomData(41);
  auto data = std::make_shared<Graph>(data_graph);
  RLQVOModel model(TinyPolicy());
  EngineConfig config;
  config.data = data;
  config.filter = MakeFilter("GQL").ValueOrDie();
  auto policy = std::shared_ptr<const PolicyNetwork>(
      std::make_shared<PolicyNetwork>(model.policy().config()));
  config.ordering_factory =
      [policy, features = model.feature_config()]()
      -> Result<std::shared_ptr<Ordering>> {
    return std::shared_ptr<Ordering>(std::make_shared<RLQVOOrdering>(
        policy, features, /*stochastic=*/true, /*seed=*/7));
  };
  QueryEngine engine(std::move(config), EngineOptions{});

  std::vector<Graph> queries;
  const Graph q = RandomQuery(*data, 90, 5);
  for (int r = 0; r < 6; ++r) queries.push_back(q);
  const BatchResult batch = engine.MatchBatch(queries).ValueOrDie();
  EXPECT_EQ(batch.failed, 0u);
  // A stochastic ordering never consults the order cache.
  EXPECT_EQ(batch.order_cache_hits, 0u);
  EXPECT_EQ(batch.order_cache_misses, 0u);
  // The candidate cache still works as usual.
  EXPECT_EQ(batch.cache_hits + batch.cache_misses, queries.size());
}

// --- RI fallback on an invalid policy order ---

TEST(RLQVOFallbackTest, NonFinitePolicyScoresFallBackToRiOrder) {
  Graph data = RandomData(43);
  RLQVOModel model(TinyPolicy());
  // Poison the first GNN weight with NaN: every masked score becomes NaN,
  // the argmax never selects, and the ordering must fall back to RI
  // instead of crashing or failing the query.
  std::vector<nn::Var> params = model.mutable_policy()->Parameters();
  nn::Matrix poisoned(params[0].rows(), params[0].cols());
  poisoned.Fill(std::nan(""));
  params[0].SetValue(poisoned);

  RIOrdering ri;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph q = RandomQuery(data, 200 + seed, 6);
    OrderingContext ctx;
    ctx.query = &q;
    ctx.data = &data;
    // MakeOrdering shares the (poisoned) policy.
    auto ordering = std::static_pointer_cast<RLQVOOrdering>(
        std::static_pointer_cast<Ordering>(model.MakeOrdering()));
    auto order = ordering->MakeOrder(ctx);
    ASSERT_TRUE(order.ok()) << order.status().ToString();
    EXPECT_EQ(ordering->fallback_count(), 1u);
    const auto expected = ri.MakeOrder(ctx);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(order.ValueOrDie(), expected.ValueOrDie());
  }
}

TEST(RLQVOFallbackTest, DisconnectedQueryStillGetsAValidPermutation) {
  Graph data = RandomData(47, /*n=*/60, /*avg_degree=*/4.0, /*labels=*/2);
  // Two disjoint edges: the MDP's action space empties after the first
  // component, RI refuses (disconnected), and the greedy completion must
  // still deliver a full permutation.
  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(2, 3);
  const Graph q = qb.Build();

  RLQVOModel model(TinyPolicy());
  auto ordering = model.MakeOrdering();
  OrderingContext ctx;
  ctx.query = &q;
  ctx.data = &data;
  auto order = ordering->MakeOrder(ctx);
  ASSERT_TRUE(order.ok()) << order.status().ToString();
  std::vector<VertexId> sorted = order.ValueOrDie();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(RLQVOFallbackTest, HealthyPolicyNeverFallsBack) {
  Graph data = RandomData(53);
  RLQVOModel model(TinyPolicy());
  auto shared_policy = std::shared_ptr<const PolicyNetwork>(
      std::make_shared<PolicyNetwork>(model.policy().Clone()));
  RLQVOOrdering ordering(shared_policy, model.feature_config());
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Graph q = RandomQuery(data, 300 + seed, 4 + seed % 4);
    OrderingContext ctx;
    ctx.query = &q;
    ctx.data = &data;
    ASSERT_TRUE(ordering.MakeOrder(ctx).ok());
  }
  EXPECT_EQ(ordering.fallback_count(), 0u);
}

}  // namespace
}  // namespace rlqvo
