// Parallel/serial equivalence for Enumerator::RunParallel, the scheduler
// that QueryEngine drives for parallel_threads > 0.
//
// The determinism contract under test (see enumerator.h): an untruncated
// parallel run is bit-identical to the serial path — same embeddings in the
// same order, same work counters — for any thread count; a truncated run
// (finite match_limit that fires) still emits *exactly* match_limit valid,
// distinct embeddings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::IsIsomorphism;
using testing_util::RandomQuery;

struct PreparedQuery {
  Graph query;
  CandidateSet candidates;
  std::vector<VertexId> order;
};

Graph MakeData(uint64_t seed, uint32_t n, double avg_degree,
               uint32_t num_labels, double zipf) {
  LabelConfig cfg;
  cfg.num_labels = num_labels;
  cfg.zipf_exponent = zipf;
  return GenerateErdosRenyi(n, avg_degree, cfg, seed).ValueOrDie();
}

PreparedQuery PrepareQuery(const Graph& data, uint64_t seed, uint32_t size) {
  PreparedQuery out{RandomQuery(data, seed, size), CandidateSet(), {}};
  out.candidates = LDFFilter().Filter(out.query, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &out.query;
  ctx.data = &data;
  ctx.candidates = &out.candidates;
  out.order = RIOrdering().MakeOrder(ctx).ValueOrDie();
  return out;
}

EnumerateResult RunSerial(const Graph& data, const PreparedQuery& pq,
                          EnumerateOptions opts) {
  opts.parallel_threads = 0;
  Enumerator enumerator;
  return enumerator.Run(pq.query, data, pq.candidates, pq.order, opts)
      .ValueOrDie();
}

EnumerateResult RunParallelWith(const Graph& data, const PreparedQuery& pq,
                                EnumerateOptions opts, uint32_t threads,
                                ThreadPool* pool,
                                std::vector<EnumeratorWorkspace>* workspaces,
                                EnumeratorWorkspace* caller_ws) {
  opts.parallel_threads = threads;
  ParallelEnumResources resources;
  resources.pool = pool;
  resources.worker_workspaces = workspaces;
  resources.caller_workspace = caller_ws;
  Enumerator enumerator;
  return enumerator
      .RunParallel(pq.query, data, pq.candidates, pq.order, opts, resources)
      .ValueOrDie();
}

void ExpectBitIdentical(const EnumerateResult& serial,
                        const EnumerateResult& parallel, uint32_t threads) {
  SCOPED_TRACE("threads=" + std::to_string(threads));
  EXPECT_EQ(parallel.num_matches, serial.num_matches);
  EXPECT_EQ(parallel.num_enumerations, serial.num_enumerations);
  EXPECT_EQ(parallel.num_intersections, serial.num_intersections);
  EXPECT_EQ(parallel.num_probe_comparisons, serial.num_probe_comparisons);
  EXPECT_EQ(parallel.local_candidates_total, serial.local_candidates_total);
  EXPECT_EQ(parallel.local_candidate_sets, serial.local_candidate_sets);
  EXPECT_EQ(parallel.num_simd_intersections, serial.num_simd_intersections);
  EXPECT_EQ(parallel.hit_match_limit, serial.hit_match_limit);
  EXPECT_FALSE(parallel.timed_out);
  // Same embeddings in the same (serial DFS) order — segment stitching.
  EXPECT_EQ(parallel.embeddings, serial.embeddings);
  // Deliberately NOT compared: num_steals / num_splits /
  // max_segment_depth / {min,max}_worker_work. Those are scheduler
  // diagnostics and legitimately vary run to run with the steal schedule;
  // the determinism contract covers results and work counters only.
}

// Untruncated runs are bit-identical to serial for every thread count, on
// uniform and skewed label regimes, across random graphs.
TEST(ParallelEnumTest, BitIdenticalToSerialAcrossThreadCounts) {
  struct Regime {
    uint32_t num_labels;
    double zipf;
  };
  const Regime regimes[] = {{4, 0.0}, {3, 1.2}};
  for (const Regime& regime : regimes) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      Graph data =
          MakeData(seed * 11, 90, 5.0, regime.num_labels, regime.zipf);
      PreparedQuery pq = PrepareQuery(data, seed * 13 + 1, 5);
      EnumerateOptions opts;
      opts.match_limit = 0;
      opts.store_embeddings = true;
      const EnumerateResult serial = RunSerial(data, pq, opts);
      for (uint32_t threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<EnumeratorWorkspace> workspaces(pool.size());
        EnumeratorWorkspace caller_ws;
        const EnumerateResult parallel = RunParallelWith(
            data, pq, opts, threads, &pool, &workspaces, &caller_ws);
        ExpectBitIdentical(serial, parallel, threads);
      }
    }
  }
}

// The serial ≡ parallel contract holds under every dispatch kernel this
// build/CPU supports, and — since all kernels compute the same
// intersections — embeddings and search-shape counters also agree *across*
// kernels (only num_probe_comparisons is kernel-specific).
TEST(ParallelEnumTest, BitIdenticalAcrossKernelsAndThreadCounts) {
  Graph data = MakeData(77, 90, 5.0, 3, 1.2);
  PreparedQuery pq = PrepareQuery(data, 78, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;

  const IntersectKernel saved = GetIntersectKernel();
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kScalar).ok());
  const EnumerateResult baseline = RunSerial(data, pq, opts);
  ASSERT_GT(baseline.num_intersections, 0u);  // the kernels actually ran

  for (IntersectKernel kernel : SupportedIntersectKernels()) {
    SCOPED_TRACE(IntersectKernelName(kernel));
    ASSERT_TRUE(SetIntersectKernel(kernel).ok());
    const EnumerateResult serial = RunSerial(data, pq, opts);
    // Cross-kernel: same search, same results, same shape.
    EXPECT_EQ(serial.embeddings, baseline.embeddings);
    EXPECT_EQ(serial.num_matches, baseline.num_matches);
    EXPECT_EQ(serial.num_enumerations, baseline.num_enumerations);
    EXPECT_EQ(serial.num_intersections, baseline.num_intersections);
    EXPECT_EQ(serial.local_candidates_total, baseline.local_candidates_total);
    EXPECT_EQ(serial.local_candidate_sets, baseline.local_candidate_sets);
    // Per-kernel: parallel runs reproduce that kernel's serial run bit for
    // bit, including the kernel-specific comparison charge.
    for (uint32_t threads : {1u, 2u, 3u, 8u}) {
      ThreadPool pool(threads);
      std::vector<EnumeratorWorkspace> workspaces(pool.size());
      EnumeratorWorkspace caller_ws;
      const EnumerateResult parallel = RunParallelWith(
          data, pq, opts, threads, &pool, &workspaces, &caller_ws);
      ExpectBitIdentical(serial, parallel, threads);
    }
  }
  ASSERT_TRUE(SetIntersectKernel(saved).ok());
}

// Serial runs never touch the scheduler: diagnostics report zero activity
// and a degenerate one-worker work spread. A 1-thread parallel run likewise
// never splits or steals (no hungry peers, no unclaimed slots).
TEST(ParallelEnumTest, SerialAndOneThreadRunsReportNoSchedulerActivity) {
  Graph data = MakeData(19, 80, 5.0, 3, 0.0);
  PreparedQuery pq = PrepareQuery(data, 23, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;

  const EnumerateResult serial = RunSerial(data, pq, opts);
  EXPECT_EQ(serial.num_steals, 0u);
  EXPECT_EQ(serial.num_splits, 0u);
  EXPECT_EQ(serial.max_segment_depth, 0u);
  EXPECT_EQ(serial.min_worker_work, serial.max_worker_work);
  EXPECT_GT(serial.max_worker_work, 0u);

  ThreadPool pool(1);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult one =
      RunParallelWith(data, pq, opts, 1, &pool, &workspaces, &caller_ws);
  EXPECT_EQ(one.num_steals, 0u);
  EXPECT_EQ(one.num_splits, 0u);
  EXPECT_EQ(one.min_worker_work, one.max_worker_work);
}

// The steals a run cannot avoid when its loop tasks oversubscribe the
// pool. RunParallel seeds min(|C(order[0])|, threads) root segments, one
// per slot, and fans out `threads` loop tasks; at most pool.size() + 1 of
// them run at once (the pool's workers plus the help-waiting coordinator),
// and a started loop exits only when the run drains. The seeds of the slots
// that no running loop claimed can therefore only leave their deques by
// being stolen. (Orphan adoption under an *error*-mode steal failpoint is
// not counted as a steal, so callers must not inject errors there.) Zero
// when the pool is as large as the fan-out.
uint64_t ForcedSteals(const PreparedQuery& pq, uint32_t threads,
                      const ThreadPool& pool) {
  const uint64_t seeds = std::min<uint64_t>(
      pq.candidates.candidates(pq.order[0]).size(), threads);
  const uint64_t loops = uint64_t{pool.size()} + 1;
  return seeds > loops ? seeds - loops : 0;
}

// The steal path actually runs — and changes nothing. Delay-injected
// steal/split sites (latency only, never an error) perturb the schedule
// differently every run, at 3 and 8 threads on pools as large as the
// fan-out; each run must still be bit-identical to serial. Those schedules
// may or may not steal (every loop can start on its own seed), so the
// steal assertion runs on oversubscribed schedules, where it is
// deterministic: 8 loop tasks on a 1- or 2-worker pool, with and without
// the delays, must steal at least ForcedSteals times on every run.
TEST(ParallelEnumTest, StealsFireAndStayBitIdenticalUnderSkewedSchedules) {
  Graph data = MakeData(31, 260, 10.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 32, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  const EnumerateResult serial = RunSerial(data, pq, opts);
  ASSERT_GT(serial.num_matches, 0u);
  constexpr uint32_t kFanOut = 8;
  ASSERT_GE(pq.candidates.candidates(pq.order[0]).size(), kFanOut)
      << "every root seed must exist for the forced-steal bound";

  ASSERT_TRUE(failpoint::Activate("enumerate.steal", "delay:1").ok());
  ASSERT_TRUE(failpoint::Activate("enumerate.split", "delay:1").ok());
  for (uint32_t threads : {3u, kFanOut}) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      ThreadPool pool(threads);
      std::vector<EnumeratorWorkspace> workspaces(pool.size());
      EnumeratorWorkspace caller_ws;
      ExpectBitIdentical(serial,
                         RunParallelWith(data, pq, opts, threads, &pool,
                                         &workspaces, &caller_ws),
                         threads);
    }
  }
  for (const bool delayed : {true, false}) {
    if (!delayed) failpoint::DeactivateAll();
    for (uint32_t pool_size : {1u, 2u}) {
      for (int attempt = 0; attempt < 5; ++attempt) {
        ThreadPool pool(pool_size);
        std::vector<EnumeratorWorkspace> workspaces(pool.size());
        EnumeratorWorkspace caller_ws;
        const EnumerateResult parallel = RunParallelWith(
            data, pq, opts, kFanOut, &pool, &workspaces, &caller_ws);
        ExpectBitIdentical(serial, parallel, kFanOut);
        const uint64_t forced = ForcedSteals(pq, kFanOut, pool);
        EXPECT_GT(forced, 0u);
        EXPECT_GE(parallel.num_steals, forced)
            << "pool " << pool_size << " delayed " << delayed << " attempt "
            << attempt;
      }
    }
  }
  failpoint::DeactivateAll();
}

// A hub instance. The data graph is a random graph on labels 0 and 1, plus
// one hub (label 2) and three anchors (label 3), each adjacent to every
// random vertex, with the hub also adjacent to the anchors. The query is a
// pattern sampled from the random part, plus a hub vertex 0 and an anchor
// vertex 1 adjacent to each other and to every pattern vertex. The order
// is 0, 1, 2, ..., so C(order[0]) holds the hub alone and order[1] walks
// the three anchors, each with the whole pattern count beneath it.
PreparedQuery PrepareHubQuery(Graph* data, uint64_t seed, uint32_t n,
                              double avg_degree, uint32_t pattern_size) {
  constexpr Label kHubLabel = 2;
  constexpr Label kAnchorLabel = 3;
  const Graph base =
      MakeData(seed, n, avg_degree, /*num_labels=*/kHubLabel, 0.0);
  GraphBuilder builder;
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    builder.AddVertex(base.label(v));
  }
  const VertexId hub = builder.AddVertex(kHubLabel);
  std::vector<VertexId> hub_and_anchors = {hub};
  for (int a = 0; a < 3; ++a) {
    hub_and_anchors.push_back(builder.AddVertex(kAnchorLabel));
    builder.AddEdge(hub, hub_and_anchors.back());
  }
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (VertexId h : hub_and_anchors) builder.AddEdge(h, v);
    for (VertexId w : base.neighbors(v)) {
      if (v < w) builder.AddEdge(v, w);
    }
  }
  *data = builder.Build();

  const Graph pattern = RandomQuery(base, seed + 1, pattern_size);
  GraphBuilder qb;
  qb.AddVertex(kHubLabel);
  qb.AddVertex(kAnchorLabel);
  qb.AddEdge(0, 1);
  for (VertexId u = 0; u < pattern.num_vertices(); ++u) {
    qb.AddVertex(pattern.label(u));
  }
  for (VertexId u = 0; u < pattern.num_vertices(); ++u) {
    qb.AddEdge(0, u + 2);
    qb.AddEdge(1, u + 2);
    for (VertexId w : pattern.neighbors(u)) {
      if (u < w) qb.AddEdge(u + 2, w + 2);
    }
  }
  PreparedQuery out{qb.Build(), CandidateSet(), {}};
  out.candidates = LDFFilter().Filter(out.query, *data).ValueOrDie();
  for (VertexId u = 0; u < out.query.num_vertices(); ++u) {
    out.order.push_back(u);
  }
  return out;
}

// The merge on splits carved below the root. C(order[0]) holds one vertex,
// so the one root seed is never split at depth 0, and every embedding
// shares its image at order[0]: only the deeper images order the
// segments' runs. order[1] has three candidates, too few to split, so
// every split is carved deeper, and the root segment, which keeps the
// anchors, goes on emitting after the intervals it carved off. Storing,
// untruncated runs on pools of 2 and 4, with and without delay-injected
// split and steal sites, must split, resume a segment below the root, and
// return the serial embeddings in the serial order.
TEST(ParallelEnumTest, SplitsBelowASingleRootCandidateMergeInSerialOrder) {
  Graph data;
  const PreparedQuery pq = PrepareHubQuery(&data, 61, 200, 10.0, 4);
  ASSERT_EQ(pq.candidates.candidates(pq.order[0]).size(), 1u);
  ASSERT_EQ(pq.candidates.candidates(pq.order[1]).size(), 3u);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  const EnumerateResult serial = RunSerial(data, pq, opts);
  ASSERT_GT(serial.num_matches, 1000u);

  for (const bool delayed : {false, true}) {
    if (delayed) {
      ASSERT_TRUE(failpoint::Activate("enumerate.steal", "delay:1").ok());
      ASSERT_TRUE(failpoint::Activate("enumerate.split", "delay:1").ok());
    }
    for (uint32_t threads : {2u, 4u}) {
      for (int attempt = 0; attempt < 3; ++attempt) {
        SCOPED_TRACE("delayed " + std::to_string(delayed) + " attempt " +
                     std::to_string(attempt));
        ThreadPool pool(threads);
        std::vector<EnumeratorWorkspace> workspaces(pool.size());
        EnumeratorWorkspace caller_ws;
        const EnumerateResult parallel = RunParallelWith(
            data, pq, opts, threads, &pool, &workspaces, &caller_ws);
        EXPECT_GT(parallel.num_splits, 0u);
        EXPECT_GE(parallel.max_segment_depth, 1u);
        ExpectBitIdentical(serial, parallel, threads);
      }
    }
  }
  failpoint::DeactivateAll();
}

// A finite match_limit stays exact while stealing is active: the shared
// budget hands out claims, so concurrent segments can never over- or
// under-emit no matter how work migrated between workers. On the
// oversubscribed pools every run is forced to steal (see ForcedSteals); the
// 8-worker pool runs all 8 loops concurrently.
TEST(ParallelEnumTest, ExactLimitWithActiveStealing) {
  Graph data = MakeData(43, 260, 10.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 44, 5);
  EnumerateOptions unlimited;
  unlimited.match_limit = 0;
  const uint64_t total = RunSerial(data, pq, unlimited).num_matches;
  ASSERT_GT(total, 100u) << "workload too small to exercise limits";
  constexpr uint32_t kFanOut = 8;
  ASSERT_GE(pq.candidates.candidates(pq.order[0]).size(), kFanOut)
      << "every root seed must exist for the forced-steal bound";

  EnumerateOptions opts;
  opts.match_limit = total - 1;  // nearly all the work, then exact cutoff
  opts.store_embeddings = true;
  for (uint32_t pool_size : {1u, 2u, kFanOut}) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      SCOPED_TRACE("pool " + std::to_string(pool_size) + " attempt " +
                   std::to_string(attempt));
      ThreadPool pool(pool_size);
      std::vector<EnumeratorWorkspace> workspaces(pool.size());
      EnumeratorWorkspace caller_ws;
      const EnumerateResult parallel = RunParallelWith(
          data, pq, opts, kFanOut, &pool, &workspaces, &caller_ws);
      EXPECT_EQ(parallel.num_matches, total - 1);
      EXPECT_TRUE(parallel.hit_match_limit);
      EXPECT_EQ(parallel.embeddings.size(), total - 1);
      std::set<std::vector<VertexId>> distinct(parallel.embeddings.begin(),
                                               parallel.embeddings.end());
      EXPECT_EQ(distinct.size(), total - 1);  // no duplicate emissions
      for (const auto& embedding : parallel.embeddings) {
        ASSERT_TRUE(IsIsomorphism(pq.query, data, embedding));
      }
      EXPECT_GE(parallel.num_steals, ForcedSteals(pq, kFanOut, pool));
    }
  }
}

TEST(ParallelEnumTest, MatchesBruteForceGroundTruth) {
  Graph data = MakeData(7, 60, 4.5, 3, 0.8);
  PreparedQuery pq = PrepareQuery(data, 21, 4);
  const auto brute = BruteForceMatch(pq.query, data);
  std::set<std::vector<VertexId>> expected(brute.begin(), brute.end());

  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult parallel =
      RunParallelWith(data, pq, opts, 4, &pool, &workspaces, &caller_ws);
  std::set<std::vector<VertexId>> got(parallel.embeddings.begin(),
                                      parallel.embeddings.end());
  EXPECT_EQ(got, expected);
  EXPECT_EQ(parallel.num_matches, expected.size());
}

// A finite match_limit is exact in both paths: min(available, limit)
// matches, never limit+1, never limit-per-chunk. Parallel truncation may
// pick different members than serial, but every emission must be a valid,
// distinct embedding.
TEST(ParallelEnumTest, ExactLimitCountsSerialAndParallel) {
  Graph data = MakeData(3, 80, 6.0, 2, 0.0);  // few labels: many matches
  PreparedQuery pq = PrepareQuery(data, 9, 4);
  EnumerateOptions unlimited;
  unlimited.match_limit = 0;
  const uint64_t total = RunSerial(data, pq, unlimited).num_matches;
  ASSERT_GT(total, 8u) << "workload too small to exercise limits";

  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const uint64_t limits[] = {1, 3, 7, total - 1, total, total + 5};
  for (uint64_t limit : limits) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    const uint64_t expected = std::min(total, limit);
    EnumerateOptions opts;
    opts.match_limit = limit;
    opts.store_embeddings = true;

    const EnumerateResult serial = RunSerial(data, pq, opts);
    EXPECT_EQ(serial.num_matches, expected);
    EXPECT_EQ(serial.hit_match_limit, limit <= total);

    const EnumerateResult parallel =
        RunParallelWith(data, pq, opts, 4, &pool, &workspaces, &caller_ws);
    EXPECT_EQ(parallel.num_matches, expected);
    EXPECT_EQ(parallel.hit_match_limit, limit <= total);
    EXPECT_EQ(parallel.embeddings.size(), expected);
    std::set<std::vector<VertexId>> distinct(parallel.embeddings.begin(),
                                             parallel.embeddings.end());
    EXPECT_EQ(distinct.size(), expected);  // no duplicate emissions
    for (const auto& embedding : parallel.embeddings) {
      EXPECT_TRUE(IsIsomorphism(pq.query, data, embedding));
    }
    if (limit > total) {
      // Limit never fired: full determinism contract applies.
      ExpectBitIdentical(serial, parallel, 4);
    }
  }
}

TEST(ParallelEnumTest, UnlimitedMeansZeroAndNeverReportsLimit) {
  Graph data = MakeData(5, 70, 5.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 15, 4);
  EnumerateOptions opts;
  opts.match_limit = 0;  // documented "unlimited" semantics
  const EnumerateResult serial = RunSerial(data, pq, opts);
  EXPECT_FALSE(serial.hit_match_limit);
  EXPECT_GT(serial.num_matches, 0u);

  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult parallel =
      RunParallelWith(data, pq, opts, 2, &pool, &workspaces, &caller_ws);
  EXPECT_FALSE(parallel.hit_match_limit);
  EXPECT_EQ(parallel.num_matches, serial.num_matches);
}

TEST(ParallelEnumTest, ExpiredDeadlineTimesOutBeforeAnyWork) {
  Graph data = MakeData(2, 80, 6.0, 1, 0.0);
  PreparedQuery pq = PrepareQuery(data, 4, 6);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.parallel_threads = 2;
  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  ParallelEnumResources resources;
  resources.pool = &pool;
  resources.worker_workspaces = &workspaces;

  const Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  Enumerator enumerator;
  const EnumerateResult result =
      enumerator
          .RunParallel(pq.query, data, pq.candidates, pq.order, opts,
                       resources, &expired)
          .ValueOrDie();
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.num_matches, 0u);
  EXPECT_EQ(result.num_enumerations, 0u);  // cut before the root call
}

TEST(ParallelEnumTest, MidRunDeadlineStopsAllChunks) {
  // Dense single-label graph: far too many matches to finish in 2 ms, so
  // the deadline must fire and every chunk must unwind.
  Graph data = MakeData(6, 400, 12.0, 1, 0.0);
  PreparedQuery pq = PrepareQuery(data, 8, 10);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 2e-3;
  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  const EnumerateResult result =
      RunParallelWith(data, pq, opts, 4, &pool, &workspaces, &caller_ws);
  EXPECT_TRUE(result.timed_out);
  EXPECT_FALSE(result.hit_match_limit);
}

// Regression for the steal-handoff polling bug: a stolen segment must
// re-arm the deadline quantum (and check expiry immediately) when it
// starts on its new worker — inheriting the previous segment's poll
// position could let a thief run a whole extra quantum past the deadline.
// Steal/split delay injection churns handoffs while a mid-run deadline
// fires; every schedule must still report the timeout promptly.
TEST(ParallelEnumTest, MidRunDeadlineExpiresPromptlyUnderForcedSteals) {
  Graph data = MakeData(6, 400, 12.0, 1, 0.0);
  PreparedQuery pq = PrepareQuery(data, 8, 10);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 2e-3;
  ASSERT_TRUE(failpoint::Activate("enumerate.steal", "delay:1").ok());
  ASSERT_TRUE(failpoint::Activate("enumerate.split", "delay:1").ok());
  for (int attempt = 0; attempt < 3; ++attempt) {
    ThreadPool pool(3);
    std::vector<EnumeratorWorkspace> workspaces(pool.size());
    EnumeratorWorkspace caller_ws;
    const EnumerateResult result =
        RunParallelWith(data, pq, opts, 3, &pool, &workspaces, &caller_ws);
    EXPECT_TRUE(result.timed_out) << "attempt " << attempt;
    EXPECT_FALSE(result.hit_match_limit);
  }
  failpoint::DeactivateAll();
}

// >255 runs through the same per-worker workspaces: the uint8 epoch wraps
// and the wrap-clear must keep parallel results identical run after run.
TEST(ParallelEnumTest, EpochWrapReusesPerWorkerWorkspaces) {
  Graph data = MakeData(12, 60, 4.0, 3, 0.5);
  std::vector<PreparedQuery> queries;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    queries.push_back(PrepareQuery(data, 40 + seed, 4));
  }
  EnumerateOptions opts;
  opts.match_limit = 0;

  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  std::vector<uint64_t> first_counts;
  for (const PreparedQuery& pq : queries) {
    first_counts.push_back(
        RunParallelWith(data, pq, opts, 2, &pool, &workspaces, &caller_ws)
            .num_matches);
  }
  for (int run = 0; run < 300; ++run) {
    const PreparedQuery& pq = queries[run % queries.size()];
    const EnumerateResult result =
        RunParallelWith(data, pq, opts, 2, &pool, &workspaces, &caller_ws);
    ASSERT_EQ(result.num_matches, first_counts[run % queries.size()])
        << "run " << run;
  }
}

TEST(ParallelEnumTest, FallsBackToSerialWithoutPool) {
  Graph data = MakeData(9, 60, 4.0, 3, 0.0);
  PreparedQuery pq = PrepareQuery(data, 10, 4);
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  opts.parallel_threads = 4;
  ParallelEnumResources no_pool;  // pool == nullptr → serial path
  Enumerator enumerator;
  const EnumerateResult fallback =
      enumerator
          .RunParallel(pq.query, data, pq.candidates, pq.order, opts, no_pool)
          .ValueOrDie();
  const EnumerateResult serial = RunSerial(data, pq, opts);
  EXPECT_EQ(fallback.embeddings, serial.embeddings);
  EXPECT_EQ(fallback.num_enumerations, serial.num_enumerations);
}

TEST(ParallelEnumTest, RejectsInvalidInputsLikeSerial) {
  Graph data = MakeData(14, 40, 4.0, 2, 0.0);
  PreparedQuery pq = PrepareQuery(data, 17, 4);
  EnumerateOptions opts;
  opts.parallel_threads = 2;
  ThreadPool pool(2);
  ParallelEnumResources resources;
  resources.pool = &pool;
  Enumerator enumerator;
  std::vector<VertexId> bad_order(pq.order);
  bad_order[0] = bad_order[1];  // not a permutation
  EXPECT_FALSE(enumerator
                   .RunParallel(pq.query, data, pq.candidates, bad_order,
                                opts, resources)
                   .ok());
  // A fan-out above the bound is rejected before any per-worker state is
  // allocated (2^32-1 deques would throw std::bad_alloc on a pool worker).
  for (uint32_t threads : {257u, 4294967295u}) {
    opts.parallel_threads = threads;
    auto run = enumerator.RunParallel(pq.query, data, pq.candidates,
                                      pq.order, opts, resources);
    ASSERT_FALSE(run.ok()) << threads;
    EXPECT_TRUE(run.status().IsInvalidArgument()) << threads;
  }
  opts.parallel_threads = EnumerateOptions::kMaxParallelThreads;
  EXPECT_TRUE(enumerator
                  .RunParallel(pq.query, data, pq.candidates, pq.order, opts,
                               resources)
                  .ok());

  // Inputs that only reach the enumerator directly (the filters reject a
  // directedness mismatch first and emit no out-of-range candidate), where
  // an empty candidate list or an expired deadline would return before a
  // late check. Run and a 2-thread RunParallel must fail them alike.
  opts.parallel_threads = 2;
  auto expect_same_rejection = [&](const char* what, const Graph& query,
                                   const CandidateSet& candidates,
                                   const Deadline* deadline) {
    SCOPED_TRACE(what);
    EnumeratorWorkspace ws;
    const auto serial = enumerator.Run(query, data, candidates, pq.order,
                                       opts, &ws, deadline);
    const auto parallel = enumerator.RunParallel(
        query, data, candidates, pq.order, opts, resources, deadline);
    ASSERT_FALSE(serial.ok());
    ASSERT_FALSE(parallel.ok());
    EXPECT_TRUE(serial.status().IsInvalidArgument());
    EXPECT_EQ(parallel.status().code(), serial.status().code());
  };
  const VertexId n = pq.query.num_vertices();
  GraphBuilder directed;
  directed.set_directed(true);
  for (VertexId u = 0; u < n; ++u) directed.AddVertex(pq.query.label(u));
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId w : pq.query.neighbors(u)) {
      if (u < w) directed.AddEdge(u, w);
    }
  }
  const Graph directed_query = directed.Build();
  CandidateSet one_empty(n);
  CandidateSet out_of_range(n);
  CandidateSet out_of_range_one_empty(n);
  for (VertexId u = 0; u < n; ++u) {
    one_empty.Set(u, pq.candidates.candidates(u));
    std::vector<VertexId> with_bad = pq.candidates.candidates(u);
    if (u == pq.order[0]) with_bad.push_back(data.num_vertices());
    out_of_range.Set(u, with_bad);
    out_of_range_one_empty.Set(u, with_bad);
  }
  one_empty.Set(pq.order.back(), {});
  out_of_range_one_empty.Set(pq.order.back(), {});
  const Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  expect_same_rejection("directed query, undirected data, one empty list",
                        directed_query, one_empty, nullptr);
  expect_same_rejection("candidate out of range, one empty list", pq.query,
                        out_of_range_one_empty, nullptr);
  expect_same_rejection("candidate out of range, expired deadline", pq.query,
                        out_of_range, &expired);
}

// A worker loop prepares its workspace when it acquires its first segment,
// and a thread's later loops of the same run acquire nothing (a loop exits
// only once the run has drained). So however many segments a run splits
// into, it prepares each workspace at most once: with 8 loop tasks on a
// 2-worker pool, the pool's workers and the help-waiting caller prepare at
// most pool.size() + 1 times per run. A per-segment prepare would add about
// as many as the run has segments (about 25 splits per run on this query).
TEST(ParallelEnumTest, EachThreadPreparesAtMostOncePerRun) {
  Graph data;
  const PreparedQuery pq = PrepareHubQuery(&data, 63, 200, 10.0, 5);
  EnumerateOptions opts;
  opts.match_limit = 0;
  const EnumerateResult serial = RunSerial(data, pq, opts);
  ThreadPool pool(2);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  EnumeratorWorkspace caller_ws;
  auto prepares = [&] {
    uint64_t sum = caller_ws.stats().prepares;
    for (const EnumeratorWorkspace& ws : workspaces) {
      sum += ws.stats().prepares;
    }
    return sum;
  };
  uint64_t splits = 0;
  for (int run = 0; run < 50; ++run) {
    SCOPED_TRACE("run " + std::to_string(run));
    const uint64_t before = prepares();
    const EnumerateResult parallel =
        RunParallelWith(data, pq, opts, 8, &pool, &workspaces, &caller_ws);
    EXPECT_LE(prepares() - before, uint64_t{pool.size()} + 1);
    ExpectBitIdentical(serial, parallel, 8);
    splits += parallel.num_splits;
  }
  EXPECT_GT(splits, 0u);
}

}  // namespace
}  // namespace rlqvo
