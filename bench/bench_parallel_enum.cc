// Intra-query parallel enumeration (Enumerator::RunParallel) vs the serial
// path, on heavy single queries — the workload ISSUE 4 targeted (one big
// query that used to pin a single core while the pool idled) now served by
// the work-stealing segment scheduler instead of static root chunks.
//
// Two heavy-query configurations:
//   dense:    Erdos-Renyi, few labels, d=16 — bushy search trees with many
//             root candidates (plenty of stealable breadth at the root).
//   powerlaw: Chung-Lu hubs with zipf labels — skewed root subtree sizes,
//             the hub-rooted load-imbalance case static chunking serialized
//             and lazy deep splitting + stealing now spreads across cores.
//
// match_limit is 0 (full enumeration) so serial and parallel traverse the
// identical search tree: match counts must agree exactly (checked fatally)
// and the speedup is a clean same-work ratio. Thread counts {1, 2, 4} are
// measured against the serial baseline; the multi-core acceptance bars
// (>= 2x absolute at 4 threads; >= 1.5x over PR 4's static chunking on the
// power-law config) are only observable on >= 4 hardware cores — the JSON
// records hardware_concurrency plus every EnumWorkCounters field of the
// serial runs (`<case>_serial_<field>`) and of each thread count's merged
// parallel runs (`<case>_<t>t_<field>`: steals, splits, depth, per-worker
// work spread) so results are interpretable per machine, and the 1-thread
// column doubles as the parallel-machinery
// overhead check (<= 3% vs serial; serial must stay unregressed: compare
// serial_us against previous runs).
//
// Every run also checks a cross-order oracle: each query's full serial
// count under the RI order must equal its count under the QSI order
// (checked fatally). A full count does not depend on the order, but a stale
// slice memo or a wrong last-position count by subtraction would make it
// depend on it, on graphs larger than the unit tests use.
//
// Before each thread count's timed loop, every query also runs once with
// store_embeddings, and its embeddings must equal one serial storing run's,
// order included (checked fatally): the merge of the segments' runs on
// bench-sized split trees (the smoke dense case splits down to depth 4).
// A query whose serial count exceeds kMaxOrderCheckEmbeddings is left out
// of this check to bound memory, and the run says so; no smoke query
// comes near it.
//
// A last, ungated section measures the deadline overshoot, how far past
// its time limit a cut run returns (enum_time_seconds minus the limit), for
// the bound EnumerateOptions::time_limit_seconds states: one work quantum
// plus one slice intersection or one last-position count. It takes one
// power-law query whose full serial run outlasts 20x the largest limit and
// cuts it at 1, 2 and 5 ms, serially and at 2 and 4 threads, 20 runs each,
// and prints the median and the maximum overshoot. It runs in both modes
// and adds about a second.
//
// --smoke shrinks everything for CI: a seconds-long run that still
// verifies serial/parallel agreement and JSON emission (into
// BENCH_parallel_enum_smoke.json, so the committed default-run file is
// never overwritten with smoke-sized numbers), and — when the CI
// machine has > 1 core — fatally asserts that steals actually fire on the
// power-law config (a scheduler that never steals is PR 4 with overhead).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/ordering.h"

using namespace rlqvo;
using namespace rlqvo::bench;

namespace {

inline void KeepAlive(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

struct WorkloadCase {
  std::string name;
  bool power_law;
  uint32_t num_labels;
  double zipf;
  double avg_degree;
  uint32_t query_size;
};

struct PreparedQuery {
  Graph query;
  CandidateSet candidates;
  std::vector<VertexId> order;        // RI: the timed order
  std::vector<VertexId> cross_order;  // QSI: the cross-order oracle's
};

/// Largest serial count whose embeddings the order check stores (about
/// 120 MB per stored copy of 7-vertex embeddings).
constexpr uint64_t kMaxOrderCheckEmbeddings = uint64_t{1} << 21;

struct CaseResult {
  double serial_us = 0.0;
  std::vector<std::pair<uint32_t, double>> parallel_us;  // (threads, us)
  /// Counters of every parallel run at one thread count (warm-up + timed
  /// reps), merged: work counters, steals and splits summed; depth and
  /// max_worker_work the maxima over runs; min_worker_work the minimum.
  std::vector<std::pair<uint32_t, EnumWorkCounters>> parallel;
  EnumWorkCounters serial;  // one serial run per query, merged
};

CaseResult RunCase(const WorkloadCase& c, const BenchOptions& opts,
                   bool smoke) {
  // Full enumeration cost grows explosively with graph size; the base is
  // sized so a scale-1.0 case stays near ~0.1-1 s of serial work per query
  // on one core (heavy enough for chunking to matter, bounded enough to
  // calibrate).
  const uint32_t base = smoke ? 600 : 1400;
  const uint32_t n =
      std::max(256u, static_cast<uint32_t>(base * opts.scale));
  LabelConfig labels;
  labels.num_labels = c.num_labels;
  labels.zipf_exponent = c.zipf;
  Graph data =
      c.power_law
          ? MustOk(GeneratePowerLaw(n, c.avg_degree, 2.2, labels, opts.seed),
                   "generate")
          : MustOk(GenerateErdosRenyi(n, c.avg_degree, labels, opts.seed),
                   "generate");

  const uint32_t num_queries = smoke ? 2 : 3;
  QuerySampler sampler(&data, opts.seed + 5);
  std::vector<PreparedQuery> queries;
  for (uint32_t i = 0; i < num_queries; ++i) {
    PreparedQuery pq{MustOk(sampler.SampleQuery(c.query_size), "sample"),
                     CandidateSet(), {}, {}};
    pq.candidates = MustOk(LDFFilter().Filter(pq.query, data), "filter");
    OrderingContext octx;
    octx.query = &pq.query;
    octx.data = &data;
    octx.candidates = &pq.candidates;
    pq.order = MustOk(RIOrdering().MakeOrder(octx), "order");
    pq.cross_order = MustOk(QSIOrdering().MakeOrder(octx), "order");
    queries.push_back(std::move(pq));
  }

  // Full enumeration: serial and parallel do the exact same work, so the
  // timing ratio is a true speedup and match counts must agree exactly.
  EnumerateOptions eopts;
  eopts.match_limit = 0;

  Enumerator enumerator;
  EnumeratorWorkspace serial_ws;
  CaseResult out;

  // Serial baseline (warm-up run also records the expected counts and the
  // work counters, and checks them against the cross-order oracle).
  std::vector<uint64_t> expected(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    const PreparedQuery& pq = queries[i];
    auto r = MustOk(enumerator.Run(pq.query, data, pq.candidates, pq.order,
                                   eopts, &serial_ws),
                    "serial enumerate");
    expected[i] = r.num_matches;
    out.serial.Merge(r);
    auto cross = MustOk(enumerator.Run(pq.query, data, pq.candidates,
                                       pq.cross_order, eopts, &serial_ws),
                        "cross-order enumerate");
    if (cross.num_matches != expected[i]) {
      std::fprintf(stderr,
                   "FATAL: cross-order mismatch (%s, query %u: RI %llu vs "
                   "QSI %llu)\n",
                   c.name.c_str(), i,
                   static_cast<unsigned long long>(expected[i]),
                   static_cast<unsigned long long>(cross.num_matches));
      std::exit(1);
    }
  }

  // The order check's reference: one serial storing run per query.
  EnumerateOptions store_opts = eopts;
  store_opts.store_embeddings = true;
  std::vector<std::vector<std::vector<VertexId>>> serial_embeddings(
      num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    if (expected[i] > kMaxOrderCheckEmbeddings) {
      std::printf("# %s query %u: order check skipped (%llu embeddings)\n",
                  c.name.c_str(), i,
                  static_cast<unsigned long long>(expected[i]));
      continue;
    }
    const PreparedQuery& pq = queries[i];
    serial_embeddings[i] =
        MustOk(enumerator.Run(pq.query, data, pq.candidates, pq.order,
                              store_opts, &serial_ws),
               "serial storing enumerate")
            .embeddings;
  }

  auto run_serial = [&] {
    for (const PreparedQuery& pq : queries) {
      auto r = MustOk(enumerator.Run(pq.query, data, pq.candidates, pq.order,
                                     eopts, &serial_ws),
                      "serial enumerate");
      KeepAlive(&r);
    }
  };
  Stopwatch calib;
  run_serial();
  const double once = std::max(1e-6, calib.ElapsedSeconds());
  const int reps = std::clamp(static_cast<int>(0.5 / once), 1, 200);

  Stopwatch sw;
  for (int r = 0; r < reps; ++r) run_serial();
  out.serial_us = sw.ElapsedSeconds() / (reps * num_queries) * 1e6;

  for (uint32_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<EnumeratorWorkspace> workspaces(pool.size());
    EnumeratorWorkspace caller_ws;
    EnumerateOptions popts = eopts;
    popts.parallel_threads = threads;
    ParallelEnumResources resources;
    resources.pool = &pool;
    resources.worker_workspaces = &workspaces;
    resources.caller_workspace = &caller_ws;

    EnumWorkCounters merged;
    auto run_parallel = [&] {
      for (uint32_t i = 0; i < num_queries; ++i) {
        const PreparedQuery& pq = queries[i];
        auto r = MustOk(
            enumerator.RunParallel(pq.query, data, pq.candidates, pq.order,
                                   popts, resources),
            "parallel enumerate");
        merged.Merge(r);
        if (r.num_matches != expected[i]) {
          std::fprintf(
              stderr,
              "FATAL: serial/parallel mismatch (%s, %u threads, query %u: "
              "%llu vs %llu)\n",
              c.name.c_str(), threads, i,
              static_cast<unsigned long long>(r.num_matches),
              static_cast<unsigned long long>(expected[i]));
          std::exit(1);
        }
      }
    };
    // Order check (untimed): storing runs return the serial sequence.
    EnumerateOptions store_popts = popts;
    store_popts.store_embeddings = true;
    for (uint32_t i = 0; i < num_queries; ++i) {
      if (expected[i] > kMaxOrderCheckEmbeddings) continue;
      const PreparedQuery& pq = queries[i];
      const EnumerateResult r =
          MustOk(enumerator.RunParallel(pq.query, data, pq.candidates,
                                        pq.order, store_popts, resources),
                 "parallel storing enumerate");
      if (r.embeddings != serial_embeddings[i]) {
        std::fprintf(stderr,
                     "FATAL: parallel embeddings differ from serial (%s, %u "
                     "threads, query %u: %zu vs %zu embeddings, order "
                     "included)\n",
                     c.name.c_str(), threads, i, r.embeddings.size(),
                     serial_embeddings[i].size());
        std::exit(1);
      }
    }
    run_parallel();  // warm-up: grows per-worker workspaces + checks counts
    Stopwatch pw;
    for (int r = 0; r < reps; ++r) run_parallel();
    out.parallel_us.emplace_back(
        threads, pw.ElapsedSeconds() / (reps * num_queries) * 1e6);
    out.parallel.emplace_back(threads, merged);
  }
  return out;
}

/// The deadline overshoot section (see the file comment). Prints only.
void MeasureDeadlineOvershoot(const BenchOptions& opts) {
  constexpr double kLimitsMs[] = {1.0, 2.0, 5.0};
  constexpr int kRuns = 20;
  constexpr double kMinFullRunMs = 20 * 5.0;
  LabelConfig labels;
  labels.num_labels = 16;
  labels.zipf_exponent = 1.2;
  const Graph data =
      MustOk(GeneratePowerLaw(1400, 16.0, 2.2, labels, opts.seed), "generate");
  // The first sampled query that a serial run cannot finish within
  // kMinFullRunMs.
  QuerySampler sampler(&data, opts.seed + 11);
  Enumerator enumerator;
  EnumeratorWorkspace serial_ws;
  PreparedQuery pq;
  bool found = false;
  for (int attempt = 0; attempt < 20 && !found; ++attempt) {
    pq.query = MustOk(sampler.SampleQuery(7), "sample");
    pq.candidates = MustOk(LDFFilter().Filter(pq.query, data), "filter");
    OrderingContext octx;
    octx.query = &pq.query;
    octx.data = &data;
    octx.candidates = &pq.candidates;
    pq.order = MustOk(RIOrdering().MakeOrder(octx), "order");
    EnumerateOptions probe;
    probe.match_limit = 0;
    probe.time_limit_seconds = kMinFullRunMs * 1e-3;
    auto run = enumerator.Run(pq.query, data, pq.candidates, pq.order, probe,
                              &serial_ws);
    found = MustOk(std::move(run), "overshoot probe").timed_out;
  }
  std::printf("\n-- deadline overshoot: enum_time_seconds - limit (us) --\n");
  if (!found) {
    std::printf("# no sampled query outlasted %.0f ms; section skipped\n",
                kMinFullRunMs);
    return;
  }
  std::printf("# one power-law query (full serial run > %.0f ms), %d runs\n",
              kMinFullRunMs, kRuns);
  // quantum_us is the bound's work quantum (2^14 units,
  // kDeadlineCheckWorkQuantum in enumerator.cc) in time, at the busiest
  // worker's work rate up to the cut. The rate varies along the search
  // tree, so each cell has its own.
  std::printf("%8s %9s %10s %10s %10s %10s\n", "threads", "limit_ms", "median",
              "max", "quantum_us", "timed_out");
  for (const uint32_t threads : {0u, 2u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    std::vector<EnumeratorWorkspace> workspaces;
    ParallelEnumResources resources;
    resources.caller_workspace = &serial_ws;
    if (threads > 0) {
      pool = std::make_unique<ThreadPool>(threads);
      workspaces.resize(pool->size());
      resources.pool = pool.get();
      resources.worker_workspaces = &workspaces;
    }
    for (const double limit_ms : kLimitsMs) {
      const double limit_s = limit_ms * 1e-3;
      EnumerateOptions eopts;
      eopts.match_limit = 0;
      eopts.time_limit_seconds = limit_s;
      eopts.parallel_threads = threads;
      std::vector<double> overshoot_us;
      int timed_out = 0;
      uint64_t busiest_work = 0;
      double seconds = 0.0;
      for (int r = 0; r < kRuns; ++r) {
        auto run = enumerator.RunParallel(pq.query, data, pq.candidates,
                                          pq.order, eopts, resources);
        const EnumerateResult res = MustOk(std::move(run), "overshoot run");
        timed_out += res.timed_out;
        busiest_work += res.max_worker_work;
        seconds += res.enum_time_seconds;
        overshoot_us.push_back((res.enum_time_seconds - limit_s) * 1e6);
      }
      std::sort(overshoot_us.begin(), overshoot_us.end());
      const double quantum_us =
          16384.0 * 1e6 * seconds / static_cast<double>(busiest_work);
      std::printf("%8u %9.0f %10.1f %10.1f %10.1f %7d/%d\n", threads, limit_ms,
                  overshoot_us[kRuns / 2], overshoot_us.back(), quantum_us,
                  timed_out, kRuns);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) opts.scale = std::min(opts.scale, 1.0);
  PrintBanner("Intra-query parallel enumeration vs serial", opts);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# hardware_concurrency=%u (speedup is capped by cores)\n", hw);
  if (smoke) std::printf("# --smoke: reduced sizes for CI\n");

  const std::vector<WorkloadCase> cases = {
      {"dense", false, 4, 0.0, 16.0, static_cast<uint32_t>(smoke ? 6 : 7)},
      {"powerlaw", true, 16, 1.2, 16.0,
       static_cast<uint32_t>(smoke ? 6 : 7)},
  };

  std::vector<std::pair<std::string, double>> metrics;
  metrics.emplace_back("hardware_concurrency", static_cast<double>(hw));
  double heavy_speedup_4t = 0.0;
  uint64_t powerlaw_multithread_steals = 0;
  std::printf("\n-- enumeration time per query (us) --\n");
  std::printf("%10s %12s %10s %10s %10s %9s %9s %9s\n", "case", "serial",
              "1t", "2t", "4t", "sp(1t)", "sp(2t)", "sp(4t)");
  std::vector<std::pair<std::string, CaseResult>> results;
  for (const WorkloadCase& c : cases) {
    CaseResult r = RunCase(c, opts, smoke);
    metrics.emplace_back("serial_us_" + c.name, r.serial_us);
    double us[3] = {0, 0, 0};
    for (size_t i = 0; i < r.parallel_us.size(); ++i) {
      const auto& [threads, t_us] = r.parallel_us[i];
      us[i] = t_us;
      metrics.emplace_back(
          "par" + std::to_string(threads) + "t_us_" + c.name, t_us);
      metrics.emplace_back(
          "speedup_" + std::to_string(threads) + "t_" + c.name,
          t_us > 0 ? r.serial_us / t_us : 0.0);
    }
    std::printf("%10s %12.1f %10.1f %10.1f %10.1f %8.2fx %8.2fx %8.2fx\n",
                c.name.c_str(), r.serial_us, us[0], us[1], us[2],
                r.serial_us / us[0], r.serial_us / us[1],
                r.serial_us / us[2]);
    AppendEnumWorkMetrics(&metrics, c.name + "_serial", r.serial);
    for (const auto& [threads, counters] : r.parallel) {
      AppendEnumWorkMetrics(
          &metrics, c.name + "_" + std::to_string(threads) + "t", counters);
      if (c.power_law && threads >= 2) {
        powerlaw_multithread_steals += counters.num_steals;
      }
    }
    if (c.name == "powerlaw") heavy_speedup_4t = r.serial_us / us[2];
    results.emplace_back(c.name, std::move(r));
  }

  std::printf("\n-- scheduler counters (merged over all parallel runs) --\n");
  std::printf("%10s %7s %12s %12s %10s\n", "case", "threads", "steals",
              "splits", "max_depth");
  for (const auto& [name, r] : results) {
    for (const auto& [threads, counters] : r.parallel) {
      std::printf("%10s %7u %12llu %12llu %10llu\n", name.c_str(), threads,
                  static_cast<unsigned long long>(counters.num_steals),
                  static_cast<unsigned long long>(counters.num_splits),
                  static_cast<unsigned long long>(counters.max_segment_depth));
    }
  }

  metrics.emplace_back("heavy_speedup_4t", heavy_speedup_4t);
  std::printf(
      "\nheavy-query (powerlaw) 4-thread speedup: %.2fx %s\n",
      heavy_speedup_4t,
      heavy_speedup_4t >= 2.0
          ? "(PASS >= 2x)"
          : (hw < 4 ? "(below 2x bar — machine has < 4 cores)"
                    : "(below 2x bar)"));
  // CI tripwire: on a multi-core machine the skewed power-law case must
  // exercise the stealing path — zero steals across every multi-thread run
  // means the scheduler degenerated into static seeding (PR 4 behavior with
  // extra overhead) and the smoke run is no longer testing the new code.
  if (smoke && hw > 1 && powerlaw_multithread_steals == 0) {
    std::fprintf(stderr,
                 "FATAL: no steals fired on the powerlaw config across any "
                 "multi-thread run (hardware_concurrency=%u); the "
                 "work-stealing scheduler is not exercising its steal path\n",
                 hw);
    std::exit(1);
  }
  MeasureDeadlineOvershoot(opts);
  WriteBenchJson(smoke ? "parallel_enum_smoke" : "parallel_enum", opts,
                 metrics);
  return 0;
}
