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
// --smoke shrinks everything for CI: a seconds-long run that still
// verifies serial/parallel agreement and JSON emission (into
// BENCH_parallel_enum_smoke.json, so the committed default-run file is
// never overwritten with smoke-sized numbers), and — when the CI
// machine has > 1 core — fatally asserts that steals actually fire on the
// power-law config (a scheduler that never steals is PR 4 with overhead).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
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
  std::vector<VertexId> order;
};

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
                     CandidateSet(), {}};
    pq.candidates = MustOk(LDFFilter().Filter(pq.query, data), "filter");
    OrderingContext octx;
    octx.query = &pq.query;
    octx.data = &data;
    octx.candidates = &pq.candidates;
    pq.order = MustOk(RIOrdering().MakeOrder(octx), "order");
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
  // work counters).
  std::vector<uint64_t> expected(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    const PreparedQuery& pq = queries[i];
    auto r = MustOk(enumerator.Run(pq.query, data, pq.candidates, pq.order,
                                   eopts, &serial_ws),
                    "serial enumerate");
    expected[i] = r.num_matches;
    out.serial.Merge(r);
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
    run_parallel();  // warm-up: grows per-worker workspaces + checks counts
    Stopwatch pw;
    for (int r = 0; r < reps; ++r) run_parallel();
    out.parallel_us.emplace_back(
        threads, pw.ElapsedSeconds() / (reps * num_queries) * 1e6);
    out.parallel.emplace_back(threads, merged);
  }
  return out;
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
  WriteBenchJson(smoke ? "parallel_enum_smoke" : "parallel_enum", opts,
                 metrics);
  return 0;
}
