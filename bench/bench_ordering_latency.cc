// Serving-side ordering latency: per-order p50/p99 for the heuristic
// baselines (RI / GQL / CFL) vs RL-QVO ordering through the
// training-grade autograd forward vs RL-QVO's serving ordering
// (RLQVOOrdering, tape-free inference path), plus engine batch throughput
// with the fingerprint-keyed order cache on a repeated-shape workload. The
// autograd column is driven here directly — OrderingEnv, eval-mode
// PolicyNetwork::Forward, argmax — as the serving ordering has no autograd
// mode.
//
// Fatal invariants (checked in every mode, --smoke included):
//   - the inference path and the eval-mode autograd path pick identical
//     orders for every measured query (greedy argmax over equal scores);
//   - steady-state inference performs zero allocations (the workspace's
//     buffer_grows counter must not move after warm-up);
//   - order-cache accounting balances (hits + misses == lookups) and the
//     cached batch reproduces the uncached batch's match counts.
//
// Acceptance bar (ISSUE 5): inference >= 3x faster than autograd on
// paper-scale queries (|V(q)| in [8, 32]), measured as the aggregate
// speedup over the size-mixed workload (total autograd seconds / total
// inference seconds; per-size ratios are also reported — small queries sit
// lower because the shared env walk and the full-mask first step dilute
// the forward savings).
//
// A default run measures in 5 interleaved rounds: each round times every
// size and ordering once, then each engine over back-to-back batches until
// its sample spans at least 20 ms (one batch runs in under 2 ms uncached),
// alternating by round which engine goes first. Every printed column is
// the median over the rounds with its first and third quartile, and
// BENCH_ordering_latency.json carries each as <key>_p25 / _p50 / _p75.
// --smoke runs one round with fewer queries and reps, and one batch per
// engine, for the CI smoke step (full size range, every fatal check) and
// writes BENCH_ordering_latency_smoke.json instead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/rlqvo.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/filters.h"
#include "matching/ordering.h"
#include "rl/env.h"

using namespace rlqvo;
using namespace rlqvo::bench;

namespace {

struct LatencyStats {
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
};

LatencyStats Percentiles(std::vector<double> seconds) {
  LatencyStats stats;
  if (seconds.empty()) return stats;
  std::sort(seconds.begin(), seconds.end());
  auto at = [&](double q) {
    const size_t idx = std::min(seconds.size() - 1,
                                static_cast<size_t>(q * seconds.size()));
    return seconds[idx] * 1e6;
  };
  stats.p50_us = at(0.50);
  stats.p99_us = at(0.99);
  double total = 0.0;
  for (double s : seconds) total += s;
  stats.mean_us = total / seconds.size() * 1e6;
  return stats;
}

/// A column's value in every round, in the order first recorded.
class RoundColumns {
 public:
  void Add(const std::string& key, double value) {
    auto [it, inserted] = values_.try_emplace(key);
    if (inserted) keys_.push_back(key);
    it->second.push_back(value);
  }

  /// The q-quantile of `key` over the rounds, interpolating linearly
  /// between order statistics.
  double Quantile(const std::string& key, double q) const {
    std::vector<double> v = values_.at(key);
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }

  /// "median [p25, p75]" of `key`.
  std::string Cell(const std::string& key) const {
    char cell[64];
    std::snprintf(cell, sizeof(cell), "%.1f [%.1f, %.1f]",
                  Quantile(key, 0.5), Quantile(key, 0.25),
                  Quantile(key, 0.75));
    return cell;
  }

  /// Every column as <key>_p25, <key>_p50 and <key>_p75.
  void AppendQuartiles(
      std::vector<std::pair<std::string, double>>* metrics) const {
    for (const std::string& key : keys_) {
      metrics->emplace_back(key + "_p25", Quantile(key, 0.25));
      metrics->emplace_back(key + "_p50", Quantile(key, 0.5));
      metrics->emplace_back(key + "_p75", Quantile(key, 0.75));
    }
  }

 private:
  std::vector<std::string> keys_;
  std::map<std::string, std::vector<double>> values_;
};

/// Times `ordering` over every (query, candidates) pair `reps` times and
/// returns per-order latencies. Orders are appended to `orders_out` (one
/// per query, from the final rep) for cross-path equality checks.
std::vector<double> TimeOrdering(
    Ordering* ordering, const std::vector<Graph>& queries, const Graph& data,
    const std::vector<CandidateSet>& candidates, int reps,
    std::vector<std::vector<VertexId>>* orders_out = nullptr) {
  std::vector<double> latencies;
  latencies.reserve(queries.size() * static_cast<size_t>(reps));
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    OrderingContext ctx;
    ctx.query = &queries[qi];
    ctx.data = &data;
    ctx.candidates = &candidates[qi];
    std::vector<VertexId> last;
    for (int r = 0; r < reps; ++r) {
      Stopwatch watch;
      last = MustOk(ordering->MakeOrder(ctx), "MakeOrder");
      latencies.push_back(watch.ElapsedSeconds());
    }
    if (orders_out != nullptr) orders_out->push_back(std::move(last));
  }
  return latencies;
}

/// RL-QVO greedy ordering through the training-grade autograd forward:
/// the same episode RLQVOOrdering runs (sole actions skip the network,
/// argmax over the masked log-probs), with eval-mode
/// PolicyNetwork::Forward in place of the tape-free inference path. The
/// bench's queries are connected, so the action space never empties.
class AutogradRLQVOOrdering : public Ordering {
 public:
  AutogradRLQVOOrdering(std::shared_ptr<const PolicyNetwork> policy,
                        FeatureConfig features)
      : policy_(std::move(policy)), features_(features) {}

  std::string name() const override { return "RL-QVO (autograd)"; }
  Result<std::vector<VertexId>> MakeOrder(
      const OrderingContext& ctx) override {
    OrderingEnv env(ctx.query, ctx.data, features_);
    while (!env.Done()) {
      VertexId choice = env.SoleAction();
      if (choice == kInvalidVertex) {
        const PolicyNetwork::ForwardResult forward =
            policy_->Forward(env.tensors(), env.FeaturesView(),
                             env.ActionMask(), /*training=*/false, nullptr);
        double best = -1e300;
        for (VertexId u = 0; u < ctx.query->num_vertices(); ++u) {
          const double lp = forward.log_probs.value().At(u, 0);
          if (env.ActionMask()[u] && lp > best) {
            best = lp;
            choice = u;
          }
        }
      }
      if (choice == kInvalidVertex) {
        return Status::Internal("autograd forward produced no finite score");
      }
      env.Step(choice);
    }
    return env.order();
  }

 private:
  std::shared_ptr<const PolicyNetwork> policy_;
  FeatureConfig features_;
};

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintBanner("Ordering latency: heuristics vs RL-QVO autograd vs inference",
              opts);
  if (smoke) std::printf("# --smoke: reduced sizes for CI\n");

  // Mid-size labeled data graph; ordering cost depends on |V(q)|, not
  // |V(G)|, so the graph only needs to be big enough for realistic
  // degree/label-frequency features.
  LabelConfig labels;
  labels.num_labels = 32;
  labels.zipf_exponent = 0.4;
  const uint32_t data_n = smoke ? 2000 : 20000;
  Graph data =
      MustOk(GenerateErdosRenyi(data_n, 6.0, labels, opts.seed), "generate");
  auto shared_data = std::make_shared<Graph>(data);

  // Paper-scale query sizes (|V(q)| in [8, 32]).
  const std::vector<uint32_t> query_sizes = {8, 16, 32};
  const uint32_t queries_per_size = smoke ? 3 : 8;
  const int reps = smoke ? 5 : 30;
  const int rounds = smoke ? 1 : 5;

  RLQVOModel model;  // paper-default architecture (GCN x2, hidden 64)
  auto policy = std::shared_ptr<const PolicyNetwork>(
      std::make_shared<PolicyNetwork>(model.policy().Clone()));
  auto gql_filter = MustOk(MakeFilter("GQL"), "filter");

  struct SizeCase {
    uint32_t size = 0;
    std::string tag;  // "q<size>"
    std::vector<Graph> queries;
    std::vector<CandidateSet> candidates;
    std::unique_ptr<RLQVOOrdering> inference;
  };
  std::vector<SizeCase> cases;
  for (uint32_t size : query_sizes) {
    SizeCase c;
    c.size = size;
    // Append, not `"q" + std::to_string(size)`: GCC 12 -Wrestrict false
    // positive (PR105329) on the const char* + string&& overload at -O3.
    c.tag = "q";
    c.tag += std::to_string(size);
    QuerySampler sampler(&data, opts.seed + size);
    for (uint32_t i = 0; i < queries_per_size; ++i) {
      c.queries.push_back(MustOk(sampler.SampleQuery(size), "sample"));
      c.candidates.push_back(
          MustOk(gql_filter->Filter(c.queries.back(), data), "filter"));
    }
    // Warm up once so every measured rep runs at the buffer high-water
    // mark; each round then requires zero further growth.
    c.inference =
        std::make_unique<RLQVOOrdering>(policy, model.feature_config());
    std::vector<std::vector<VertexId>> warmup;
    TimeOrdering(c.inference.get(), c.queries, data, c.candidates, 1, &warmup);
    cases.push_back(std::move(c));
  }

  // Engine throughput on a repeated-fingerprint batch: order cache on vs
  // off. Every shape repeats, so with the cache only the first occurrence
  // pays for policy inference.
  const uint32_t shapes = smoke ? 3 : 8;
  const uint32_t repeats = smoke ? 4 : 10;
  QuerySampler sampler(&data, opts.seed + 99);
  std::vector<Graph> batch;
  for (uint32_t s = 0; s < shapes; ++s) {
    Graph q = MustOk(sampler.SampleQuery(8), "sample");
    for (uint32_t r = 0; r < repeats; ++r) batch.push_back(q);
  }
  EnumerateOptions enum_options;
  enum_options.match_limit = smoke ? 100 : 1000;
  enum_options.time_limit_seconds = opts.time_limit;

  EngineOptions cache_on;
  cache_on.num_threads = 2;
  EngineOptions cache_off = cache_on;
  cache_off.order_cache_capacity = 0;

  auto engine_on = MustOk(
      model.MakeEngine(shared_data, cache_on, enum_options), "engine");
  auto engine_off = MustOk(
      model.MakeEngine(shared_data, cache_off, enum_options), "engine");
  // Warm both engines (candidate cache + workspaces) before the rounds.
  const BatchResult reference = MustOk(engine_off->MatchBatch(batch), "warmup");
  MustOk(engine_on->MatchBatch(batch), "warmup");

  // One engine sample: back-to-back batches until they span
  // kMinSampleSeconds of engine wall time (one batch under --smoke). Every
  // batch must reproduce the uncached warm-up's counts, and the cached
  // engine's order-cache accounting must balance. Returns false after
  // printing the first violation.
  constexpr double kMinSampleSeconds = 0.02;
  struct EngineSample {
    double qps = 0.0;
    double order_us_per_batch = 0.0;
    BatchResult last;
  };
  auto run_sample = [&](QueryEngine& engine, bool cached,
                        EngineSample* sample) {
    double wall = 0.0;
    double order = 0.0;
    int batches = 0;
    do {
      BatchResult r = MustOk(engine.MatchBatch(batch), "batch");
      if (r.totals.num_matches != reference.totals.num_matches ||
          r.totals.num_enumerations != reference.totals.num_enumerations) {
        std::fprintf(stderr,
                     "FATAL: order cache changed batch results "
                     "(matches %llu vs %llu)\n",
                     static_cast<unsigned long long>(r.totals.num_matches),
                     static_cast<unsigned long long>(
                         reference.totals.num_matches));
        return false;
      }
      if (cached &&
          r.order_cache_hits + r.order_cache_misses != batch.size()) {
        std::fprintf(stderr,
                     "FATAL: order cache accounting does not balance\n");
        return false;
      }
      wall += r.wall_seconds;
      order += r.total_order_seconds;
      ++batches;
      sample->last = std::move(r);
    } while (!smoke && wall < kMinSampleSeconds);
    sample->qps = static_cast<double>(batch.size()) * batches / wall;
    sample->order_us_per_batch = order / batches * 1e6;
    return true;
  };

  RoundColumns columns;
  BatchResult last_on;
  BatchResult last_off;
  for (int round = 0; round < rounds; ++round) {
    double worst_speedup = 1e300;
    double total_autograd_seconds = 0.0;
    double total_inference_seconds = 0.0;
    for (SizeCase& c : cases) {
      auto record = [&](const std::string& name,
                        const std::vector<double>& lat) {
        const LatencyStats stats = Percentiles(lat);
        columns.Add(name + "_p50_us_" + c.tag, stats.p50_us);
        columns.Add(name + "_p99_us_" + c.tag, stats.p99_us);
        columns.Add(name + "_mean_us_" + c.tag, stats.mean_us);
        return stats;
      };

      // Heuristic baselines.
      RIOrdering ri;
      GQLOrdering gql;
      CFLOrdering cfl;
      record("RI", TimeOrdering(&ri, c.queries, data, c.candidates, reps));
      record("GQL", TimeOrdering(&gql, c.queries, data, c.candidates, reps));
      record("CFL", TimeOrdering(&cfl, c.queries, data, c.candidates, reps));

      // RL-QVO, autograd (training-grade) path.
      AutogradRLQVOOrdering autograd(policy, model.feature_config());
      std::vector<std::vector<VertexId>> autograd_orders;
      const std::vector<double> autograd_lat = TimeOrdering(
          &autograd, c.queries, data, c.candidates, reps, &autograd_orders);
      const LatencyStats autograd_stats =
          record("RLQVO_autograd", autograd_lat);
      for (double s : autograd_lat) total_autograd_seconds += s;

      // RL-QVO, tape-free inference path.
      const uint64_t grows_before =
          c.inference->inference_workspace().buffer_grows();
      std::vector<std::vector<VertexId>> inference_orders;
      const std::vector<double> inference_lat =
          TimeOrdering(c.inference.get(), c.queries, data, c.candidates, reps,
                       &inference_orders);
      const LatencyStats inference_stats =
          record("RLQVO_inference", inference_lat);
      for (double s : inference_lat) total_inference_seconds += s;
      if (c.inference->inference_workspace().buffer_grows() != grows_before) {
        std::fprintf(stderr,
                     "FATAL: inference workspace grew during steady state\n");
        return 1;
      }
      // Equal scores => equal greedy orders; anything else is a numerics bug.
      for (size_t qi = 0; qi < c.queries.size(); ++qi) {
        if (autograd_orders[qi] != inference_orders[qi]) {
          std::fprintf(stderr,
                       "FATAL: inference and autograd orders differ on "
                       "query %zu (size %u)\n",
                       qi, c.size);
          return 1;
        }
      }

      const double speedup = autograd_stats.mean_us / inference_stats.mean_us;
      worst_speedup = std::min(worst_speedup, speedup);
      columns.Add("inference_speedup_" + c.tag, speedup);
    }
    columns.Add("min_inference_speedup", worst_speedup);
    columns.Add("aggregate_inference_speedup",
                total_autograd_seconds / total_inference_seconds);

    // Alternate which engine runs first, so neither always meets the
    // caches the latency loops above left behind.
    EngineSample on;
    EngineSample off;
    const bool on_first = round % 2 == 0;
    const bool ok = on_first ? run_sample(*engine_on, true, &on) &&
                                   run_sample(*engine_off, false, &off)
                             : run_sample(*engine_off, false, &off) &&
                                   run_sample(*engine_on, true, &on);
    if (!ok) return 1;
    columns.Add("engine_qps_order_cache_on", on.qps);
    columns.Add("engine_qps_order_cache_off", off.qps);
    columns.Add("engine_order_cache_speedup", on.qps / off.qps);
    columns.Add("engine_cached_order_us", on.order_us_per_batch);
    columns.Add("engine_uncached_order_us", off.order_us_per_batch);
    last_on = std::move(on.last);
    last_off = std::move(off.last);
  }

  std::printf("%d round(s); each cell is the median over the rounds "
              "[first, third quartile]\n",
              rounds);
  std::printf("%6s %-18s %24s %24s %24s\n", "|V(q)|", "ordering", "p50 us",
              "p99 us", "mean us");
  for (const SizeCase& c : cases) {
    for (const char* name :
         {"RI", "GQL", "CFL", "RLQVO_autograd", "RLQVO_inference"}) {
      const std::string prefix = name;
      std::printf("%6u %-18s %24s %24s %24s\n", c.size, name,
                  columns.Cell(prefix + "_p50_us_" + c.tag).c_str(),
                  columns.Cell(prefix + "_p99_us_" + c.tag).c_str(),
                  columns.Cell(prefix + "_mean_us_" + c.tag).c_str());
    }
    std::printf("%6u %-18s %24s\n", c.size, "speedup (x)",
                columns.Cell("inference_speedup_" + c.tag).c_str());
  }
  std::printf(
      "engine repeated-shape batch (%zu queries, %u shapes; %s): %s q/s "
      "cached vs %s q/s uncached (%sx), order time per batch %s us vs %s "
      "us, order-cache hits %llu\n",
      batch.size(), shapes,
      smoke ? "one batch per sample" : "samples of >= 20 ms",
      columns.Cell("engine_qps_order_cache_on").c_str(),
      columns.Cell("engine_qps_order_cache_off").c_str(),
      columns.Cell("engine_order_cache_speedup").c_str(),
      columns.Cell("engine_cached_order_us").c_str(),
      columns.Cell("engine_uncached_order_us").c_str(),
      static_cast<unsigned long long>(last_on.order_cache_hits));
  const double aggregate_speedup =
      columns.Quantile("aggregate_inference_speedup", 0.5);
  std::printf(
      "inference speedup over the paper-scale workload: %sx aggregate %s "
      "(worst single size %sx)\n",
      columns.Cell("aggregate_inference_speedup").c_str(),
      aggregate_speedup >= 3.0 ? "(PASS >= 3x)" : "(below 3x bar)",
      columns.Cell("min_inference_speedup").c_str());

  std::vector<std::pair<std::string, double>> metrics;
  columns.AppendQuartiles(&metrics);
  AppendOrderingMetrics(&metrics, "engine_cached",
                        last_on.total_order_seconds, last_on.order_cache_hits,
                        last_on.order_cache_misses);
  AppendOrderingMetrics(&metrics, "engine_uncached",
                        last_off.total_order_seconds,
                        last_off.order_cache_hits, last_off.order_cache_misses);
  WriteBenchJson(smoke ? "ordering_latency_smoke" : "ordering_latency", opts,
                 metrics);
  return 0;
}
