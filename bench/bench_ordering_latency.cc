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
// the forward savings). Metrics land in BENCH_ordering_latency.json;
// --smoke shrinks query counts/reps for the CI smoke step but keeps the
// full size range, and writes BENCH_ordering_latency_smoke.json instead.
#include <algorithm>
#include <cstdio>
#include <cstring>
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

  RLQVOModel model;  // paper-default architecture (GCN x2, hidden 64)
  auto policy = std::shared_ptr<const PolicyNetwork>(
      std::make_shared<PolicyNetwork>(model.policy().Clone()));
  auto gql_filter = MustOk(MakeFilter("GQL"), "filter");

  std::vector<std::pair<std::string, double>> metrics;
  double worst_speedup = 1e300;
  double total_autograd_seconds = 0.0;
  double total_inference_seconds = 0.0;

  std::printf("%6s %-18s %12s %12s %12s\n", "|V(q)|", "ordering", "p50 us",
              "p99 us", "mean us");
  for (uint32_t size : query_sizes) {
    QuerySampler sampler(&data, opts.seed + size);
    std::vector<Graph> queries;
    std::vector<CandidateSet> candidates;
    for (uint32_t i = 0; i < queries_per_size; ++i) {
      queries.push_back(MustOk(sampler.SampleQuery(size), "sample"));
      candidates.push_back(
          MustOk(gql_filter->Filter(queries.back(), data), "filter"));
    }

    // Append, not `"q" + std::to_string(size)`: GCC 12 -Wrestrict false
    // positive (PR105329) on the const char* + string&& overload at -O3.
    std::string tag = "q";
    tag += std::to_string(size);
    auto record = [&](const std::string& name,
                      const std::vector<double>& lat) {
      const LatencyStats stats = Percentiles(lat);
      std::printf("%6u %-18s %12.1f %12.1f %12.1f\n", size, name.c_str(),
                  stats.p50_us, stats.p99_us, stats.mean_us);
      metrics.emplace_back(name + "_p50_us_" + tag, stats.p50_us);
      metrics.emplace_back(name + "_p99_us_" + tag, stats.p99_us);
      metrics.emplace_back(name + "_mean_us_" + tag, stats.mean_us);
      return stats;
    };

    // Heuristic baselines.
    RIOrdering ri;
    GQLOrdering gql;
    CFLOrdering cfl;
    record("RI", TimeOrdering(&ri, queries, data, candidates, reps));
    record("GQL", TimeOrdering(&gql, queries, data, candidates, reps));
    record("CFL", TimeOrdering(&cfl, queries, data, candidates, reps));

    // RL-QVO, autograd (training-grade) path.
    AutogradRLQVOOrdering autograd(policy, model.feature_config());
    std::vector<std::vector<VertexId>> autograd_orders;
    const std::vector<double> autograd_lat = TimeOrdering(
        &autograd, queries, data, candidates, reps, &autograd_orders);
    const LatencyStats autograd_stats = record("RLQVO_autograd", autograd_lat);
    for (double s : autograd_lat) total_autograd_seconds += s;

    // RL-QVO, tape-free inference path. Warm up once so the measured reps
    // run at the buffer high-water mark, then require zero further growth.
    RLQVOOrdering inference(policy, model.feature_config());
    {
      std::vector<std::vector<VertexId>> warmup;
      TimeOrdering(&inference, queries, data, candidates, 1, &warmup);
    }
    const uint64_t grows_before = inference.inference_workspace().buffer_grows();
    std::vector<std::vector<VertexId>> inference_orders;
    const std::vector<double> inference_lat = TimeOrdering(
        &inference, queries, data, candidates, reps, &inference_orders);
    const LatencyStats inference_stats =
        record("RLQVO_inference", inference_lat);
    for (double s : inference_lat) total_inference_seconds += s;
    if (inference.inference_workspace().buffer_grows() != grows_before) {
      std::fprintf(stderr,
                   "FATAL: inference workspace grew during steady state\n");
      return 1;
    }
    // Equal scores => equal greedy orders; anything else is a numerics bug.
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (autograd_orders[qi] != inference_orders[qi]) {
        std::fprintf(stderr,
                     "FATAL: inference and autograd orders differ on "
                     "query %zu (size %u)\n",
                     qi, size);
        return 1;
      }
    }

    const double speedup = autograd_stats.mean_us / inference_stats.mean_us;
    worst_speedup = std::min(worst_speedup, speedup);
    metrics.emplace_back("inference_speedup_" + tag, speedup);
    std::printf("%6u %-18s %11.2fx\n", size, "speedup", speedup);
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
  // Warm both engines (candidate cache + workspaces), then measure.
  MustOk(engine_on->MatchBatch(batch), "warmup");
  MustOk(engine_off->MatchBatch(batch), "warmup");
  const BatchResult on = MustOk(engine_on->MatchBatch(batch), "batch");
  const BatchResult off = MustOk(engine_off->MatchBatch(batch), "batch");
  if (on.totals.num_matches != off.totals.num_matches ||
      on.totals.num_enumerations != off.totals.num_enumerations) {
    std::fprintf(stderr,
                 "FATAL: order cache changed batch results "
                 "(matches %llu vs %llu)\n",
                 static_cast<unsigned long long>(on.totals.num_matches),
                 static_cast<unsigned long long>(off.totals.num_matches));
    return 1;
  }
  if (on.order_cache_hits + on.order_cache_misses != batch.size()) {
    std::fprintf(stderr, "FATAL: order cache accounting does not balance\n");
    return 1;
  }
  const double qps_on = batch.size() / on.wall_seconds;
  const double qps_off = batch.size() / off.wall_seconds;
  std::printf(
      "engine repeated-shape batch (%zu queries, %u shapes): "
      "%.0f q/s cached vs %.0f q/s uncached (%.2fx), order time %.3f ms "
      "vs %.3f ms, order-cache hits %llu\n",
      batch.size(), shapes, qps_on, qps_off, qps_on / qps_off,
      on.total_order_seconds * 1e3, off.total_order_seconds * 1e3,
      static_cast<unsigned long long>(on.order_cache_hits));
  metrics.emplace_back("engine_qps_order_cache_on", qps_on);
  metrics.emplace_back("engine_qps_order_cache_off", qps_off);
  metrics.emplace_back("engine_order_cache_speedup", qps_on / qps_off);
  AppendOrderingMetrics(&metrics, "engine_cached", on.total_order_seconds,
                        on.order_cache_hits, on.order_cache_misses);
  AppendOrderingMetrics(&metrics, "engine_uncached", off.total_order_seconds,
                        off.order_cache_hits, off.order_cache_misses);

  const double aggregate_speedup =
      total_autograd_seconds / total_inference_seconds;
  metrics.emplace_back("min_inference_speedup", worst_speedup);
  metrics.emplace_back("aggregate_inference_speedup", aggregate_speedup);
  std::printf(
      "inference speedup over the paper-scale workload: %.2fx aggregate %s "
      "(worst single size %.2fx)\n",
      aggregate_speedup,
      aggregate_speedup >= 3.0 ? "(PASS >= 3x)" : "(below 3x bar)",
      worst_speedup);
  WriteBenchJson(smoke ? "ordering_latency_smoke" : "ordering_latency", opts,
                 metrics);
  return 0;
}
