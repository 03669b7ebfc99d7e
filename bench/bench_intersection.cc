// Local-candidate generation: the seed's probe loop (pivot neighborhood
// scan + one HasEdge binary search per additional backward neighbor) vs the
// intersection-driven core (adaptive merge/gallop over label-restricted
// adjacency slices), across label skews and density scales.
//
// Three parts:
//   1. A merge-vs-gallop crossover microbench over sorted random sets at
//      growing size ratios — the measurement behind intersect.h's
//      kGallopRatio.
//   2. Full enumeration runs on generated workloads, timing the current
//      Enumerator (auto kernel), the same enumeration under the forced
//      scalar kernel (the PR 3 baseline), and a faithful re-implementation
//      of the pre-change probe loop on identical inputs (same workspace
//      machinery, same candidate sets, same orders). All traverse the
//      identical recursion tree, so match counts must agree exactly —
//      checked fatally.
//   3. Forced-kernel dispatch (scalar/sse/avx2/auto) on harvested
//      hub-slice pairs — the dense slices where intersection time
//      concentrates — with fatal output-equality per kernel.
//
// Acceptance bars: >= 2x over the probe loop on the skewed-label
// configuration at scale >= 1.0 (ISSUE 3), and auto >= 2x over the forced
// scalar kernel on both part 3 configurations on AVX2 hardware (ISSUE 6).
// Metrics (including the enumeration work counters and the kernel grid)
// land in BENCH_intersection.json.
//
// --smoke shrinks everything for CI: a seconds-long run that still verifies
// probe/intersection agreement and JSON emission, into
// BENCH_intersection_smoke.json so a default run's file is never
// overwritten with smoke-sized numbers.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/ordering.h"

using namespace rlqvo;
using namespace rlqvo::bench;

namespace {

inline void KeepAlive(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}

// ---------------------------------------------------------------------------
// Part 1: merge vs gallop crossover.
// ---------------------------------------------------------------------------

std::vector<VertexId> RandomSortedSet(Rng* rng, size_t size,
                                      uint32_t universe) {
  std::set<VertexId> s;
  while (s.size() < size) {
    s.insert(static_cast<VertexId>(rng->NextBounded(universe)));
  }
  return {s.begin(), s.end()};
}

void CrossoverMicrobench(std::vector<std::pair<std::string, double>>* metrics,
                         bool smoke) {
  const size_t small_size = smoke ? 256 : 1024;
  std::printf("\n-- merge vs gallop crossover (|small| = %zu) --\n",
              small_size);
  std::printf("%8s %14s %14s %9s\n", "ratio", "linear ns/op", "gallop ns/op",
              "gallop/lin");
  Rng rng(99);
  const int reps = smoke ? 20 : 200;
  for (size_t ratio : {1, 2, 4, 8, 16, 32, 64, 128}) {
    const size_t large_size = small_size * ratio;
    const uint32_t universe = static_cast<uint32_t>(large_size * 4);
    const auto small = RandomSortedSet(&rng, small_size, universe);
    const auto large = RandomSortedSet(&rng, large_size, universe);
    std::vector<VertexId> out;
    uint64_t cmp = 0;
    Stopwatch lw;
    for (int r = 0; r < reps; ++r) {
      IntersectLinear(small, large, &out, &cmp);
      KeepAlive(out.data());
    }
    const double linear_ns = lw.ElapsedSeconds() / reps * 1e9;
    Stopwatch gw;
    for (int r = 0; r < reps; ++r) {
      IntersectGalloping(small, large, &out, &cmp);
      KeepAlive(out.data());
    }
    const double gallop_ns = gw.ElapsedSeconds() / reps * 1e9;
    std::printf("%8zu %14.0f %14.0f %9.2f\n", ratio, linear_ns, gallop_ns,
                gallop_ns / linear_ns);
    metrics->emplace_back("gallop_over_linear_r" + std::to_string(ratio),
                          gallop_ns / linear_ns);
  }
}

// ---------------------------------------------------------------------------
// Part 2: probe loop vs intersection core on full enumerations.
// ---------------------------------------------------------------------------

/// The pre-change Extend loop, verbatim in strategy: iterate the minimum-
/// degree mapped backward neighbor's whole neighborhood, test candidate
/// membership per vertex, then one HasEdge per remaining backward neighbor.
/// Runs on the same EnumeratorWorkspace machinery (epoch-stamped visited/
/// membership, backward lists) so the measured delta is purely the
/// local-candidate strategy.
struct ProbeEnumerator {
  const Graph* query = nullptr;
  const Graph* data = nullptr;
  const CandidateSet* candidates = nullptr;
  const std::vector<VertexId>* order = nullptr;
  EnumeratorWorkspace* ws = nullptr;
  uint64_t match_limit = 0;
  uint64_t num_matches = 0;

  bool Done() const { return match_limit > 0 && num_matches >= match_limit; }

  void Extend(size_t depth) {
    if (Done()) return;
    const VertexId u = (*order)[depth];
    // This benchmark runs degenerate (undirected, single-edge-label)
    // workloads only, so each backward constraint is just its query vertex.
    const std::vector<EnumeratorWorkspace::BackwardConstraint>& backward =
        ws->backward()[depth];
    if (backward.empty()) {
      for (VertexId v : candidates->candidates(u)) {
        if (ws->Visited(v)) continue;
        Descend(depth, u, v);
        if (Done()) return;
      }
      return;
    }
    const std::vector<VertexId>& mapping = ws->mapping();
    VertexId pivot = kInvalidVertex;
    for (const auto& b : backward) {
      const VertexId vb = mapping[b.u];
      if (pivot == kInvalidVertex || data->degree(vb) < data->degree(pivot)) {
        pivot = vb;
      }
    }
    for (VertexId v : data->neighbors(pivot)) {
      if (ws->Visited(v) || !ws->InCandidates(*candidates, u, v)) continue;
      bool adjacent_to_all = true;
      for (const auto& b : backward) {
        const VertexId vb = mapping[b.u];
        if (vb == pivot) continue;
        if (!data->HasEdge(vb, v)) {
          adjacent_to_all = false;
          break;
        }
      }
      if (!adjacent_to_all) continue;
      Descend(depth, u, v);
      if (Done()) return;
    }
  }

  void Descend(size_t depth, VertexId u, VertexId v) {
    ws->mapping()[u] = v;
    ws->MarkVisited(v);
    if (depth + 1 == order->size()) {
      ++num_matches;
    } else {
      Extend(depth + 1);
    }
    ws->UnmarkVisited(v);
    ws->mapping()[u] = kInvalidVertex;
  }
};

struct WorkloadCase {
  std::string name;
  uint32_t num_labels;
  double zipf;
  double scale;            // multiplies the base vertex count
  double avg_degree = 16.0;
  bool power_law = false;  // Chung-Lu hubs: cyclic queries, big hub slices
};

struct CaseResult {
  double probe_us_per_query = 0.0;
  double intersect_us_per_query = 0.0;  // auto kernel dispatch
  double scalar_us_per_query = 0.0;     // forced kScalar (the PR 3 baseline)
  double speedup = 0.0;                 // probe / auto
  double kernel_speedup = 0.0;          // forced-scalar / auto
  EnumWorkCounters accumulated;  // merged over the query set (auto kernel)
};

CaseResult RunCase(const WorkloadCase& c, const BenchOptions& opts,
                   bool smoke) {
  const uint32_t base = smoke ? 2000 : 32768;
  const uint32_t n =
      std::max(512u, static_cast<uint32_t>(base * c.scale));
  LabelConfig labels;
  labels.num_labels = c.num_labels;
  labels.zipf_exponent = c.zipf;
  Graph data =
      c.power_law
          ? MustOk(GeneratePowerLaw(n, c.avg_degree, 2.2, labels, opts.seed),
                   "generate")
          : MustOk(GenerateErdosRenyi(n, c.avg_degree, labels, opts.seed),
                   "generate");

  // Queries, candidates and orders are computed once and shared by both
  // sides; only the enumeration strategy differs.
  const uint32_t query_size = smoke ? 6 : 10;
  const uint32_t num_queries = smoke ? 3 : 8;
  QuerySampler sampler(&data, opts.seed + 3);
  std::vector<Graph> queries;
  std::vector<CandidateSet> css;
  std::vector<std::vector<VertexId>> orders;
  for (uint32_t i = 0; i < num_queries; ++i) {
    Graph q = MustOk(sampler.SampleQuery(query_size), "sample");
    CandidateSet cs = MustOk(LDFFilter().Filter(q, data), "filter");
    OrderingContext octx;
    octx.query = &q;
    octx.data = &data;
    octx.candidates = &cs;
    orders.push_back(MustOk(RIOrdering().MakeOrder(octx), "order"));
    queries.push_back(std::move(q));
    css.push_back(std::move(cs));
  }
  const uint64_t match_limit = opts.match_limit;

  CaseResult out;
  EnumeratorWorkspace ws;
  Enumerator enumerator;
  EnumerateOptions eopts;
  eopts.match_limit = match_limit;

  // Warm-up (grows workspace buffers) + correctness gate: both strategies
  // walk the identical recursion tree, so counts must agree exactly.
  std::vector<uint64_t> expected(num_queries);
  for (uint32_t i = 0; i < num_queries; ++i) {
    auto r = MustOk(
        enumerator.Run(queries[i], data, css[i], orders[i], eopts, &ws),
        "enumerate");
    expected[i] = r.num_matches;
    out.accumulated.Merge(r);
  }
  for (uint32_t i = 0; i < num_queries; ++i) {
    RLQVO_CHECK(ws.Prepare(queries[i], data, css[i], orders[i]).ok());
    ProbeEnumerator probe{&queries[i], &data, &css[i], &orders[i], &ws,
                          match_limit};
    probe.Extend(0);
    if (probe.num_matches != expected[i]) {
      std::fprintf(stderr,
                   "FATAL: probe/intersection mismatch on query %u "
                   "(%llu vs %llu)\n",
                   i, static_cast<unsigned long long>(probe.num_matches),
                   static_cast<unsigned long long>(expected[i]));
      std::exit(1);
    }
  }

  // Calibrate repetitions to ~0.3 s per side, then measure.
  auto run_intersection = [&] {
    for (uint32_t i = 0; i < num_queries; ++i) {
      auto r = MustOk(
          enumerator.Run(queries[i], data, css[i], orders[i], eopts, &ws),
          "enumerate");
      KeepAlive(&r);
    }
  };
  auto run_probe = [&] {
    for (uint32_t i = 0; i < num_queries; ++i) {
      RLQVO_CHECK(ws.Prepare(queries[i], data, css[i], orders[i]).ok());
      ProbeEnumerator probe{&queries[i], &data, &css[i], &orders[i], &ws,
                            match_limit};
      probe.Extend(0);
      KeepAlive(&probe.num_matches);
    }
  };
  Stopwatch calib;
  run_probe();
  const double once = std::max(1e-6, calib.ElapsedSeconds());
  const int reps = std::clamp(static_cast<int>(0.3 / once), 1, 500);

  Stopwatch pw;
  for (int r = 0; r < reps; ++r) run_probe();
  out.probe_us_per_query =
      pw.ElapsedSeconds() / (reps * num_queries) * 1e6;
  Stopwatch iw;
  for (int r = 0; r < reps; ++r) run_intersection();
  out.intersect_us_per_query =
      iw.ElapsedSeconds() / (reps * num_queries) * 1e6;
  out.speedup = out.probe_us_per_query / out.intersect_us_per_query;

  // Same enumeration under the forced scalar kernel — the PR 3 baseline —
  // with a fatal equality gate (kernel choice must not change results).
  RLQVO_CHECK(SetIntersectKernel(IntersectKernel::kScalar).ok());
  for (uint32_t i = 0; i < num_queries; ++i) {
    auto r = MustOk(
        enumerator.Run(queries[i], data, css[i], orders[i], eopts, &ws),
        "enumerate");
    if (r.num_matches != expected[i]) {
      std::fprintf(stderr,
                   "FATAL: scalar/auto kernel mismatch on query %u "
                   "(%llu vs %llu)\n",
                   i, static_cast<unsigned long long>(r.num_matches),
                   static_cast<unsigned long long>(expected[i]));
      std::exit(1);
    }
  }
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) run_intersection();
  out.scalar_us_per_query =
      sw.ElapsedSeconds() / (reps * num_queries) * 1e6;
  RLQVO_CHECK(SetIntersectKernel(IntersectKernel::kAuto).ok());
  out.kernel_speedup = out.scalar_us_per_query / out.intersect_us_per_query;
  return out;
}

// ---------------------------------------------------------------------------
// Part 3: forced-kernel comparison on hub-slice intersections.
// ---------------------------------------------------------------------------

/// Harvests the slice pairs where enumeration time concentrates: for the
/// highest-degree vertices, every label-aligned pair of their adjacency
/// slices (the exact inputs Extend feeds IntersectDispatch). Sorted by min
/// slice size descending, capped.
using SlicePair =
    std::pair<std::span<const VertexId>, std::span<const VertexId>>;
std::vector<SlicePair> HarvestHubPairs(const Graph& g, size_t max_pairs) {
  std::vector<VertexId> by_degree(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(),
            [&g](VertexId a, VertexId b) { return g.degree(a) > g.degree(b); });
  const size_t hubs = std::min<size_t>(48, by_degree.size());
  std::vector<SlicePair> pairs;
  for (size_t i = 0; i < hubs; ++i) {
    for (size_t j = i + 1; j < hubs; ++j) {
      const VertexId u = by_degree[i], v = by_degree[j];
      if (g.degenerate()) {
        for (Label l : g.NeighborLabels(u)) {
          const std::span<const VertexId> a = g.NeighborsWithLabel(u, l);
          const std::span<const VertexId> b = g.NeighborsWithLabel(v, l);
          if (a.empty() || b.empty()) continue;
          pairs.push_back({a, b});
        }
      } else {
        // Directed / edge-labeled graphs: align on the full (edge label,
        // vertex label) slice key, out-direction — what a directed Extend
        // intersects when two placed vertices constrain the same target.
        const size_t slices = g.NumLabeledSlices(u, EdgeDir::kOut);
        for (size_t s = 0; s < slices; ++s) {
          const Graph::LabeledSlice ls = g.LabeledSliceAt(u, EdgeDir::kOut, s);
          const std::span<const VertexId> a = ls.ids;
          const std::span<const VertexId> b =
              g.NeighborsWith(v, EdgeDir::kOut, ls.elabel, ls.vlabel);
          if (a.empty() || b.empty()) continue;
          pairs.push_back({a, b});
        }
      }
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return std::min(x.first.size(), x.second.size()) >
           std::min(y.first.size(), y.second.size());
  });
  if (pairs.size() > max_pairs) pairs.resize(max_pairs);
  return pairs;
}

void KernelMicrobench(std::vector<std::pair<std::string, double>>* metrics,
                      const BenchOptions& opts, bool smoke) {
  struct KernelConfig {
    std::string name;
    bool power_law;
    double avg_degree;
    uint32_t num_labels = 32;
    uint32_t num_edge_labels = 1;
    bool directed = false;
  };
  // The acceptance configurations: zipf-skewed labels over d=32 hubs
  // (dense slices — the shapes the SIMD kernels target) and the d=16
  // power-law hub case PR 3 measured.
  // Uniform-ish small slices (where every kernel is overhead-bound and
  // dispatch falls back to scalar) are covered by the Part 2 enumeration
  // table, not repeated here. The directed case runs the same dispatch on
  // (direction, edge label, vertex label) slices — fewer vertex labels so
  // the finer slice key still yields dense slices.
  const std::vector<KernelConfig> configs = {
      {"skewed", true, 32.0},
      {"powerlaw", true, 16.0},
      {"directed", true, 32.0, /*num_labels=*/8, /*num_edge_labels=*/4,
       /*directed=*/true},
  };
  std::printf("\n-- forced-kernel dispatch on hub-slice pairs (ns/op) --\n");
  std::printf("%10s %14s %12s %10s %10s\n", "config", "kernel", "ns/op",
              "vs scalar", "paths");
  for (const KernelConfig& cfg : configs) {
    const uint32_t n = smoke ? 4000 : 32768;
    LabelConfig labels;
    labels.num_labels = cfg.num_labels;
    labels.zipf_exponent = 1.2;
    labels.num_edge_labels = cfg.num_edge_labels;
    labels.directed = cfg.directed;
    Graph data =
        cfg.power_law
            ? MustOk(GeneratePowerLaw(n, cfg.avg_degree, 2.2, labels,
                                      opts.seed + 7),
                     "generate")
            : MustOk(GenerateErdosRenyi(n, cfg.avg_degree, labels,
                                        opts.seed + 7),
                     "generate");
    const auto pairs = HarvestHubPairs(data, smoke ? 48 : 160);
    if (pairs.empty()) continue;

    // Reference outputs (forced scalar) + fatal cross-kernel equality.
    RLQVO_CHECK(SetIntersectKernel(IntersectKernel::kScalar).ok());
    std::vector<std::vector<VertexId>> reference(pairs.size());
    uint64_t cmp = 0;
    for (size_t p = 0; p < pairs.size(); ++p) {
      IntersectDispatch(pairs[p].first, pairs[p].second, &reference[p], &cmp);
    }

    // Scalar first (it is the baseline every row is normalized against),
    // auto last so its row can carry the PASS verdict.
    std::vector<IntersectKernel> kernels = {IntersectKernel::kScalar};
    for (IntersectKernel k : {IntersectKernel::kSse, IntersectKernel::kAvx2}) {
      if (IntersectKernelSupported(k)) kernels.push_back(k);
    }
    kernels.push_back(IntersectKernel::kAuto);

    double scalar_ns = 0.0;
    for (IntersectKernel kernel : kernels) {
      RLQVO_CHECK(SetIntersectKernel(kernel).ok());
      std::vector<VertexId> out;
      uint64_t simd_paths = 0;
      for (size_t p = 0; p < pairs.size(); ++p) {
        const IntersectPath path =
            IntersectDispatch(pairs[p].first, pairs[p].second, &out, &cmp);
        if (path == IntersectPath::kSimdMerge ||
            path == IntersectPath::kSimdGallop) {
          ++simd_paths;
        }
        if (out != reference[p]) {
          std::fprintf(stderr, "FATAL: kernel %s output mismatch on pair %zu\n",
                       IntersectKernelName(kernel), p);
          std::exit(1);
        }
      }
      // Calibrate to ~0.2 s, then measure.
      Stopwatch calib;
      for (const auto& pr : pairs) {
        IntersectDispatch(pr.first, pr.second, &out, &cmp);
        KeepAlive(out.data());
      }
      const double once = std::max(1e-7, calib.ElapsedSeconds());
      const int reps = std::clamp(static_cast<int>(0.2 / once), 1, 20000);
      Stopwatch sw;
      for (int r = 0; r < reps; ++r) {
        for (const auto& pr : pairs) {
          IntersectDispatch(pr.first, pr.second, &out, &cmp);
          KeepAlive(out.data());
        }
      }
      const double ns_per_op =
          sw.ElapsedSeconds() / (static_cast<double>(reps) * pairs.size()) *
          1e9;
      if (kernel == IntersectKernel::kScalar) scalar_ns = ns_per_op;
      const double vs_scalar = scalar_ns > 0 ? scalar_ns / ns_per_op : 0.0;
      char paths[32];
      std::snprintf(paths, sizeof(paths), "s:%llu",
                    static_cast<unsigned long long>(simd_paths));
      std::printf("%10s %14s %12.1f %9.2fx %10s\n", cfg.name.c_str(),
                  IntersectKernelName(kernel), ns_per_op, vs_scalar, paths);
      metrics->emplace_back(
          "kernel_ns_" + cfg.name + "_" + IntersectKernelName(kernel),
          ns_per_op);
      metrics->emplace_back(
          "kernel_speedup_" + cfg.name + "_" + IntersectKernelName(kernel),
          vs_scalar);
      // The ISSUE 6 bar covers the two degenerate acceptance configs; the
      // directed config is informational (its finer slice key thins every
      // slice, so the kernels are overhead-bound at smoke scale).
      if (kernel == IntersectKernel::kAuto && !cfg.directed) {
        std::printf("%10s auto >= 2x scalar: %s\n", cfg.name.c_str(),
                    vs_scalar >= 2.0 ? "PASS" : "below bar");
      }
    }
    RLQVO_CHECK(SetIntersectKernel(IntersectKernel::kAuto).ok());
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = BenchOptions::FromArgs(argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  PrintBanner("Enumeration core: probe loop vs slice intersection", opts);
  if (smoke) std::printf("# --smoke: reduced sizes for CI\n");

  std::vector<std::pair<std::string, double>> metrics;
  CrossoverMicrobench(&metrics, smoke);

  // Label regimes x density scales. "skewed" (zipf 1.2 over 32 labels) is
  // the acceptance configuration: hub labels produce big slices that the
  // probe loop re-scans per pivot while intersections gallop through them.
  // The power-law case samples queries around Chung-Lu hubs, which makes
  // them cyclic (multi-backward depths) — the multi-way intersection path
  // at scale, not just the slice-scan path.
  // Skewed cases run denser (d=32): label skew concentrates both the
  // queries and the slices on hub labels, which is where the probe loop's
  // full-neighborhood rescans hurt most.
  const std::vector<WorkloadCase> cases = {
      {"uniform_s0.5", 32, 0.0, 0.5},
      {"uniform_s1.0", 32, 0.0, 1.0},
      {"skewed_s0.5", 32, 1.2, 0.5, 32.0},
      {"skewed_s1.0", 32, 1.2, 1.0, 32.0},
      {"fewlabels_s1.0", 4, 0.0, 1.0},
      {"powerlaw_s1.0", 32, 1.2, 1.0, 16.0, true},
  };
  std::printf("\n-- enumeration: probe vs scalar vs auto kernels (us/query) "
              "--\n");
  std::printf("%16s %10s %10s %10s %8s %8s %12s\n", "case", "probe", "scalar",
              "auto", "vs probe", "vs scal", "simd");
  double skewed_full_speedup = 0.0;
  for (const WorkloadCase& c : cases) {
    const CaseResult r = RunCase(c, opts, smoke);
    std::printf("%16s %10.1f %10.1f %10.1f %7.2fx %7.2fx %12llu\n",
                c.name.c_str(), r.probe_us_per_query, r.scalar_us_per_query,
                r.intersect_us_per_query, r.speedup, r.kernel_speedup,
                static_cast<unsigned long long>(
                    r.accumulated.num_simd_intersections));
    metrics.emplace_back("probe_us_" + c.name, r.probe_us_per_query);
    metrics.emplace_back("intersect_us_" + c.name, r.intersect_us_per_query);
    metrics.emplace_back("intersect_scalar_us_" + c.name,
                         r.scalar_us_per_query);
    metrics.emplace_back("speedup_" + c.name, r.speedup);
    metrics.emplace_back("enum_kernel_speedup_" + c.name, r.kernel_speedup);
    AppendEnumWorkMetrics(&metrics, c.name, r.accumulated);
    if (c.name == "skewed_s1.0") skewed_full_speedup = r.speedup;
  }

  metrics.emplace_back("skewed_s1_speedup", skewed_full_speedup);
  std::printf("skewed scale-1.0 speedup: %.2fx %s\n", skewed_full_speedup,
              skewed_full_speedup >= 2.0 ? "(PASS >= 2x)"
                                         : "(below 2x bar)");

  KernelMicrobench(&metrics, opts, smoke);

  WriteBenchJson(smoke ? "intersection_smoke" : "intersection", opts,
                 metrics);
  return 0;
}
