// Repository benchmark binary: three fixed-work workloads served through
// the public API, end to end (untraced pass) and layer by layer (traced
// pass). README.md in this directory documents the workloads, every metric
// and the host-noise findings behind the design.
//
//   perfbench --workload rlqvo_cold|directed_hot|hub_parallel --seed N
//             --seconds S --trace 0|1 --out-dir DIR
//             [--short] [--corrupt-expected]
//             [--git-sha SHA] [--source-digest HEX]
//
// Every run serves a fixed, seeded request list: the seed picks the cold
// workload's queries and every workload's request order; data graphs,
// training queries and the cycled query sets are fixed. The amount of work
// is derived from --seconds through a per-workload rate constant, never
// from a clock, so counts repeat exactly at one seed. Training and serving
// run with every time limit off. The last line of standard output is the
// result JSON; the exit code is 0 only when every served query passed the
// correctness gate (3 otherwise, 2 on a set-up error).
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/rlqvo.h"
#include "datasets/datasets.h"
#include "engine/candidate_cache.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/ordering.h"
#include "query/pattern.h"

namespace {

using namespace rlqvo;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

// ------------------------------------------------------------ host probes

double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
double ThreadCpu() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpu() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// Process user + system CPU seconds, as getrusage reports them.
double RusageCpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Resets VmHWM to the current RSS, so the next PeakRssMib covers only
/// what follows. Without it VmHWM is the whole process lifetime's peak,
/// which PPO training and input generation dominate.
void ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  if (!f) Die("cannot reset VmHWM through /proc/self/clear_refs");
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("VmHWM missing from /proc/self/status");
}

/// Host-wide CPU ticks from /proc/stat: total and hypervisor steal.
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTicks ReadCpuTicks() {
  std::ifstream f("/proc/stat");
  std::string tag;
  f >> tag;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // part of user).
  for (int i = 0; i < 8 && f; ++i) {
    uint64_t v = 0;
    f >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::max<size_t>(rank, 1) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  bool short_mode = false;
  bool corrupt_expected = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(value().c_str());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Die("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = value();
    } else if (flag == "--git-sha") {
      a.git_sha = value();
    } else if (flag == "--source-digest") {
      a.source_digest = value();
    } else if (flag == "--short") {
      a.short_mode = true;
    } else if (flag == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.out_dir.empty()) {
    Die("usage: perfbench --workload W --seed N --seconds S --trace 0|1 "
        "--out-dir DIR");
  }
  return a;
}

// -------------------------------------------------------------- workloads

enum class DataKind { kYeast, kDirectedEr, kPowerLaw };

/// One workload's fixed configuration. Sizes are chosen so that a run's
/// fixed work takes about --seconds on a 4-vCPU host; see README.md.
struct Spec {
  std::string name;
  DataKind data = DataKind::kYeast;
  double yeast_scale = 1.0;
  uint32_t data_vertices = 0;  // directed ER / power law
  double data_degree = 0.0;    // generator's avg_degree argument
  uint32_t vertex_labels = 0;
  uint32_t query_vertices = 0;
  uint32_t batch = 1;     // queries per MatchBatch request
  uint32_t set_size = 0;  // 0: every query is fresh (cold); else cycled set
  uint64_t match_limit = 100000;  // serving cap; 0 = full enumeration
  // Query selection, stratum by stratum: a query is kept when the serial
  // Hybrid reference's work units (recursive calls + intersection
  // comparisons + candidate scans, the enumerator's own cost model) fall
  // in the stratum's band. A stratum with count 0 takes every query the
  // workload needs.
  struct Stratum {
    uint64_t work_lo;
    uint64_t work_hi;
    uint32_t count;
  };
  std::vector<Stratum> strata;
  bool parallel = false;  // intra-query parallelism = engine workers
  bool parse = false;     // requests arrive as pattern text
  bool rl = false;        // RL-QVO engine (otherwise Hybrid: GQL + RI)
  double rate_qps = 0.0;  // timed queries = rate_qps * seconds
  uint32_t train_queries = 0;
  int train_epochs = 0;
  uint32_t warmup_requests = 0;  // cold workloads; cycled ones warm one cycle
  int setup_reps = 1;
  uint32_t trace_requests = 0;
};

// Every run serves at least this many requests, so at least ten lie
// beyond the printed p99.
constexpr uint32_t kMinRequests = 1000;

Spec MakeSpec(const std::string& name, bool short_mode) {
  Spec s;
  s.name = name;
  if (name == "rlqvo_cold") {
    s.data = DataKind::kYeast;
    s.yeast_scale = short_mode ? 0.2 : 1.0;
    s.query_vertices = short_mode ? 8 : 32;
    s.batch = short_mode ? 2 : 8;
    s.match_limit = 100000;
    s.strata = {{0, 60000, 0}};
    s.rl = true;
    s.rate_qps = short_mode ? 0.0 : 700.0;
    s.train_queries = short_mode ? 2 : 6;
    s.train_epochs = short_mode ? 1 : 2;
    s.warmup_requests = 4;
    s.setup_reps = short_mode ? 2 : 3;
    s.trace_requests = short_mode ? 8 : 40;
  } else if (name == "directed_hot") {
    s.data = DataKind::kDirectedEr;
    s.data_vertices = short_mode ? 800 : 4000;
    s.data_degree = 24.0;
    s.vertex_labels = 4;
    s.query_vertices = short_mode ? 6 : 8;
    s.batch = short_mode ? 4 : 128;
    s.set_size = short_mode ? 16 : 256;
    s.match_limit = 1000;
    s.strata = {{short_mode ? 1u : 3000u, short_mode ? 1000000u : 9000u, 0}};
    s.parse = true;
    s.rate_qps = short_mode ? 0.0 : 14000.0;
    s.train_queries = 4;
    s.train_epochs = 1;
    s.setup_reps = short_mode ? 3 : 5;
    s.trace_requests = short_mode ? 8 : 10;
  } else if (name == "hub_parallel") {
    s.data = DataKind::kPowerLaw;
    s.data_vertices = short_mode ? 400 : 1400;
    s.data_degree = 16.0;
    s.vertex_labels = 16;
    s.query_vertices = short_mode ? 5 : 7;
    s.batch = 1;
    s.set_size = short_mode ? 8 : 36;
    s.match_limit = 0;
    // Most queries are moderate; one in nine is about three times heavier,
    // so p50 falls inside the moderate stratum and p99 inside the heavy
    // one, each a population of several queries.
    s.strata = short_mode ? std::vector<Spec::Stratum>{{1, 20000, 7}, {20001, 100000, 1}}
                          : std::vector<Spec::Stratum>{{800000, 1200000, 32},
                                                       {2600000, 3200000, 4}};
    s.parallel = true;
    s.rate_qps = short_mode ? 0.0 : 280.0;
    s.train_queries = 4;
    s.train_epochs = 1;
    s.setup_reps = short_mode ? 3 : 5;
    s.trace_requests = short_mode ? 8 : 50;
  } else {
    Die("unknown workload '" + name +
        "' (expected rlqvo_cold, directed_hot or hub_parallel)");
  }
  return s;
}

Graph MakeDataGraph(const Spec& s) {
  // The data graphs are fixed per workload (constant generator seeds); the
  // run seed varies only the queries drawn from them.
  if (s.data == DataKind::kYeast) {
    return Must(BuildDataset(Must(FindDataset("yeast"), "dataset"),
                             s.yeast_scale),
                "yeast graph");
  }
  LabelConfig labels;
  labels.num_labels = s.vertex_labels;
  if (s.data == DataKind::kDirectedEr) {
    labels.zipf_exponent = 0.0;
    labels.num_edge_labels = 2;
    labels.directed = true;
    return Must(GenerateErdosRenyi(s.data_vertices, s.data_degree, labels, 7),
                "directed graph");
  }
  labels.zipf_exponent = 1.2;
  return Must(GeneratePowerLaw(s.data_vertices, s.data_degree, 2.2, labels, 7),
              "power-law graph");
}

/// Renders a query as pattern text that ParsePattern maps back to the same
/// graph: every vertex is declared first, in id order, with its raw label;
/// then one path per labeled edge.
std::string RenderPattern(const Graph& q) {
  std::string s;
  for (VertexId v = 0; v < q.num_vertices(); ++v) {
    if (v > 0) s += ", ";
    s += "(v" + std::to_string(v) + ":" + std::to_string(q.label(v)) + ")";
  }
  const char* arrow = q.directed() ? "]->(v" : "]-(v";
  q.ForEachLabeledEdge([&](VertexId u, VertexId v, EdgeLabel el) {
    s += ", (v" + std::to_string(u) + ")-[:" + std::to_string(el) + arrow +
         std::to_string(v) + ")";
  });
  return s;
}

/// One client call: the query ids it carries, and (for workloads that do
/// not parse) the prebuilt MatchBatch input.
struct Request {
  std::vector<uint32_t> ids;
  int prebuilt = -1;
};

struct Inputs {
  std::string graph_path;
  std::vector<Graph> train;
  std::vector<Graph> queries;  // distinct served queries
  std::vector<std::string> texts;
  std::vector<uint64_t> expected;  // reference match count per query
  std::vector<uint64_t> ref_enum;  // reference #enum per query
  std::vector<std::vector<Graph>> prebuilt;
  std::vector<Request> warmup;
  std::vector<Request> timed;
  uint32_t fingerprint_mismatches = 0;
};

/// Draws seeded candidate queries and runs the serial Hybrid reference on
/// them in chunks, keeping, stratum by stratum and in sampling order,
/// distinct queries whose reference work fits the stratum's band, until
/// `need` are kept. The reference counts are order-independent
/// (min(total, cap)), so they are the expected counts for any engine that
/// serves these queries. Full-enumeration workloads run each stratum under
/// a match cap of work_hi + 1: matches <= #enum <= work, so a query that
/// reaches the cap is out of the band, and every kept count is exact.
void SelectQueries(const Spec& s, const std::shared_ptr<const Graph>& data,
                   uint64_t seed, uint32_t need,
                   std::unordered_set<uint64_t>* seen, std::vector<Graph>* kept,
                   std::vector<uint64_t>* expected,
                   std::vector<uint64_t>* ref_enum) {
  EngineOptions ro;
  ro.num_threads = std::max(1u, static_cast<uint32_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  ro.candidate_cache_capacity = 0;
  ro.order_cache_capacity = 0;
  QuerySampler sampler(data.get(), seed);
  const uint64_t max_draws = 200ull * need + 1000;
  uint64_t draws = 0;
  for (const Spec::Stratum& band : s.strata) {
    EnumerateOptions eo;
    eo.match_limit = s.match_limit > 0 ? s.match_limit : band.work_hi + 1;
    auto reference = Must(MakeEngineByName("Hybrid", data, ro, eo), "reference");
    const size_t goal = std::min<size_t>(
        need, kept->size() + (band.count > 0 ? band.count : need));
    while (kept->size() < goal) {
      std::vector<Graph> chunk;
      const size_t chunk_size =
          std::clamp<size_t>(2 * (goal - kept->size()), 16, 256);
      while (chunk.size() < chunk_size && draws < max_draws) {
        ++draws;
        Graph q = Must(sampler.SampleQuery(s.query_vertices), "sample query");
        if (seen->insert(QueryFingerprint(q)).second) chunk.push_back(std::move(q));
      }
      if (chunk.empty()) {
        Die("query selection for " + s.name + " kept only " +
            std::to_string(kept->size()) + " of " + std::to_string(need));
      }
      const BatchResult r = Must(reference->MatchBatch(chunk), "reference pass");
      for (size_t i = 0; i < chunk.size() && kept->size() < goal; ++i) {
        const MatchRunStats& st = r.per_query[i];
        // A serial run's max_worker_work is its total work-unit count.
        if (!r.statuses[i].ok() || !st.solved ||
            (s.match_limit == 0 && st.hit_match_limit) ||
            st.max_worker_work < band.work_lo || st.max_worker_work > band.work_hi) {
          continue;
        }
        kept->push_back(std::move(chunk[i]));
        expected->push_back(st.num_matches);
        ref_enum->push_back(st.num_enumerations);
      }
    }
  }
}

Inputs MakeInputs(const Spec& s, const Args& a) {
  Inputs in;
  auto data = std::make_shared<const Graph>(MakeDataGraph(s));
  std::filesystem::create_directories(a.out_dir);
  in.graph_path = a.out_dir + "/" + s.name + (a.short_mode ? "-short" : "") +
                  "-" + std::to_string(getpid()) + ".graph";
  const Status saved = SaveGraphBinaryToFile(*data, in.graph_path);
  if (!saved.ok()) Die("write data graph: " + saved.ToString());

  const uint32_t timed_requests = std::max<uint32_t>(
      kMinRequests, static_cast<uint32_t>(std::ceil(
                        s.rate_qps * a.seconds / static_cast<double>(s.batch))));
  const bool cold = s.set_size == 0;
  const uint32_t served =
      cold ? (s.warmup_requests + timed_requests) * s.batch : s.set_size;
  // Training queries and cycled sets are drawn with a constant seed, so the
  // trained model and each set's latency percentiles are the same on every
  // run; cold workloads draw their served queries from the run seed, and
  // the run seed orders and batches every workload's requests.
  constexpr uint64_t kFixedDrawSeed = 0x5EED;
  std::unordered_set<uint64_t> seen;
  std::vector<uint64_t> unused;
  if (s.rl) {
    SelectQueries(s, data, kFixedDrawSeed, s.train_queries, &seen, &in.train,
                  &unused, &unused);
  }
  SelectQueries(s, data, cold ? a.seed : kFixedDrawSeed, served, &seen,
                &in.queries, &in.expected, &in.ref_enum);
  if (!s.rl) {
    // Hybrid workloads train only in the traced pass, as a probe of the
    // rl/ and nn/ layers on this workload's queries.
    for (uint32_t i = 0; i < s.train_queries && i < in.queries.size(); ++i) {
      in.train.push_back(in.queries[i]);
    }
  }

  // Pattern texts for every query; each must parse back to a graph with
  // the sampled query's fingerprint.
  for (const Graph& q : in.queries) {
    in.texts.push_back(RenderPattern(q));
    auto parsed = ParsePattern(in.texts.back());
    if (!parsed.ok() ||
        QueryFingerprint(parsed->query) != QueryFingerprint(q)) {
      ++in.fingerprint_mismatches;
    }
  }

  // Request lists. Cold: consecutive fresh queries, never repeated.
  // Cycled: each pass over the set is a fresh seeded shuffle cut into
  // batches, so every query is served once per cycle and batch
  // compositions vary between cycles.
  // Workloads that do not parse get their MatchBatch inputs built here:
  // one batch per query for single-query sets, else one per request.
  const bool per_query = !s.parse && !cold && s.batch == 1;
  if (per_query) {
    for (const Graph& q : in.queries) in.prebuilt.push_back({q});
  }
  auto add = [&](std::vector<Request>* out, std::vector<uint32_t> ids) {
    Request r{std::move(ids)};
    if (per_query) {
      r.prebuilt = static_cast<int>(r.ids[0]);
    } else if (!s.parse) {
      std::vector<Graph> b;
      for (uint32_t id : r.ids) b.push_back(in.queries[id]);
      in.prebuilt.push_back(std::move(b));
      r.prebuilt = static_cast<int>(in.prebuilt.size() - 1);
    }
    out->push_back(std::move(r));
  };
  if (cold) {
    uint32_t next = 0;
    auto take = [&] {
      std::vector<uint32_t> ids(s.batch);
      for (uint32_t& id : ids) id = next++;
      return ids;
    };
    for (uint32_t r = 0; r < s.warmup_requests; ++r) add(&in.warmup, take());
    for (uint32_t r = 0; r < timed_requests; ++r) add(&in.timed, take());
  } else {
    if (s.set_size % s.batch != 0) Die("set size must be a multiple of batch");
    Rng rng(a.seed * 0x9E3779B97F4A7C15ULL + 17);
    std::vector<uint32_t> order(s.set_size);
    auto cycle = [&](std::vector<Request>* out, uint32_t limit) {
      for (uint32_t i = 0; i < s.set_size; ++i) order[i] = i;
      for (uint32_t i = s.set_size; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      for (uint32_t b = 0; b < s.set_size / s.batch && out->size() < limit; ++b) {
        add(out, std::vector<uint32_t>(order.begin() + b * s.batch,
                                       order.begin() + (b + 1) * s.batch));
      }
    };
    cycle(&in.warmup, s.set_size / s.batch);
    while (in.timed.size() < timed_requests) cycle(&in.timed, timed_requests);
  }
  if (a.corrupt_expected) in.expected[in.timed.front().ids.front()] += 1;
  return in;
}

// ---------------------------------------------------------------- tracing

/// One span: a call into a layer, timed from outside. Spans stay in memory
/// and are written out when the traced pass ends.
struct Span {
  const char* name;
  int parent;        // index of the enclosing span, -1 at top level
  int64_t request;   // timed request the span belongs to, -1 for set-up
  double start = 0;  // seconds since the tracer started
  double end = 0;
  double thread_cpu = 0;  // CPU seconds of the calling thread inside
  double proc_cpu = 0;    // CPU seconds of the whole process inside
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; request -1 inherits the
  /// parent's request id.
  int Begin(const char* name, int64_t request = -1) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (request < 0 && parent >= 0) request = spans_[parent].request;
    Span sp{name, parent, request};
    sp.thread_cpu = ThreadCpu();
    sp.proc_cpu = ProcessCpu();
    sp.start = clock_.ElapsedSeconds();
    spans_.push_back(sp);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void End(int id) {
    Span& sp = spans_[id];
    sp.end = clock_.ElapsedSeconds();
    sp.thread_cpu = ThreadCpu() - sp.thread_cpu;
    sp.proc_cpu = ProcessCpu() - sp.proc_cpu;
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, int64_t request = -1)
      : t_(t), id_(t ? t->Begin(name, request) : -1) {}
  ~Scoped() {
    if (t_) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Runs fn() inside a span and returns the finished span.
template <typename Fn>
Span Call(Tracer* t, const char* name, Fn&& fn) {
  const int id = t->Begin(name);
  fn();
  t->End(id);
  return t->spans()[id];
}

// ---------------------------------------------------------------- serving

uint32_t Workers() {
  return std::max(1u, static_cast<uint32_t>(sysconf(_SC_NPROCESSORS_ONLN)) / 2);
}

EnumerateOptions ServingEnumOptions(const Spec& s) {
  EnumerateOptions eo;
  eo.match_limit = s.match_limit;
  eo.time_limit_seconds = 0.0;
  eo.parallel_threads = s.parallel ? Workers() : 0;
  return eo;
}

TrainConfig MakeTrainConfig(const Spec& s) {
  TrainConfig tc;
  tc.epochs = s.train_epochs;
  tc.max_train_seconds = 0.0;
  tc.train_time_limit_seconds = 0.0;
  return tc;
}

struct Serving {
  std::shared_ptr<const Graph> data;
  std::shared_ptr<RLQVOModel> model;
  std::shared_ptr<QueryEngine> engine;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t served_enum = 0;
  uint64_t ref_enum = 0;
};

/// Sends one request: parses its patterns when the workload takes text,
/// then one MatchBatch. Each query is checked against its expected count.
/// With a tracer, each call gets a span and the batch result is kept.
void Serve(const Spec& s, QueryEngine& engine, const Inputs& in,
           const Request& req, std::vector<Graph>* scratch, Tally* tally,
           Tracer* tracer = nullptr, BatchResult* traced = nullptr) {
  tally->attempted += req.ids.size();
  const std::vector<Graph>* batch = scratch;
  if (s.parse) {
    scratch->clear();
    for (uint32_t id : req.ids) {
      Scoped span(tracer, "query.parse");
      auto p = ParsePattern(in.texts[id]);
      if (!p.ok()) {
        tally->failed += req.ids.size();
        return;
      }
      scratch->push_back(std::move(p->query));
    }
  } else {
    batch = &in.prebuilt[req.prebuilt];
  }
  Result<BatchResult> r = [&] {
    Scoped span(tracer, "engine.match_batch");
    return engine.MatchBatch(*batch);
  }();
  if (!r.ok()) {
    tally->failed += req.ids.size();
    return;
  }
  for (size_t j = 0; j < req.ids.size(); ++j) {
    const uint32_t id = req.ids[j];
    const MatchRunStats& st = r->per_query[j];
    if (!r->statuses[j].ok() || !st.solved ||
        st.num_matches != in.expected[id]) {
      ++tally->failed;
      continue;
    }
    tally->served_enum += st.num_enumerations;
    tally->ref_enum += in.ref_enum[id];
  }
  if (traced) *traced = std::move(r).ValueOrDie();
}

/// Set-up, timed as setup_s: load the data graph from the binary file,
/// train (RL-QVO), build the engine, serve one warm-up cycle.
Serving SetUp(const Spec& s, const Inputs& in, Tally* warmup,
              Tracer* tracer = nullptr) {
  Scoped setup(tracer, "setup");
  Serving sv;
  {
    Scoped span(tracer, "graph.load");
    sv.data = std::make_shared<const Graph>(
        Must(LoadGraphBinaryFromFile(in.graph_path), "load data graph"));
  }
  EngineOptions eo;
  eo.num_threads = Workers();
  eo.candidate_cache_capacity = std::max<size_t>(256, in.queries.size());
  eo.order_cache_capacity = eo.candidate_cache_capacity;
  if (s.rl) {
    sv.model = std::make_shared<RLQVOModel>();
    {
      Scoped span(tracer, "train");
      Must(sv.model->Train(in.train, *sv.data, MakeTrainConfig(s)), "train");
    }
    Scoped span(tracer, "engine.build");
    sv.engine = Must(sv.model->MakeEngine(sv.data, eo, ServingEnumOptions(s)),
                     "RL-QVO engine");
  } else {
    Scoped span(tracer, "engine.build");
    sv.engine = Must(
        MakeEngineByName("Hybrid", sv.data, eo, ServingEnumOptions(s)),
        "Hybrid engine");
  }
  Scoped span(tracer, "warmup");
  std::vector<Graph> scratch;
  for (const Request& r : in.warmup) Serve(s, *sv.engine, in, r, &scratch, warmup);
  return sv;
}

struct TimedPass {
  std::vector<double> latency_s;  // per request, in request order
  double wall_s = 0;
  double cpu_s = 0;
  double steal_share = 0;
  double peak_rss_mib = 0;
  Tally tally;
};

/// The untraced, timed phase: a closed loop, one request outstanding.
TimedPass RunTimed(const Spec& s, const Inputs& in, Serving& sv) {
  TimedPass p;
  p.latency_s.reserve(in.timed.size());
  std::vector<Graph> scratch;
  ResetPeakRss();
  const CpuTicks t0 = ReadCpuTicks();
  const double cpu0 = RusageCpu();
  Stopwatch wall;
  for (const Request& r : in.timed) {
    Stopwatch req;
    Serve(s, *sv.engine, in, r, &scratch, &p.tally);
    p.latency_s.push_back(req.ElapsedSeconds());
  }
  p.wall_s = wall.ElapsedSeconds();
  p.cpu_s = RusageCpu() - cpu0;

  const CpuTicks t1 = ReadCpuTicks();
  p.peak_rss_mib = PeakRssMib();
  p.steal_share = Ratio(static_cast<double>(t1.steal - t0.steal),
                        static_cast<double>(t1.total - t0.total));
  return p;
}

// ------------------------------------------------------------ traced pass

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Work counters gathered by the traced pass; times come from the spans.
struct Probe {
  uint64_t queries = 0, query_vertices = 0, candidates = 0, fallbacks = 0;
  uint64_t enums = 0, matches = 0;
  uint64_t intersections = 0, comparisons = 0, simd = 0, bitmap = 0;
  uint64_t local_total = 0, local_sets = 0;
  uint64_t steals = 0, splits = 0, max_depth = 0, min_work = 0, max_work = 0;
  uint64_t cache_hits = 0, cache_lookups = 0;
  uint64_t order_hits = 0, order_lookups = 0;
  double engine_busy = 0;  // engine-reported per-query seconds
  double phases_cpu = 0;   // direct-call CPU of the phases the engine ran
  double untraced_requests = 0;  // wall seconds of the same requests
  uint64_t failures = 0;
};

/// Per span name: count, totals, and self time (minus direct children).
struct SpanTotals {
  uint64_t count = 0;
  double wall = 0, thread_cpu = 0, proc_cpu = 0;
  double self_wall = 0, self_thread_cpu = 0, self_proc_cpu = 0;
};

std::vector<std::pair<std::string, SpanTotals>> Aggregate(
    const std::vector<Span>& spans) {
  std::vector<SpanTotals> children(spans.size());
  for (const Span& sp : spans) {
    if (sp.parent < 0) continue;
    children[sp.parent].wall += sp.end - sp.start;
    children[sp.parent].thread_cpu += sp.thread_cpu;
    children[sp.parent].proc_cpu += sp.proc_cpu;
  }
  std::vector<std::pair<std::string, SpanTotals>> out;  // first-seen order
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    auto [it, fresh] = index.emplace(sp.name, out.size());
    if (fresh) out.emplace_back(sp.name, SpanTotals{});
    SpanTotals& t = out[it->second].second;
    ++t.count;
    t.wall += sp.end - sp.start;
    t.thread_cpu += sp.thread_cpu;
    t.proc_cpu += sp.proc_cpu;
    t.self_wall += sp.end - sp.start - children[i].wall;
    t.self_thread_cpu += sp.thread_cpu - children[i].thread_cpu;
    t.self_proc_cpu += sp.proc_cpu - children[i].proc_cpu;
  }
  return out;
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream f(path);
  char line[512];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"request\": %lld, \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"wall_us\": %.3f, \"thread_cpu_us\": %.3f, "
                  "\"proc_cpu_us\": %.3f}\n",
                  i, sp.name, sp.parent, static_cast<long long>(sp.request),
                  sp.start * 1e6, sp.end * 1e6, (sp.end - sp.start) * 1e6,
                  sp.thread_cpu * 1e6, sp.proc_cpu * 1e6);
    f << line;
  }
  f.flush();
  if (!f) Die("cannot write spans to " + path);
}

/// The traced pass: one traced set-up, then the first trace_requests timed
/// requests. Each request is served through the engine inside a "request"
/// span (the same calls the untraced pass made); then every query it
/// carried is run through the layers directly, in pipeline order — parse,
/// filter, order, workspace prepare, serial Run, RunParallel — each call in
/// its own span under a "probe" span.
std::vector<Metric> RunTraced(const Spec& s, const Inputs& in,
                              const TimedPass& untraced, const Args& a,
                              uint64_t* failures) {
  Tracer tracer;
  Tally warm;
  const Serving sv = SetUp(s, in, &warm, &tracer);
  *failures += warm.failed;
  if (!s.rl) {
    // Hybrid workloads serve no model: train a probe model on a few of the
    // workload's queries so that rl/ and nn/ are timed here too.
    RLQVOModel probe_model;
    Scoped span(&tracer, "train");
    Must(probe_model.Train(in.train, *sv.data, MakeTrainConfig(s)),
         "probe training");
  }
  const Graph& data = *sv.data;
  const auto filter = Must(MakeFilter("GQL"), "filter");
  const std::shared_ptr<Ordering> ordering =
      s.rl ? sv.model->MakeOrdering() : std::make_shared<RIOrdering>();
  const auto* rl_ordering = dynamic_cast<const RLQVOOrdering*>(ordering.get());
  EnumerateOptions serial_opts = ServingEnumOptions(s);
  serial_opts.parallel_threads = 0;
  EnumerateOptions par_opts = serial_opts;
  par_opts.parallel_threads = Workers();
  ThreadPool pool(Workers());
  std::vector<EnumeratorWorkspace> pool_ws(pool.size());
  EnumeratorWorkspace ws;
  EnumeratorWorkspace caller_ws;
  ParallelEnumResources resources;
  resources.pool = &pool;
  resources.worker_workspaces = &pool_ws;
  resources.caller_workspace = &caller_ws;
  const Enumerator enumerator;

  Probe pr;
  std::vector<Graph> scratch;
  const size_t n = std::min<size_t>(s.trace_requests, in.timed.size());
  for (size_t ri = 0; ri < n; ++ri) {
    const Request& req = in.timed[ri];
    const auto rid = static_cast<int64_t>(ri);
    Tally tally;
    BatchResult br;
    {
      Scoped request(&tracer, "request", rid);
      Serve(s, *sv.engine, in, req, &scratch, &tally, &tracer, &br);
    }
    pr.untraced_requests += untraced.latency_s[ri];
    pr.failures += tally.failed;
    pr.cache_hits += br.cache_hits;
    pr.cache_lookups += br.cache_hits + br.cache_misses;
    pr.order_hits += br.order_cache_hits;
    pr.order_lookups += br.order_cache_hits + br.order_cache_misses;
    for (const MatchRunStats& q : br.per_query) {
      pr.engine_busy += q.total_time_seconds;
    }
    // Share of this batch's queries the engine filtered (cache misses).
    const double filtered =
        Ratio(static_cast<double>(br.cache_misses),
              static_cast<double>(br.cache_hits + br.cache_misses));

    Scoped probe(&tracer, "probe", rid);
    for (size_t j = 0; j < req.ids.size(); ++j) {
      const uint32_t id = req.ids[j];
      const Graph& q = in.queries[id];
      if (!s.parse) {
        Call(&tracer, "query.parse", [&] {
          if (!ParsePattern(in.texts[id]).ok()) ++pr.failures;
        });
      }
      CandidateSet cands;
      const Span f = Call(&tracer, "filter", [&] {
        cands = Must(filter->Filter(q, data), "filter");
      });
      const uint64_t fallbacks = rl_ordering ? rl_ordering->fallback_count() : 0;
      std::vector<VertexId> order;
      const Span o = Call(&tracer, "order", [&] {
        OrderingContext ctx;
        ctx.query = &q;
        ctx.data = &data;
        ctx.candidates = &cands;
        order = Must(ordering->MakeOrder(ctx), "order");
      });
      if (rl_ordering) pr.fallbacks += rl_ordering->fallback_count() - fallbacks;
      Call(&tracer, "enumerate.prepare", [&] {
        const Status ok = ws.Prepare(q, data, cands, order);
        if (!ok.ok()) Die("prepare: " + ok.ToString());
      });
      EnumerateResult er;
      const Span e = Call(&tracer, "enumerate.run", [&] {
        er = Must(enumerator.Run(q, data, cands, order, serial_opts, &ws),
                  "enumerate");
      });
      EnumerateResult pe;
      const Span p = Call(&tracer, "scheduler.run_parallel", [&] {
        pe = Must(enumerator.RunParallel(q, data, cands, order, par_opts,
                                         resources),
                  "parallel enumerate");
      });
      if (er.num_matches != in.expected[id] ||
          pe.num_matches != in.expected[id]) {
        ++pr.failures;
      }
      const bool order_hit =
          j < br.per_query.size() && br.per_query[j].order_cache_hit;
      pr.phases_cpu += f.thread_cpu * filtered +
                       (order_hit ? 0.0 : o.thread_cpu) +
                       (s.parallel ? p.proc_cpu : e.thread_cpu);
      ++pr.queries;
      pr.query_vertices += q.num_vertices();
      pr.candidates += cands.TotalSize();
      pr.enums += er.num_enumerations;
      pr.matches += er.num_matches;
      pr.intersections += er.num_intersections;
      pr.comparisons += er.num_probe_comparisons;
      pr.simd += er.num_simd_intersections;
      pr.bitmap += er.num_bitmap_intersections;
      pr.local_total += er.local_candidates_total;
      pr.local_sets += er.local_candidate_sets;
      pr.steals += pe.num_steals;
      pr.splits += pe.num_splits;
      pr.max_depth = std::max<uint64_t>(pr.max_depth, pe.max_segment_depth);
      pr.min_work += pe.min_worker_work;
      pr.max_work += pe.max_worker_work;
    }
  }
  *failures += pr.failures;

  const std::string spans_path = a.out_dir + "/spans-" + s.name + "-seed" +
                                 std::to_string(a.seed) + ".jsonl";
  WriteSpans(tracer.spans(), spans_path);
  std::map<std::string, SpanTotals> t;
  std::printf("\nper-layer trace: %s, seed %llu, %zu requests, %llu queries "
              "(spans in %s)\n",
              s.name.c_str(), static_cast<unsigned long long>(a.seed), n,
              static_cast<unsigned long long>(pr.queries), spans_path.c_str());
  std::printf("%-24s %8s %12s %12s %16s %16s\n", "span", "count", "wall_ms",
              "self_ms", "self_thread_cpu", "self_proc_cpu");
  for (const auto& [name, tot] : Aggregate(tracer.spans())) {
    t[name] = tot;
    std::printf("%-24s %8llu %12.3f %12.3f %16.3f %16.3f\n", name.c_str(),
                static_cast<unsigned long long>(tot.count), tot.wall * 1e3,
                tot.self_wall * 1e3, tot.self_thread_cpu * 1e3,
                tot.self_proc_cpu * 1e3);
  }
  std::printf("counts: #enum %llu, matches %llu, intersections %llu, "
              "comparisons %llu, steals %llu, splits %llu\n",
              static_cast<unsigned long long>(pr.enums),
              static_cast<unsigned long long>(pr.matches),
              static_cast<unsigned long long>(pr.intersections),
              static_cast<unsigned long long>(pr.comparisons),
              static_cast<unsigned long long>(pr.steals),
              static_cast<unsigned long long>(pr.splits));
  const double slowdown = Ratio(t["request"].wall, pr.untraced_requests);
  std::printf("tracing overhead: the traced requests took %.4fx the untraced "
              "wall time of the same requests (%+.2f%%)\n",
              slowdown, (slowdown - 1.0) * 100.0);

  auto mean_us = [&](const char* name, double SpanTotals::*field) {
    return Ratio(t[name].*field * 1e6, static_cast<double>(t[name].count));
  };
  const double q = static_cast<double>(pr.queries);
  const SpanTotals& run = t["enumerate.run"];
  const SpanTotals& par = t["scheduler.run_parallel"];
  const SpanTotals& engine = t["engine.match_batch"];
  const EnumeratorWorkspace::Stats& wss = ws.stats();
  constexpr double kMiB = 1 << 20;
  return {
      {"graph.load_s", t["graph.load"].wall, "s"},
      {"graph.mib", static_cast<double>(data.MemoryFootprintBytes()) / kMiB, "MiB"},
      {"train.s", t["train"].wall, "s"},
      {"train.cpu_s", t["train"].thread_cpu, "s"},
      {"query.parse_us", mean_us("query.parse", &SpanTotals::wall), "us"},
      {"query.parse_cpu_us", mean_us("query.parse", &SpanTotals::thread_cpu), "us"},
      {"engine.cand_hit_rate", Ratio(pr.cache_hits, pr.cache_lookups), "ratio"},
      {"engine.order_hit_rate", Ratio(pr.order_hits, pr.order_lookups), "ratio"},
      {"engine.busy_share", Ratio(pr.engine_busy, engine.wall * Workers()), "ratio"},
      {"engine.overhead_cpu_us", (engine.proc_cpu - pr.phases_cpu) * 1e6 / q, "us"},
      {"filter.us", mean_us("filter", &SpanTotals::wall), "us"},
      {"filter.cpu_us", mean_us("filter", &SpanTotals::thread_cpu), "us"},
      {"filter.cands_per_vertex", Ratio(pr.candidates, pr.query_vertices), "count"},
      {"order.us", mean_us("order", &SpanTotals::wall), "us"},
      {"order.cpu_us", mean_us("order", &SpanTotals::thread_cpu), "us"},
      {"order.fallback_share", pr.fallbacks / q, "ratio"},
      {"enumerate.setup_us", mean_us("enumerate.prepare", &SpanTotals::wall), "us"},
      {"enumerate.dense_share", Ratio(wss.dense_prepares, wss.prepares), "ratio"},
      {"enumerate.us", mean_us("enumerate.run", &SpanTotals::wall), "us"},
      {"enumerate.cpu_us", mean_us("enumerate.run", &SpanTotals::thread_cpu), "us"},
      {"enumerate.calls_per_us", Ratio(pr.enums, run.wall * 1e6), "calls/us"},
      {"enumerate.matches_per_call", Ratio(pr.matches, pr.enums), "ratio"},
      {"intersect.per_query", pr.intersections / q, "count"},
      {"intersect.cmp_per_intersection", Ratio(pr.comparisons, pr.intersections), "count"},
      {"intersect.avg_local_cands", Ratio(pr.local_total, pr.local_sets), "count"},
      {"intersect.simd_share", Ratio(pr.simd, pr.intersections), "ratio"},
      {"intersect.bitmap_share", Ratio(pr.bitmap, pr.intersections), "ratio"},
      {"scheduler.speedup", Ratio(run.wall, par.wall), "x"},
      {"scheduler.cpu_overhead", Ratio(par.proc_cpu, run.thread_cpu), "x"},
      {"scheduler.steals_per_query", pr.steals / q, "count"},
      {"scheduler.splits_per_query", pr.splits / q, "count"},
      {"scheduler.max_segment_depth", static_cast<double>(pr.max_depth), "count"},
      {"scheduler.work_spread", Ratio(pr.max_work, pr.min_work), "x"},
      {"trace.request_slowdown", slowdown, "x"},
  };
}

// ----------------------------------------------------------------- output

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  const Spec s = MakeSpec(a.workload, a.short_mode);
  Stopwatch prep;
  const Inputs in = MakeInputs(s, a);
  const double prep_s = prep.ElapsedSeconds();
  uint64_t gate_failures = in.fingerprint_mismatches;

  // Set-up is repeated setup_reps times on the same inputs; setup_s and
  // setup_peak_rss_mib are medians. Each repetition starts from nothing.
  std::vector<double> setup_s, setup_rss;
  Serving sv;
  for (int rep = 0; rep < s.setup_reps; ++rep) {
    sv = Serving{};
    Tally warm;
    ResetPeakRss();
    Stopwatch w;
    sv = SetUp(s, in, &warm);
    setup_s.push_back(w.ElapsedSeconds());
    setup_rss.push_back(PeakRssMib());
    gate_failures += warm.failed;
  }

  const TimedPass p = RunTimed(s, in, sv);
  sv = Serving{};
  const Tally& t = p.tally;
  std::vector<double> lat = p.latency_s;
  std::sort(lat.begin(), lat.end());
  const double queries = static_cast<double>(t.attempted);
  std::vector<Metric> e2e = {
      {"qps", queries / p.wall_s, "queries/s"},
      {"latency_p50_ms", Percentile(lat, 50) * 1e3, "ms"},
      {"cpu_ms_per_query", p.cpu_s * 1e3 / queries, "ms"},
      {"enum_per_query", Ratio(t.served_enum, t.attempted - t.failed), "calls"},
      {"enum_vs_reference", Ratio(t.served_enum, t.ref_enum), "ratio"},
      {"ok_share", (queries - static_cast<double>(t.failed)) / queries, "ratio"},
      {"setup_s", Median(setup_s), "s"},
      {"setup_peak_rss_mib", Median(setup_rss), "MiB"},
      {"peak_rss_mib", p.peak_rss_mib, "MiB"},
  };
  gate_failures += t.failed;

  std::vector<Metric> layers;
  if (a.trace) layers = RunTraced(s, in, p, a, &gate_failures);
  std::filesystem::remove(in.graph_path);

  const bool correct = gate_failures == 0;
#ifdef NDEBUG
  const char* assertions = "off";
#else
  const char* assertions = "on";
#endif
  std::printf(
      "\nrun_record {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"short\": %s, \"git_sha\": \"%s\", \"source_digest\": \"%s\", "
      "\"nproc\": %ld, \"workers\": %u, \"build_type\": \"%s\", "
      "\"assertions\": \"%s\", \"intersect_kernel\": \"%s\", "
      "\"steal_share\": %.4f, \"requests\": %zu, \"queries\": %llu, "
      "\"inputs_s\": %.3f, \"timed_wall_s\": %.3f}\n",
      s.name.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.short_mode ? "true" : "false", JsonEscape(a.git_sha).c_str(),
      JsonEscape(a.source_digest).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
      Workers(), PERFBENCH_BUILD_TYPE, assertions,
      IntersectKernelName(GetIntersectKernel()), p.steal_share,
      p.latency_s.size(), static_cast<unsigned long long>(t.attempted),
      prep_s, p.wall_s);
  std::printf("gate: %s (%llu failures: %llu timed queries, %u fingerprint "
              "mismatches, rest warm-up or traced checks)\n",
              correct ? "PASS" : "FAIL",
              static_cast<unsigned long long>(gate_failures),
              static_cast<unsigned long long>(t.failed),
              in.fingerprint_mismatches);
  for (const Metric& m : e2e) {
    std::printf("metric %-24s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // p99 is printed but carries no bound: hypervisor stalls of ~10 ms land
  // on several percent of requests once steal passes ~2 %, so the tail
  // moves with the host, not the program (README.md, "Host noise").
  std::printf("info   %-24s %16.6f ms (%zu requests, %zu beyond it)\n",
              "latency_p99_ms", Percentile(lat, 99) * 1e3, lat.size(),
              lat.size() - static_cast<size_t>(std::ceil(0.99 * lat.size())));
  for (const Metric& m : layers) {
    std::printf("layer  %-32s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(t.attempted) +
                     ", \"failed\": " + std::to_string(gate_failures) +
                     ", \"metrics\": {";
  const std::vector<Metric>& out = a.trace ? layers : e2e;
  for (size_t i = 0; i < out.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + Num(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}
