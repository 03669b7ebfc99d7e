// Batch serving demo: stand up a QueryEngine over a shared data graph and
// serve waves of concurrent pattern queries through MatchBatch — the
// query-serving layer a production deployment would put behind an RPC
// front-end.
//
//   ./build/examples/batch_serve [num_threads]
//   ./build/examples/batch_serve --pattern '(a:0)--(b:1), (b)--(c:0)'
//   ./build/examples/batch_serve --list-failpoints
//
// Wave 1 is all cache misses (every query is filtered); wave 2 repeats the
// workload and is served almost entirely from the LRU candidate cache.
//
// The binary is also the chaos-CI driver: `--list-failpoints` prints every
// registered failpoint site (one per line), and running under
// RLQVO_FAILPOINTS=<site>=<mode> exercises the serving stack with that
// fault injected — per-query failures land in the batch statuses (printed
// as "failed" below) while the process and the other queries stay healthy.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "core/rlqvo.h"
#include "datasets/datasets.h"
#include "graph/query_sampler.h"
#include "query/pattern.h"

using namespace rlqvo;

int main(int argc, char** argv) {
  uint32_t num_threads = 4;
  // Text pattern served as a final wave (overridable with --pattern).
  std::string pattern_text =
      "(a:ProteinA)--(b:ProteinB), (b)--(c:ProteinA)";
  if (argc > 1) {
    if (std::strcmp(argv[1], "--list-failpoints") == 0) {
      for (std::string_view site : failpoint::AllSites()) {
        std::printf("%.*s\n", static_cast<int>(site.size()), site.data());
      }
      return 0;
    }
    if (std::strcmp(argv[1], "--pattern") == 0) {
      if (argc < 3) {
        std::fprintf(stderr, "usage: batch_serve --pattern '<pattern>'\n");
        return 2;
      }
      pattern_text = argv[2];
    } else {
      const int parsed = std::atoi(argv[1]);
      if (parsed < 1) {
        std::fprintf(stderr,
                     "usage: batch_serve [num_threads >= 1 | --pattern "
                     "'<pattern>' | --list-failpoints]\n");
        return 2;
      }
      num_threads = static_cast<uint32_t>(parsed);
    }
  }

  // --- The shared data graph: the emulated yeast PPI network. ---
  DatasetSpec spec = FindDataset("yeast").ValueOrDie();
  auto data = std::make_shared<const Graph>(
      BuildDataset(spec, /*scale=*/0.3).ValueOrDie());
  std::printf("data graph: %s\n", data->ToString().c_str());

  // --- A workload of 32 pattern queries (8 distinct, repeated 4x). ---
  QuerySampler sampler(data.get(), /*seed=*/11);
  std::vector<Graph> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(sampler.SampleQuery(6).ValueOrDie());
  }
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < 8; ++i) queries.push_back(queries[i]);
  }

  // --- The engine: Hybrid (GQL filter + RI order), N workers, LRU cache.
  EngineOptions engine_options;
  engine_options.num_threads = num_threads;
  engine_options.candidate_cache_capacity = 64;
  EnumerateOptions enum_options;
  enum_options.match_limit = 100000;
  enum_options.time_limit_seconds = 5.0;  // per-query deadline
  auto engine =
      MakeEngineByName("Hybrid", data, engine_options, enum_options)
          .ValueOrDie();
  std::printf("engine: %s, %u worker threads, cache capacity %zu\n\n",
              engine->name().c_str(), engine->num_threads(),
              engine_options.candidate_cache_capacity);

  for (int wave = 1; wave <= 2; ++wave) {
    BatchResult batch = engine->MatchBatch(queries).ValueOrDie();
    std::printf("wave %d: %zu queries in %.3f s (%.1f q/s)\n", wave,
                queries.size(), batch.wall_seconds,
                queries.size() / batch.wall_seconds);
    std::printf("        %llu total matches, %u failed, %u unsolved, "
                "cache %llu hits / %llu misses\n",
                static_cast<unsigned long long>(batch.totals.num_matches),
                batch.failed, batch.unsolved,
                static_cast<unsigned long long>(batch.cache_hits),
                static_cast<unsigned long long>(batch.cache_misses));
  }

  // --- Per-query deadlines: give one query an unmeetable budget. ---
  BatchOptions strict;
  strict.per_query.assign(queries.size(), enum_options);
  strict.per_query[0].time_limit_seconds = 1e-9;
  BatchResult batch = engine->MatchBatch(queries, strict).ValueOrDie();
  std::printf("\nstrict wave: query 0 %s under a 1 ns deadline, "
              "%u of %zu unsolved\n",
              batch.per_query[0].solved ? "SOLVED?!" : "timed out",
              batch.unsolved, queries.size());

  // --- Text pattern front end: the same engine serves parsed patterns. ---
  PatternOptions pattern_options;
  pattern_options.vertex_labels = {{"ProteinA", 0}, {"ProteinB", 1}};
  pattern_options.edge_labels = {{"BINDS", 0}};
  auto parsed = ParsePattern(pattern_text, pattern_options);
  if (!parsed.ok()) {
    std::fprintf(stderr, "pattern: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const ParsedPattern& pattern = parsed.ValueOrDie();
  std::vector<Graph> pattern_queries;
  pattern_queries.push_back(pattern.query);
  BatchResult pattern_batch = engine->MatchBatch(pattern_queries).ValueOrDie();
  std::printf("\npattern wave: \"%s\"\n", pattern_text.c_str());
  std::printf("        %zu query vertices, %llu matches in %.3f s\n",
              static_cast<size_t>(pattern.query.num_vertices()),
              static_cast<unsigned long long>(pattern_batch.totals.num_matches),
              pattern_batch.wall_seconds);

  const EngineCounters counters = engine->counters();
  std::printf("\nlifetime: %llu queries over %llu batches "
              "(%llu queries / %llu batches shed); "
              "cache %llu hits / %llu misses / %llu evictions\n",
              static_cast<unsigned long long>(counters.queries_served),
              static_cast<unsigned long long>(counters.batches_served),
              static_cast<unsigned long long>(counters.queries_shed),
              static_cast<unsigned long long>(counters.batches_shed),
              static_cast<unsigned long long>(counters.cache.hits),
              static_cast<unsigned long long>(counters.cache.misses),
              static_cast<unsigned long long>(counters.cache.evictions));
  return 0;
}
