// Directed / edge-labeled equivalence suite: the production pipeline
// (filter + ordering + enumerator, across every intersection kernel and
// thread count) must produce exactly the embedding set of an independent
// reference matcher that knows nothing about CSR slices or backward
// constraints — it checks mappings against flat edge sets only.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/matcher.h"
#include "matching/ordering.h"

namespace rlqvo {
namespace {

using EdgeKey = std::tuple<VertexId, VertexId, EdgeLabel>;

/// Flat labeled edge set of g as (from, to, elabel) triples. Undirected
/// edges are inserted in both orders, so containment is a direction-free
/// test for them and an exact directed test otherwise.
std::set<EdgeKey> EdgeSet(const Graph& g) {
  std::set<EdgeKey> edges;
  g.ForEachLabeledEdge([&](VertexId u, VertexId v, EdgeLabel e) {
    edges.insert({u, v, e});
    if (!g.directed()) edges.insert({v, u, e});
  });
  return edges;
}

void ReferenceExtend(const Graph& query, const Graph& data,
                     const std::vector<EdgeKey>& query_edges,
                     const std::set<EdgeKey>& data_edges, VertexId u,
                     std::vector<VertexId>* mapping,
                     std::vector<bool>* used,
                     std::set<std::vector<VertexId>>* out) {
  if (u == query.num_vertices()) {
    out->insert(*mapping);
    return;
  }
  for (VertexId v = 0; v < data.num_vertices(); ++v) {
    if ((*used)[v] || data.label(v) != query.label(u)) continue;
    bool ok = true;
    for (const auto& [a, b, e] : query_edges) {
      // Only edges whose endpoints are both mapped once u -> v is added.
      const VertexId ma = a == u ? v : (a < u ? (*mapping)[a] : kInvalidVertex);
      const VertexId mb = b == u ? v : (b < u ? (*mapping)[b] : kInvalidVertex);
      if (ma == kInvalidVertex || mb == kInvalidVertex) continue;
      if (!data_edges.contains({ma, mb, e})) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    (*mapping)[u] = v;
    (*used)[v] = true;
    ReferenceExtend(query, data, query_edges, data_edges, u + 1, mapping,
                    used, out);
    (*mapping)[u] = kInvalidVertex;
    (*used)[v] = false;
  }
}

/// Ground truth: every injective, label-preserving mapping under which each
/// labeled query edge (with its direction, when the query is directed) has a
/// matching data edge. A directed query edge never matches an undirected
/// data edge set's missing orientation, and vice versa, because EdgeSet
/// closes undirected graphs symmetrically and leaves directed ones exact.
std::set<std::vector<VertexId>> ReferenceMatch(const Graph& query,
                                               const Graph& data) {
  std::vector<EdgeKey> query_edges;
  query.ForEachLabeledEdge([&](VertexId u, VertexId v, EdgeLabel e) {
    query_edges.push_back({u, v, e});
    if (!query.directed()) query_edges.push_back({v, u, e});
  });
  const std::set<EdgeKey> data_edges = EdgeSet(data);
  std::set<std::vector<VertexId>> out;
  std::vector<VertexId> mapping(query.num_vertices(), kInvalidVertex);
  std::vector<bool> used(data.num_vertices(), false);
  ReferenceExtend(query, data, query_edges, data_edges, 0, &mapping, &used,
                  &out);
  return out;
}

/// The production pipeline's embedding set: named filter, RI order,
/// exhaustive enumeration.
std::set<std::vector<VertexId>> PipelineEmbeddings(const Graph& query,
                                                   const Graph& data,
                                                   const char* filter_name) {
  CandidateSet cs = MakeFilter(filter_name)
                        .ValueOrDie()
                        ->Filter(query, data)
                        .ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  std::vector<VertexId> order = RIOrdering().MakeOrder(octx).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  EnumerateResult result =
      Enumerator().Run(query, data, cs, order, opts).ValueOrDie();
  return {result.embeddings.begin(), result.embeddings.end()};
}

/// Restores the process-global kernel selection on scope exit, so a failing
/// assertion mid-loop cannot leak a forced kernel into later suites.
class KernelGuard {
 public:
  KernelGuard() : saved_(GetIntersectKernel()) {}
  ~KernelGuard() { (void)SetIntersectKernel(saved_); }

 private:
  IntersectKernel saved_;
};

LabelConfig DirectedLabels(uint32_t vlabels, uint32_t elabels,
                           bool directed) {
  LabelConfig cfg;
  cfg.num_labels = vlabels;
  cfg.zipf_exponent = 0.5;
  cfg.num_edge_labels = elabels;
  cfg.directed = directed;
  return cfg;
}

// --- Hand-crafted directed semantics ---------------------------------------

TEST(DirectedMatchingTest, EdgeDirectionIsEnforced) {
  // Data: single arc 0 -> 1, labels 0 and 1.
  GraphBuilder db;
  db.set_directed(true);
  db.AddVertex(0);
  db.AddVertex(1);
  db.AddEdge(0, 1);
  Graph data = db.Build();

  // Forward query a(0) -> b(1): exactly the identity embedding.
  GraphBuilder fb;
  fb.set_directed(true);
  fb.AddVertex(0);
  fb.AddVertex(1);
  fb.AddEdge(0, 1);
  Graph forward = fb.Build();
  EXPECT_EQ(PipelineEmbeddings(forward, data, "LDF"),
            (std::set<std::vector<VertexId>>{{0, 1}}));

  // Reversed query a(0) <- b(1): same labels, opposite arc — no embedding.
  GraphBuilder rb;
  rb.set_directed(true);
  rb.AddVertex(0);
  rb.AddVertex(1);
  rb.AddEdge(1, 0);
  Graph reversed = rb.Build();
  EXPECT_TRUE(PipelineEmbeddings(reversed, data, "LDF").empty());
  EXPECT_TRUE(ReferenceMatch(reversed, data).empty());
}

TEST(DirectedMatchingTest, EdgeLabelsAndAntiparallelArcsAreDistinguished) {
  // Data: 0 -> 1 with edge label 0 and 1 -> 0 with edge label 1; all vertex
  // labels equal, so only the arc structure disambiguates.
  GraphBuilder db;
  db.set_directed(true);
  db.AddVertex(0);
  db.AddVertex(0);
  db.AddEdge(0, 1, 0);
  db.AddEdge(1, 0, 1);
  Graph data = db.Build();

  // A query demanding both arcs between one vertex pair has exactly one
  // embedding: a -> b over label 0 forces a = 0.
  GraphBuilder both;
  both.set_directed(true);
  both.AddVertex(0);
  both.AddVertex(0);
  both.AddEdge(0, 1, 0);
  both.AddEdge(1, 0, 1);
  Graph q_both = both.Build();
  EXPECT_EQ(PipelineEmbeddings(q_both, data, "LDF"),
            (std::set<std::vector<VertexId>>{{0, 1}}));

  // A single a -> b arc with label 1 matches only the 1 -> 0 arc.
  GraphBuilder one;
  one.set_directed(true);
  one.AddVertex(0);
  one.AddVertex(0);
  one.AddEdge(0, 1, 1);
  Graph q_one = one.Build();
  EXPECT_EQ(PipelineEmbeddings(q_one, data, "LDF"),
            (std::set<std::vector<VertexId>>{{1, 0}}));

  // An arc with an edge label the data never carries matches nothing.
  GraphBuilder missing;
  missing.set_directed(true);
  missing.AddVertex(0);
  missing.AddVertex(0);
  missing.AddEdge(0, 1, 2);
  Graph q_missing = missing.Build();
  EXPECT_TRUE(PipelineEmbeddings(q_missing, data, "LDF").empty());
}

TEST(DirectedMatchingTest, DirectedCycleHasOnlyRotationAutomorphisms) {
  // A directed 3-cycle matched against itself: the 3 rotations and nothing
  // else (the undirected triangle would have all 3! = 6 permutations).
  GraphBuilder b;
  b.set_directed(true);
  for (int i = 0; i < 3; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  Graph cycle = b.Build();
  const auto embeddings = PipelineEmbeddings(cycle, cycle, "LDF");
  EXPECT_EQ(embeddings, (std::set<std::vector<VertexId>>{
                            {0, 1, 2}, {1, 2, 0}, {2, 0, 1}}));
  EXPECT_EQ(ReferenceMatch(cycle, cycle), embeddings);
}

TEST(DirectedMatchingTest, UndirectedParallelEdgeLabelsConstrain) {
  // Undirected data: 0-1 carries edge labels {0, 1}; 1-2 carries only 0.
  GraphBuilder db;
  db.AddVertex(0);
  db.AddVertex(0);
  db.AddVertex(0);
  db.AddEdge(0, 1, 0);
  db.AddEdge(0, 1, 1);
  db.AddEdge(1, 2, 0);
  Graph data = db.Build();

  // An edge query over label 0 matches both data edges (in both endpoint
  // orders); over label 1 only the doubled edge.
  GraphBuilder qb0;
  qb0.AddVertex(0);
  qb0.AddVertex(0);
  qb0.AddEdge(0, 1, 0);
  Graph q0 = qb0.Build();
  // q0 is undirected but has num_edge_labels == 1 with label 0 — still the
  // degenerate representation; the data graph is not. The pair must work.
  EXPECT_EQ(PipelineEmbeddings(q0, data, "LDF").size(), 4u);

  GraphBuilder qb1;
  qb1.AddVertex(0);
  qb1.AddVertex(0);
  qb1.AddEdge(0, 1, 1);
  Graph q1 = qb1.Build();
  EXPECT_EQ(PipelineEmbeddings(q1, data, "LDF"),
            (std::set<std::vector<VertexId>>{{0, 1}, {1, 0}}));

  // Demanding both labels on one query edge pair keeps only the 0-1 edge.
  GraphBuilder qb2;
  qb2.AddVertex(0);
  qb2.AddVertex(0);
  qb2.AddEdge(0, 1, 0);
  qb2.AddEdge(0, 1, 1);
  Graph q2 = qb2.Build();
  EXPECT_EQ(PipelineEmbeddings(q2, data, "LDF"),
            (std::set<std::vector<VertexId>>{{0, 1}, {1, 0}}));
}

// --- Randomized differential sweeps ----------------------------------------

/// Every supported intersection kernel, every filter, directed and
/// undirected edge-labeled random graphs: the pipeline's embedding set must
/// equal both the independent reference and the in-tree brute-force matcher.
class DirectedDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DirectedDifferentialTest, AllKernelsAndFiltersMatchReference) {
  const uint64_t seed = GetParam();
  const bool directed = seed % 2 == 0;
  Graph data = GenerateErdosRenyi(60, 4.0, DirectedLabels(3, 3, directed),
                                  seed)
                   .ValueOrDie();
  ASSERT_FALSE(data.degenerate());
  QuerySampler sampler(&data, seed * 13 + 5);
  auto query_or = sampler.SampleQuery(4);
  ASSERT_TRUE(query_or.ok()) << query_or.status().ToString();
  const Graph query = std::move(query_or).ValueOrDie();
  ASSERT_EQ(query.directed(), directed);

  const std::set<std::vector<VertexId>> expected =
      ReferenceMatch(query, data);
  ASSERT_FALSE(expected.empty());  // induced subgraph: identity matches

  // The in-tree brute force (which exercises Graph::EdgesBetween/HasEdge
  // rather than flat edge sets) must agree with the independent reference.
  const auto brute = BruteForceMatch(query, data);
  EXPECT_EQ(std::set<std::vector<VertexId>>(brute.begin(), brute.end()),
            expected);

  KernelGuard guard;
  for (const IntersectKernel kernel : SupportedIntersectKernels()) {
    ASSERT_TRUE(SetIntersectKernel(kernel).ok());
    for (const char* filter : {"LDF", "NLF", "GQL", "DAG-DP"}) {
      EXPECT_EQ(PipelineEmbeddings(query, data, filter), expected)
          << "seed=" << seed << " kernel=" << IntersectKernelName(kernel)
          << " filter=" << filter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DirectedDifferentialTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(DirectedMatchingTest, ThreadCountsAgreeOnDirectedGraphs) {
  // The work-stealing enumerator on a directed edge-labeled workload, run
  // by its one owner, a 4-thread QueryEngine: untruncated runs are
  // bit-identical to the serial matcher at every thread count, and a
  // second batch of the same queries is served from the candidate cache
  // with identical results.
  Graph data = GenerateErdosRenyi(80, 4.5, DirectedLabels(3, 4, true), 97)
                   .ValueOrDie();
  QuerySampler sampler(&data, 41);
  std::vector<Graph> queries;
  for (int i = 0; i < 4; ++i) {
    auto query_or = sampler.SampleQuery(5);
    ASSERT_TRUE(query_or.ok()) << query_or.status().ToString();
    queries.push_back(std::move(query_or).ValueOrDie());
  }

  EnumerateOptions serial_options;
  serial_options.match_limit = 0;
  serial_options.store_embeddings = true;
  auto serial = MakeMatcherByName("Hybrid", serial_options).ValueOrDie();
  std::vector<MatchRunStats> expected;
  for (const Graph& query : queries) {
    expected.push_back(serial->Match(query, data).ValueOrDie());
    EXPECT_GE(expected.back().num_matches, 1u);  // identity embedding
  }

  const auto shared_data = std::make_shared<const Graph>(data);
  for (uint32_t threads : {1u, 3u, 8u}) {
    EnumerateOptions parallel_options = serial_options;
    parallel_options.parallel_threads = threads;
    auto engine = MakeEngineByName("Hybrid", shared_data, {.num_threads = 4},
                                   parallel_options)
                      .ValueOrDie();
    const BatchResult first = engine->MatchBatch(queries).ValueOrDie();
    const BatchResult cached = engine->MatchBatch(queries).ValueOrDie();
    EXPECT_EQ(cached.cache_hits, queries.size()) << "threads " << threads;
    for (const BatchResult* batch : {&first, &cached}) {
      EXPECT_EQ(batch->failed, 0u) << "threads " << threads;
      ASSERT_EQ(batch->per_query.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const MatchRunStats& got = batch->per_query[i];
        EXPECT_EQ(got.num_matches, expected[i].num_matches)
            << "query " << i << " threads " << threads;
        EXPECT_EQ(got.num_enumerations, expected[i].num_enumerations);
        EXPECT_EQ(got.num_intersections, expected[i].num_intersections);
        EXPECT_EQ(got.embeddings, expected[i].embeddings);
      }
    }
  }
}

/// `g` with every vertex v renamed perm[v]: the same labels, labeled edges
/// and direction on another id layout.
Graph RelabelVertices(const Graph& g, const std::vector<VertexId>& perm) {
  std::vector<Label> labels(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) labels[perm[v]] = g.label(v);
  GraphBuilder builder(g.num_vertices());
  builder.set_directed(g.directed());
  for (const Label l : labels) builder.AddVertex(l);
  g.ForEachLabeledEdge([&](VertexId u, VertexId v, EdgeLabel e) {
    builder.AddEdge(perm[u], perm[v], e);
  });
  return builder.Build();
}

/// A storing, untruncated run of the named filter and ordering: serial when
/// `threads` is 0, else RunParallel with `threads` loops on `pool`.
EnumerateResult EnumerateWith(const Graph& query, const Graph& data,
                              const char* filter, const char* ordering,
                              uint32_t threads, ThreadPool* pool,
                              std::vector<EnumeratorWorkspace>* workspaces) {
  const CandidateSet cs =
      MakeFilter(filter).ValueOrDie()->Filter(query, data).ValueOrDie();
  OrderingContext octx;
  octx.query = &query;
  octx.data = &data;
  octx.candidates = &cs;
  const std::vector<VertexId> order =
      MakeOrdering(ordering).ValueOrDie()->MakeOrder(octx).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  opts.parallel_threads = threads;
  ParallelEnumResources resources;
  resources.pool = threads == 0 ? nullptr : pool;
  resources.worker_workspaces = workspaces;
  return Enumerator()
      .RunParallel(query, data, cs, order, opts, resources)
      .ValueOrDie();
}

// Renaming the data vertices by a seeded permutation π renames the
// embeddings and leaves the search's shape alone: a serial run on the
// renamed graph returns π of the original embedding set, with the same
// matches, #enum, intersections, SIMD intersections and local candidates
// (comparison counts depend on the id layout and are left out). Every list
// walks ascending ids, so the renamed graph emits in another order, and its
// 2- and 4-thread runs must return its own serial sequence.
TEST(DirectedMatchingTest, RelabelledVertexIdsMapEmbeddingsBijectively) {
  ThreadPool pool(4);
  std::vector<EnumeratorWorkspace> workspaces(pool.size());
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (const bool directed : {false, true}) {
      const Graph data =
          GenerateErdosRenyi(200, 10.0, DirectedLabels(2, 2, directed), seed)
              .ValueOrDie();
      ASSERT_FALSE(data.degenerate());
      std::vector<VertexId> perm(data.num_vertices());
      std::iota(perm.begin(), perm.end(), VertexId{0});
      Rng rng(seed * 7919 + directed);
      rng.Shuffle(&perm);
      const Graph renamed = RelabelVertices(data, perm);
      QuerySampler sampler(&data, seed * 31 + directed);
      const Graph query = sampler.SampleQuery(5).ValueOrDie();
      for (const char* filter : {"LDF", "NLF", "GQL", "DAG-DP"}) {
        for (const char* ordering : {"RI", "QSI"}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " directed " +
                       std::to_string(directed) + " " + filter + " " +
                       ordering);
          const EnumerateResult base =
              EnumerateWith(query, data, filter, ordering, 0, nullptr, nullptr);
          const EnumerateResult serial = EnumerateWith(
              query, renamed, filter, ordering, 0, nullptr, nullptr);
          ASSERT_GE(base.num_matches, 1u);  // the sampled subgraph itself
          std::set<std::vector<VertexId>> expected;
          for (std::vector<VertexId> embedding : base.embeddings) {
            for (VertexId& v : embedding) v = perm[v];
            expected.insert(std::move(embedding));
          }
          EXPECT_EQ(std::set<std::vector<VertexId>>(serial.embeddings.begin(),
                                                    serial.embeddings.end()),
                    expected);
          EXPECT_EQ(serial.num_matches, base.num_matches);
          EXPECT_EQ(serial.num_enumerations, base.num_enumerations);
          EXPECT_EQ(serial.num_intersections, base.num_intersections);
          EXPECT_EQ(serial.local_candidates_total, base.local_candidates_total);
          EXPECT_EQ(serial.local_candidate_sets, base.local_candidate_sets);
          EXPECT_EQ(serial.num_simd_intersections,
                    base.num_simd_intersections);
          for (const uint32_t threads : {2u, 4u}) {
            const EnumerateResult parallel = EnumerateWith(
                query, renamed, filter, ordering, threads, &pool, &workspaces);
            EXPECT_EQ(parallel.embeddings, serial.embeddings)
                << threads << " threads";
            EXPECT_EQ(parallel.num_enumerations, serial.num_enumerations)
                << threads << " threads";
          }
        }
      }
    }
  }
}

TEST(DirectedMatchingTest, SampledQueriesInheritTheDataModel) {
  for (const bool directed : {false, true}) {
    Graph data =
        GenerateErdosRenyi(200, 5.0, DirectedLabels(4, 3, directed), 7)
            .ValueOrDie();
    QuerySampler sampler(&data, 11);
    for (int i = 0; i < 5; ++i) {
      auto q = sampler.SampleQuery(5);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      EXPECT_EQ(q->directed(), directed);
      EXPECT_LE(q->num_edge_labels(), data.num_edge_labels());
      q->ForEachLabeledEdge([&](VertexId, VertexId, EdgeLabel e) {
        EXPECT_LT(e, data.num_edge_labels());
      });
      // Induced subgraph: the pipeline must find at least one embedding
      // under the directed labeled semantics.
      EXPECT_GE(PipelineEmbeddings(*q, data, "GQL").size(), 1u)
          << "directed=" << directed << " query " << i;
    }
  }
}

}  // namespace
}  // namespace rlqvo
