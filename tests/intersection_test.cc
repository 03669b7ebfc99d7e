#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/filters.h"
#include "matching/intersect.h"
#include "matching/matcher.h"
#include "matching/ordering.h"
#include "test_util.h"

namespace rlqvo {
namespace {

// ---------------------------------------------------------------------------
// Intersection primitives vs std::set_intersection.
// ---------------------------------------------------------------------------

std::vector<VertexId> RandomSortedSet(Rng* rng, size_t size, uint32_t universe) {
  std::set<VertexId> s;
  while (s.size() < size) {
    s.insert(static_cast<VertexId>(rng->NextBounded(universe)));
  }
  return {s.begin(), s.end()};
}

std::vector<VertexId> ReferenceIntersection(const std::vector<VertexId>& a,
                                            const std::vector<VertexId>& b) {
  std::vector<VertexId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

TEST(IntersectTest, AllVariantsMatchReferenceAcrossShapes) {
  Rng rng(7);
  // (|a|, |b|, universe): comparable sizes, heavy skew both ways, dense and
  // sparse overlap regimes.
  const std::vector<std::array<uint32_t, 3>> shapes = {
      {0, 0, 10},     {0, 50, 100},    {1, 1, 2},       {8, 8, 16},
      {50, 50, 80},   {10, 1000, 2000}, {1000, 10, 2000}, {3, 5000, 6000},
      {128, 128, 129}, {200, 4000, 4001},
  };
  for (const auto& [na, nb, universe] : shapes) {
    for (int rep = 0; rep < 8; ++rep) {
      const auto a = RandomSortedSet(&rng, na, universe);
      const auto b = RandomSortedSet(&rng, nb, universe);
      const auto expected = ReferenceIntersection(a, b);
      std::vector<VertexId> out;
      uint64_t cmp = 0;
      IntersectLinear(a, b, &out, &cmp);
      EXPECT_EQ(out, expected) << "linear " << na << "x" << nb;
      // Galloping requires the smaller input first.
      const auto& small = na <= nb ? a : b;
      const auto& large = na <= nb ? b : a;
      IntersectGalloping(small, large, &out, &cmp);
      EXPECT_EQ(out, expected) << "gallop " << na << "x" << nb;
      IntersectAdaptive(a, b, &out, &cmp);
      EXPECT_EQ(out, expected) << "adaptive " << na << "x" << nb;
      IntersectAdaptive(b, a, &out, &cmp);
      EXPECT_EQ(out, expected) << "adaptive swapped " << na << "x" << nb;
    }
  }
}

TEST(IntersectTest, CountsComparisonsAndOverwritesOutput) {
  const std::vector<VertexId> a = {1, 3, 5, 7};
  const std::vector<VertexId> b = {3, 4, 5, 6};
  std::vector<VertexId> out = {99, 100, 101};  // stale content is discarded
  uint64_t cmp = 0;
  IntersectLinear(a, b, &out, &cmp);
  EXPECT_EQ(out, (std::vector<VertexId>{3, 5}));
  EXPECT_GT(cmp, 0u);
  const uint64_t after_linear = cmp;
  IntersectGalloping(a, b, &out, &cmp);
  EXPECT_EQ(out, (std::vector<VertexId>{3, 5}));
  EXPECT_GT(cmp, after_linear);  // the counter accumulates
}

TEST(IntersectTest, GallopingBeatsLinearOnComparisonsWhenSkewed) {
  Rng rng(11);
  const auto small = RandomSortedSet(&rng, 16, 1u << 20);
  const auto large = RandomSortedSet(&rng, 1u << 16, 1u << 20);
  std::vector<VertexId> out;
  uint64_t linear_cmp = 0, gallop_cmp = 0;
  IntersectLinear(small, large, &out, &linear_cmp);
  IntersectGalloping(small, large, &out, &gallop_cmp);
  // 16 elements located in 65k: galloping must be orders of magnitude
  // cheaper than the full merge walk.
  EXPECT_LT(gallop_cmp * 10, linear_cmp);
}

// ---------------------------------------------------------------------------
// Label-sliced CSR invariants.
// ---------------------------------------------------------------------------

TEST(LabelSliceTest, SlicesPartitionNeighborhoodsOnRandomGraphs) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    LabelConfig cfg;
    cfg.num_labels = 6;
    cfg.zipf_exponent = seed == 3 ? 1.5 : 0.0;  // one heavily skewed case
    Graph g = GenerateErdosRenyi(300, 6.0, cfg, seed).ValueOrDie();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto labels = g.NeighborLabels(v);
      EXPECT_TRUE(std::is_sorted(labels.begin(), labels.end()));
      EXPECT_TRUE(std::adjacent_find(labels.begin(), labels.end()) ==
                  labels.end());
      std::vector<VertexId> reassembled;
      for (size_t i = 0; i < labels.size(); ++i) {
        const auto slice = g.NeighborSlice(v, i);
        EXPECT_FALSE(slice.empty());
        EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
        for (VertexId w : slice) EXPECT_EQ(g.label(w), labels[i]);
        reassembled.insert(reassembled.end(), slice.begin(), slice.end());
      }
      const auto nbrs = g.neighbors(v);
      EXPECT_EQ(reassembled,
                std::vector<VertexId>(nbrs.begin(), nbrs.end()));
      // Lookup agrees with a brute scan for every label, present or not.
      for (Label l = 0; l < g.num_labels() + 2; ++l) {
        std::vector<VertexId> brute;
        for (VertexId w : nbrs) {
          if (g.label(w) == l) brute.push_back(w);
        }
        std::sort(brute.begin(), brute.end());
        const auto slice = g.NeighborsWithLabel(v, l);
        EXPECT_EQ(std::vector<VertexId>(slice.begin(), slice.end()), brute);
      }
    }
  }
}

TEST(LabelSliceTest, HasEdgeAgreesWithAdjacencyMatrix) {
  LabelConfig cfg;
  cfg.num_labels = 4;
  cfg.zipf_exponent = 0.9;
  Graph g = GenerateErdosRenyi(120, 5.0, cfg, 17).ValueOrDie();
  std::vector<std::vector<bool>> adj(g.num_vertices(),
                                     std::vector<bool>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) adj[v][w] = true;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w = 0; w < g.num_vertices(); ++w) {
      EXPECT_EQ(g.HasEdge(v, w), static_cast<bool>(adj[v][w]))
          << v << "-" << w;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence: intersection-driven enumeration == BruteForceMatch
// across label regimes, filters and orderings.
// ---------------------------------------------------------------------------

std::set<std::vector<VertexId>> BruteForceSet(const Graph& q, const Graph& g) {
  const auto all = BruteForceMatch(q, g);
  return {all.begin(), all.end()};
}

struct LabelRegime {
  const char* name;
  uint32_t num_labels;
  double zipf;
};

class IntersectionEquivalenceTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntersectionEquivalenceTest, MatchesBruteForceUniformAndSkewed) {
  const uint64_t seed = GetParam();
  const LabelRegime regimes[] = {
      {"uniform", 4, 0.0},
      // Zipf 1.6 over 8 labels: one label owns most vertices, several are
      // near-empty — maximal slice-size skew, the gallop path's habitat.
      {"skewed", 8, 1.6},
  };
  for (const LabelRegime& regime : regimes) {
    LabelConfig cfg;
    cfg.num_labels = regime.num_labels;
    cfg.zipf_exponent = regime.zipf;
    Graph data =
        GenerateErdosRenyi(60, 4.5, cfg, seed).ValueOrDie();
    QuerySampler sampler(&data, seed * 31 + 7);
    auto query_or = sampler.SampleQuery(3 + seed % 4);
    if (!query_or.ok()) continue;  // skewed graphs can lack big components
    const Graph query = std::move(query_or).ValueOrDie();

    const auto expected = BruteForceSet(query, data);
    ASSERT_FALSE(expected.empty());  // induced subgraph: >= 1 match

    for (const char* filter_name : {"LDF", "GQL"}) {
      CandidateSet cs = MakeFilter(filter_name)
                            .ValueOrDie()
                            ->Filter(query, data)
                            .ValueOrDie();
      OrderingContext ctx;
      ctx.query = &query;
      ctx.data = &data;
      ctx.candidates = &cs;
      for (const char* order_name : {"RI", "GQL"}) {
        auto order = MakeOrdering(order_name).ValueOrDie()->MakeOrder(ctx);
        ASSERT_TRUE(order.ok());
        EnumerateOptions opts;
        opts.match_limit = 0;
        opts.store_embeddings = true;
        Enumerator enumerator;
        auto result =
            enumerator.Run(query, data, cs, *order, opts).ValueOrDie();
        const std::set<std::vector<VertexId>> actual(
            result.embeddings.begin(), result.embeddings.end());
        EXPECT_EQ(actual, expected)
            << regime.name << " filter=" << filter_name
            << " order=" << order_name;
        EXPECT_EQ(result.local_candidate_sets > 0,
                  query.num_vertices() > 1);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntersectionEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 13));

TEST(IntersectionEquivalenceTest, DisconnectedQueryAndOrder) {
  // Two disjoint edges; any permutation is a legal order, including ones
  // that interleave the components (backward-free restarts mid-order).
  GraphBuilder qb;
  for (int i = 0; i < 4; ++i) qb.AddVertex(i % 2);
  qb.AddEdge(0, 1);
  qb.AddEdge(2, 3);
  Graph query = qb.Build();

  LabelConfig cfg;
  cfg.num_labels = 2;
  cfg.zipf_exponent = 1.0;
  Graph data = GenerateErdosRenyi(40, 4.0, cfg, 5).ValueOrDie();
  const auto expected = BruteForceSet(query, data);

  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  Enumerator enumerator;
  for (const std::vector<VertexId>& order :
       {std::vector<VertexId>{0, 1, 2, 3}, std::vector<VertexId>{0, 2, 1, 3},
        std::vector<VertexId>{3, 0, 2, 1}}) {
    auto result = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
    const std::set<std::vector<VertexId>> actual(result.embeddings.begin(),
                                                 result.embeddings.end());
    EXPECT_EQ(actual, expected);
  }
}

TEST(IntersectionEquivalenceTest, MatchLimitPath) {
  LabelConfig cfg;
  cfg.num_labels = 1;
  Graph data = GenerateErdosRenyi(80, 8.0, cfg, 9).ValueOrDie();
  QuerySampler sampler(&data, 10);
  Graph query = sampler.SampleQuery(4).ValueOrDie();
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &query;
  ctx.data = &data;
  ctx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(ctx).ValueOrDie();

  EnumerateOptions opts;
  opts.match_limit = 7;
  opts.store_embeddings = true;
  Enumerator enumerator;
  auto result = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
  EXPECT_EQ(result.num_matches, 7u);
  EXPECT_TRUE(result.hit_match_limit);
  // The truncated prefix must still consist of genuine matches.
  const auto expected = BruteForceSet(query, data);
  for (const auto& embedding : result.embeddings) {
    EXPECT_TRUE(expected.count(embedding));
  }
}

TEST(IntersectionEquivalenceTest, DeadlinePath) {
  LabelConfig cfg;
  cfg.num_labels = 1;
  Graph data = GenerateErdosRenyi(400, 12.0, cfg, 13).ValueOrDie();
  QuerySampler sampler(&data, 14);
  Graph query = sampler.SampleQuery(10).ValueOrDie();
  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &query;
  ctx.data = &data;
  ctx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(ctx).ValueOrDie();

  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 1e-4;
  Enumerator enumerator;
  auto result = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
  // Either finished very fast or reports the cut; never an error.
  if (!result.timed_out) {
    EXPECT_FALSE(result.hit_match_limit);
  }
}

// ---------------------------------------------------------------------------
// Forced-kernel dispatch: enumeration is kernel-invariant.
// ---------------------------------------------------------------------------

/// Every supported dispatch kernel produces the same embeddings and the
/// same search-shape counters as forced scalar — only the comparison charge
/// (each kernel's own work metric) may differ, and even that must be
/// deterministic run to run.
TEST(ForcedKernelTest, EnumerationInvariantAcrossKernels) {
  LabelConfig cfg;
  cfg.num_labels = 5;
  cfg.zipf_exponent = 1.2;
  Graph data = GenerateErdosRenyi(80, 5.0, cfg, 33).ValueOrDie();
  QuerySampler sampler(&data, 34);
  const Graph query = sampler.SampleQuery(5).ValueOrDie();
  CandidateSet cs = GQLFilter().Filter(query, data).ValueOrDie();
  OrderingContext ctx;
  ctx.query = &query;
  ctx.data = &data;
  ctx.candidates = &cs;
  const auto order = RIOrdering().MakeOrder(ctx).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  Enumerator enumerator;

  const IntersectKernel saved = GetIntersectKernel();
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kScalar).ok());
  const auto baseline =
      enumerator.Run(query, data, cs, order, opts).ValueOrDie();
  ASSERT_GT(baseline.num_intersections, 0u);

  for (IntersectKernel kernel : SupportedIntersectKernels()) {
    SCOPED_TRACE(IntersectKernelName(kernel));
    ASSERT_TRUE(SetIntersectKernel(kernel).ok());
    const auto run1 = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
    EXPECT_EQ(run1.embeddings, baseline.embeddings);
    EXPECT_EQ(run1.num_matches, baseline.num_matches);
    EXPECT_EQ(run1.num_enumerations, baseline.num_enumerations);
    EXPECT_EQ(run1.num_intersections, baseline.num_intersections);
    EXPECT_EQ(run1.local_candidates_total, baseline.local_candidates_total);
    EXPECT_EQ(run1.local_candidate_sets, baseline.local_candidate_sets);
    // Kernel-specific but deterministic: an identical second run charges
    // the identical comparison count and takes the identical paths.
    const auto run2 = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
    EXPECT_EQ(run2.num_probe_comparisons, run1.num_probe_comparisons);
    EXPECT_EQ(run2.num_simd_intersections, run1.num_simd_intersections);
    // Scalar kernels never report SIMD paths.
    if (kernel == IntersectKernel::kScalar ||
        kernel == IntersectKernel::kScalarMerge ||
        kernel == IntersectKernel::kScalarGallop) {
      EXPECT_EQ(run1.num_simd_intersections, 0u);
    }
  }
  ASSERT_TRUE(SetIntersectKernel(saved).ok());
}

/// Two hubs sharing a dense label-1 neighborhood: a triangle query mapping
/// both hubs intersects two 300-element hub slices. Every supported kernel
/// must produce the scalar embeddings, and on an AVX2 host auto must serve
/// those intersections with SIMD.
TEST(ForcedKernelTest, HubSliceEmbeddingsInvariantAcrossKernels) {
  GraphBuilder gb;
  const VertexId hub_a = gb.AddVertex(0);
  const VertexId hub_b = gb.AddVertex(0);
  std::vector<VertexId> shared;
  for (int i = 0; i < 300; ++i) shared.push_back(gb.AddVertex(1));
  gb.AddEdge(hub_a, hub_b);
  for (VertexId v : shared) {
    gb.AddEdge(hub_a, v);
    gb.AddEdge(hub_b, v);
  }
  Graph data = gb.Build();

  GraphBuilder qb;
  qb.AddVertex(0);
  qb.AddVertex(0);
  qb.AddVertex(1);
  qb.AddEdge(0, 1);
  qb.AddEdge(0, 2);
  qb.AddEdge(1, 2);
  Graph query = qb.Build();

  CandidateSet cs = LDFFilter().Filter(query, data).ValueOrDie();
  const std::vector<VertexId> order = {0, 1, 2};
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.store_embeddings = true;
  Enumerator enumerator;

  const IntersectKernel saved = GetIntersectKernel();
  ASSERT_TRUE(SetIntersectKernel(IntersectKernel::kScalar).ok());
  const auto scalar = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
  // (hub_a, hub_b, x) and (hub_b, hub_a, x) for every shared x.
  EXPECT_EQ(scalar.num_matches, 2u * shared.size());
  ASSERT_GT(scalar.num_intersections, 0u);

  for (IntersectKernel kernel : SupportedIntersectKernels()) {
    SCOPED_TRACE(IntersectKernelName(kernel));
    ASSERT_TRUE(SetIntersectKernel(kernel).ok());
    const auto run = enumerator.Run(query, data, cs, order, opts).ValueOrDie();
    EXPECT_EQ(run.embeddings, scalar.embeddings);
    EXPECT_EQ(run.num_intersections, scalar.num_intersections);
    if (kernel == IntersectKernel::kAuto &&
        IntersectKernelSupported(IntersectKernel::kAvx2)) {
      EXPECT_EQ(run.num_simd_intersections, run.num_intersections);
    }
  }
  ASSERT_TRUE(SetIntersectKernel(saved).ok());
}

/// The work counters are plumbed end to end: a multi-backward query must
/// report intersections and local-candidate sizes through MatchRunStats.
TEST(IntersectionCountersTest, SurfaceThroughMatcherStats) {
  // A triangle query guarantees a depth with 2 mapped backward neighbors.
  GraphBuilder qb;
  for (int i = 0; i < 3; ++i) qb.AddVertex(0);
  qb.AddEdge(0, 1);
  qb.AddEdge(1, 2);
  qb.AddEdge(2, 0);
  Graph query = qb.Build();
  LabelConfig cfg;
  cfg.num_labels = 1;
  Graph data = GenerateErdosRenyi(100, 8.0, cfg, 21).ValueOrDie();
  ASSERT_FALSE(BruteForceMatch(query, data, 1).empty());

  auto matcher = MakeMatcherByName("RI").ValueOrDie();
  const MatchRunStats stats = matcher->Match(query, data).ValueOrDie();
  EXPECT_GT(stats.num_matches, 0u);
  EXPECT_GT(stats.num_intersections, 0u);
  EXPECT_GT(stats.num_probe_comparisons, 0u);
  EXPECT_GT(stats.local_candidate_sets, 0u);
  EXPECT_GT(stats.local_candidates_total, 0u);
}

}  // namespace
}  // namespace rlqvo
