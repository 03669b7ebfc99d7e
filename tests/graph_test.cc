#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>

#include "graph/graph.h"
#include "matching/filters.h"

namespace rlqvo {
namespace {

/// Path A-B-C with labels 0,1,0.
Graph MakePath3() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  return b.Build();
}

/// Triangle with an attached leaf: 0-1, 1-2, 2-0, 2-3. Labels 0,0,1,1.
Graph MakeTriangleWithTail() {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  return b.Build();
}

TEST(GraphTest, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.num_labels(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(GraphTest, BasicCounts) {
  Graph g = MakeTriangleWithTail();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.num_labels(), 2u);
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(GraphTest, DegreesAndNeighbors) {
  Graph g = MakeTriangleWithTail();
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  auto n2 = g.neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(n2.begin(), n2.end()),
            (std::vector<VertexId>{0, 1, 3}));
}

TEST(GraphTest, NeighborsAreLabelSliceSorted) {
  // Labels: 0->1, 1->0, 3->0, 4->1; vertex 2 connects to all of them.
  GraphBuilder b;
  b.AddVertex(1);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddEdge(2, 4);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  b.AddEdge(2, 1);
  Graph g = b.Build();
  // (label, id) order: label-0 slice {1, 3} then label-1 slice {0, 4}.
  auto n = g.neighbors(2);
  EXPECT_EQ(std::vector<VertexId>(n.begin(), n.end()),
            (std::vector<VertexId>{1, 3, 0, 4}));
}

TEST(GraphTest, NeighborsWithLabel) {
  Graph g = MakeTriangleWithTail();  // labels 0,0,1,1; edges 01,12,20,23
  auto l0 = g.NeighborsWithLabel(2, 0);
  EXPECT_EQ(std::vector<VertexId>(l0.begin(), l0.end()),
            (std::vector<VertexId>{0, 1}));
  auto l1 = g.NeighborsWithLabel(2, 1);
  EXPECT_EQ(std::vector<VertexId>(l1.begin(), l1.end()),
            (std::vector<VertexId>{3}));
  EXPECT_TRUE(g.NeighborsWithLabel(2, 7).empty());
  EXPECT_TRUE(g.NeighborsWithLabel(3, 0).empty());  // N(3) = {2}, label 1

  auto labels = g.NeighborLabels(2);
  EXPECT_EQ(std::vector<Label>(labels.begin(), labels.end()),
            (std::vector<Label>{0, 1}));
  auto slice0 = g.NeighborSlice(2, 0);
  EXPECT_EQ(std::vector<VertexId>(slice0.begin(), slice0.end()),
            (std::vector<VertexId>{0, 1}));
}

TEST(GraphTest, HasEdgeSymmetric) {
  Graph g = MakeTriangleWithTail();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(0, 3));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  Graph g = MakePath3();
  EXPECT_FALSE(g.HasEdge(0, 99));
  EXPECT_FALSE(g.HasEdge(99, 0));
}

TEST(GraphTest, DuplicateEdgesDeduplicated) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphTest, SelfLoopsRejected) {
  GraphBuilder b;
  b.AddVertex(0);
  EXPECT_FALSE(b.AddEdge(0, 0));
  EXPECT_FALSE(b.AddEdge(0, 5));
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphTest, LabelFrequency) {
  Graph g = MakeTriangleWithTail();
  EXPECT_EQ(g.LabelFrequency(0), 2u);
  EXPECT_EQ(g.LabelFrequency(1), 2u);
  EXPECT_EQ(g.LabelFrequency(9), 0u);
}

TEST(GraphTest, VerticesWithLabel) {
  Graph g = MakeTriangleWithTail();
  auto l1 = g.VerticesWithLabel(1);
  EXPECT_EQ(std::vector<VertexId>(l1.begin(), l1.end()),
            (std::vector<VertexId>{2, 3}));
  EXPECT_TRUE(g.VerticesWithLabel(5).empty());
}

TEST(GraphTest, CountVerticesWithDegreeGreaterThan) {
  Graph g = MakeTriangleWithTail();  // degrees: 2, 2, 3, 1
  EXPECT_EQ(g.CountVerticesWithDegreeGreaterThan(0), 4u);
  EXPECT_EQ(g.CountVerticesWithDegreeGreaterThan(1), 3u);
  EXPECT_EQ(g.CountVerticesWithDegreeGreaterThan(2), 1u);
  EXPECT_EQ(g.CountVerticesWithDegreeGreaterThan(3), 0u);
}

TEST(GraphTest, EdgeLabelFrequency) {
  Graph g = MakeTriangleWithTail();  // labels 0,0,1,1; edges 01,12,20,23
  EXPECT_EQ(g.EdgeLabelFrequency(0, 0), 1u);  // edge (0,1)
  EXPECT_EQ(g.EdgeLabelFrequency(0, 1), 2u);  // edges (1,2) and (0,2)
  EXPECT_EQ(g.EdgeLabelFrequency(1, 0), 2u);  // symmetric
  EXPECT_EQ(g.EdgeLabelFrequency(1, 1), 1u);  // edge (2,3)
}

TEST(GraphTest, MemoryFootprintGrowsWithGraph) {
  Graph small = MakePath3();
  Graph big = MakeTriangleWithTail();
  EXPECT_GT(small.MemoryFootprintBytes(), 0u);
  EXPECT_GT(big.MemoryFootprintBytes(), small.MemoryFootprintBytes());
}

/// Labels chosen so that two pairs share a signature bit: 3 and 67, 0 and
/// 64. Edges 0-1, 0-2, 0-3, 3-4; vertex 5 is isolated.
Graph MakeSignatureGraph() {
  GraphBuilder b;
  for (Label l : {0u, 3u, 67u, 5u, 64u, 2u}) b.AddVertex(l);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(3, 4);
  return b.Build();
}

TEST(NeighborLabelMasksTest, BitIsLabelModulo64) {
  const Graph g = MakeSignatureGraph();
  const auto masks = g.NeighborLabelMasks();
  ASSERT_EQ(masks.size(), g.num_vertices());
  EXPECT_EQ(masks[0], (uint64_t{1} << 3) | (uint64_t{1} << 5));  // 3, 67, 5
  EXPECT_EQ(masks[1], uint64_t{1});                              // 0
  EXPECT_EQ(masks[2], uint64_t{1});                              // 0
  EXPECT_EQ(masks[3], uint64_t{1});                              // 0, 64
  EXPECT_EQ(masks[4], uint64_t{1} << 5);                         // 5
  EXPECT_EQ(masks[5], uint64_t{0});                              // isolated
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g.NeighborLabelMask(v), masks[v]) << "vertex " << v;
  }

  // Label 63 takes the top bit.
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(63);
  b.AddEdge(0, 1);
  EXPECT_EQ(b.Build().NeighborLabelMask(0), uint64_t{1} << 63);
}

TEST(NeighborLabelMasksTest, CopiesOfAUsedGraphShareItsSignatures) {
  const Graph g = MakeSignatureGraph();
  const auto masks = g.NeighborLabelMasks();
  const std::vector<uint64_t> expected(masks.begin(), masks.end());

  Graph copy = g;
  Graph assigned;
  assigned = g;
  for (const Graph* other : {&copy, &assigned}) {
    const auto other_masks = other->NeighborLabelMasks();
    EXPECT_EQ(other_masks.data(), masks.data());  // shared, not rebuilt
    EXPECT_EQ(std::vector<uint64_t>(other_masks.begin(), other_masks.end()),
              expected);
    EXPECT_EQ(other->MemoryFootprintBytes(), g.MemoryFootprintBytes());
  }
  const Graph moved = std::move(copy);
  EXPECT_EQ(moved.NeighborLabelMasks().data(), masks.data());

  // A copy taken before the first use builds its own, equal array.
  const Graph fresh = MakeSignatureGraph();
  const Graph early_copy = fresh;
  const auto early = early_copy.NeighborLabelMasks();
  EXPECT_EQ(std::vector<uint64_t>(early.begin(), early.end()), expected);
}

TEST(NeighborLabelMasksTest, OnlyTheDataGraphBuildsSignatures) {
  const Graph data = MakeSignatureGraph();
  const Graph query = MakePath3();
  const size_t data_bytes = data.MemoryFootprintBytes();
  const size_t query_bytes = query.MemoryFootprintBytes();

  ASSERT_TRUE(NLFFilter().Filter(query, data).ok());
  EXPECT_EQ(query.MemoryFootprintBytes(), query_bytes);
  EXPECT_EQ(data.MemoryFootprintBytes(),
            data_bytes + data.num_vertices() * sizeof(uint64_t));

  // Later filter calls reuse the array: the data graph grows only once.
  ASSERT_TRUE(GQLFilter().Filter(query, data).ok());
  ASSERT_TRUE(DagDpFilter().Filter(query, data).ok());
  EXPECT_EQ(query.MemoryFootprintBytes(), query_bytes);
  EXPECT_EQ(data.MemoryFootprintBytes(),
            data_bytes + data.num_vertices() * sizeof(uint64_t));
}

TEST(GraphTest, ToStringMentionsCounts) {
  Graph g = MakePath3();
  std::string s = g.ToString();
  EXPECT_NE(s.find("|V|=3"), std::string::npos);
  EXPECT_NE(s.find("|E|=2"), std::string::npos);
}

TEST(GraphBuilderTest, VertexIdsSequential) {
  GraphBuilder b;
  EXPECT_EQ(b.AddVertex(3), 0u);
  EXPECT_EQ(b.AddVertex(1), 1u);
  EXPECT_EQ(b.AddVertex(4), 2u);
  Graph g = b.Build();
  EXPECT_EQ(g.label(0), 3u);
  EXPECT_EQ(g.label(1), 1u);
  EXPECT_EQ(g.label(2), 4u);
  // num_labels is max label + 1.
  EXPECT_EQ(g.num_labels(), 5u);
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder b;
  b.AddVertex(0);
  Graph g1 = b.Build();
  EXPECT_EQ(g1.num_vertices(), 1u);
  // Builder is emptied by Build; adding again starts fresh.
  b.AddVertex(1);
  b.AddVertex(1);
  b.AddEdge(0, 1);
  Graph g2 = b.Build();
  EXPECT_EQ(g2.num_vertices(), 2u);
  EXPECT_EQ(g2.num_edges(), 1u);
}

// ---------------------------------------------------------------------------
// Directed, edge-labeled model: invariants of the per-direction labeled
// CSRs and the degenerate-case forwarding contract.
// ---------------------------------------------------------------------------

/// Directed diamond with labels and edge labels:
///   0 -(e0)-> 1, 0 -(e1)-> 2, 1 -(e0)-> 3, 2 -(e0)-> 3, 3 -(e1)-> 0.
/// Vertex labels: 0, 1, 1, 0.
Graph MakeDirectedDiamond() {
  GraphBuilder b;
  b.set_directed(true);
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(1);
  b.AddVertex(0);
  b.AddEdge(0, 1, 0);
  b.AddEdge(0, 2, 1);
  b.AddEdge(1, 3, 0);
  b.AddEdge(2, 3, 0);
  b.AddEdge(3, 0, 1);
  return b.Build();
}

TEST(DirectedGraphTest, BasicCountsAndDegrees) {
  Graph g = MakeDirectedDiamond();
  EXPECT_TRUE(g.directed());
  EXPECT_FALSE(g.degenerate());
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(g.num_edge_labels(), 2u);
  EXPECT_EQ(g.EdgeLabelEdgeCount(0), 3u);
  EXPECT_EQ(g.EdgeLabelEdgeCount(1), 2u);
  EXPECT_EQ(g.EdgeLabelEdgeCount(7), 0u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.in_degree(0), 1u);
  EXPECT_EQ(g.out_degree(3), 1u);
  EXPECT_EQ(g.in_degree(3), 2u);
  // The skeleton stays symmetric and direction-agnostic.
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(0, 3));
}

TEST(DirectedGraphTest, HasEdgeRespectsDirectionAndEdgeLabel) {
  Graph g = MakeDirectedDiamond();
  EXPECT_TRUE(g.HasEdge(0, 1, EdgeDir::kOut, 0));
  EXPECT_FALSE(g.HasEdge(0, 1, EdgeDir::kOut, 1));  // wrong edge label
  EXPECT_FALSE(g.HasEdge(1, 0, EdgeDir::kOut, 0));  // wrong direction
  EXPECT_TRUE(g.HasEdge(1, 0, EdgeDir::kIn, 0));    // 0 -> 1 seen from 1
  EXPECT_TRUE(g.HasEdge(3, 0, EdgeDir::kOut, 1));
  EXPECT_TRUE(g.HasEdge(0, 3, EdgeDir::kIn, 1));
  EXPECT_FALSE(g.HasEdge(0, 3, EdgeDir::kOut, 0));  // only 3 -> 0 exists
}

TEST(DirectedGraphTest, NeighborsWithSlicesAreExactAndSorted) {
  Graph g = MakeDirectedDiamond();
  auto out0 = g.NeighborsWith(0, EdgeDir::kOut, 0, 1);
  EXPECT_EQ(std::vector<VertexId>(out0.begin(), out0.end()),
            (std::vector<VertexId>{1}));
  auto out0e1 = g.NeighborsWith(0, EdgeDir::kOut, 1, 1);
  EXPECT_EQ(std::vector<VertexId>(out0e1.begin(), out0e1.end()),
            (std::vector<VertexId>{2}));
  auto in3 = g.NeighborsWith(3, EdgeDir::kIn, 0, 1);
  EXPECT_EQ(std::vector<VertexId>(in3.begin(), in3.end()),
            (std::vector<VertexId>{1, 2}));
  EXPECT_TRUE(g.NeighborsWith(3, EdgeDir::kIn, 1, 1).empty());
  EXPECT_TRUE(g.NeighborsWith(0, EdgeDir::kOut, 0, 7).empty());
}

TEST(DirectedGraphTest, OutAndInViewsAreMutuallyConsistent) {
  Graph g = MakeDirectedDiamond();
  // w in NeighborsWith(v, kOut, e, label(w)) iff
  // v in NeighborsWith(w, kIn, e, label(v)), and the LabeledSliceAt walk
  // covers exactly out_degree/in_degree entries.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const EdgeDir dir : {EdgeDir::kOut, EdgeDir::kIn}) {
      size_t total = 0;
      const size_t slices = g.NumLabeledSlices(v, dir);
      for (size_t i = 0; i < slices; ++i) {
        const Graph::LabeledSlice s = g.LabeledSliceAt(v, dir, i);
        total += s.ids.size();
        for (VertexId w : s.ids) {
          EXPECT_EQ(g.label(w), s.vlabel);
          const auto mirror =
              g.NeighborsWith(w, Reverse(dir), s.elabel, g.label(v));
          EXPECT_TRUE(std::find(mirror.begin(), mirror.end(), v) !=
                      mirror.end())
              << "v=" << v << " w=" << w;
        }
      }
      EXPECT_EQ(total, dir == EdgeDir::kOut ? g.out_degree(v)
                                            : g.in_degree(v));
    }
  }
}

TEST(DirectedGraphTest, EdgesBetweenReportsEveryConstraint) {
  Graph g = MakeDirectedDiamond();
  std::vector<std::pair<EdgeDir, EdgeLabel>> edges;
  g.EdgesBetween(0, 3, &edges);
  // From 0's perspective: only the incoming 3 -(e1)-> 0 arc.
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, EdgeDir::kIn);
  EXPECT_EQ(edges[0].second, 1u);
  edges.clear();
  g.EdgesBetween(3, 0, &edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, EdgeDir::kOut);
  edges.clear();
  g.EdgesBetween(0, 1, &edges);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0], (std::pair<EdgeDir, EdgeLabel>{EdgeDir::kOut, 0u}));
  edges.clear();
  g.EdgesBetween(1, 2, &edges);  // not adjacent
  EXPECT_TRUE(edges.empty());
}

TEST(DirectedGraphTest, AntiparallelArcsAreDistinctEdges) {
  GraphBuilder b;
  b.set_directed(true);
  b.AddVertex(0);
  b.AddVertex(0);
  b.AddEdge(0, 1, 0);
  b.AddEdge(1, 0, 0);
  b.AddEdge(0, 1, 0);  // exact duplicate: deduplicated
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 1u);  // one skeleton neighbor
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.in_degree(0), 1u);
  std::vector<std::pair<EdgeDir, EdgeLabel>> edges;
  g.EdgesBetween(0, 1, &edges);
  EXPECT_EQ(edges.size(), 2u);
}

TEST(DirectedGraphTest, UndirectedParallelEdgeLabelsShareOneSkeletonSlot) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddEdge(0, 1, 0);
  b.AddEdge(0, 1, 2);
  Graph g = b.Build();
  EXPECT_FALSE(g.directed());
  EXPECT_FALSE(g.degenerate());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_edge_labels(), 3u);  // max label + 1
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.out_degree(0), 2u);  // one entry per labeled edge
  // Undirected labeled lookups answer symmetrically in both direction
  // classes, and forward kIn to the same slice storage as kOut.
  for (const EdgeDir dir : {EdgeDir::kOut, EdgeDir::kIn}) {
    EXPECT_TRUE(g.HasEdge(0, 1, dir, 0));
    EXPECT_TRUE(g.HasEdge(1, 0, dir, 2));
    EXPECT_FALSE(g.HasEdge(0, 1, dir, 1));
    const auto out_slice = g.NeighborsWith(0, EdgeDir::kOut, 2, 1);
    const auto dir_slice = g.NeighborsWith(0, dir, 2, 1);
    EXPECT_EQ(dir_slice.data(), out_slice.data());
    EXPECT_EQ(dir_slice.size(), out_slice.size());
  }
}

TEST(DirectedGraphTest, DegenerateForwardingSharesSkeletonStorage) {
  // The degenerate-case contract: an undirected single-edge-label graph
  // serves NeighborsWith straight from the skeleton slices — the spans
  // alias the same memory, so kernels and counters cannot drift.
  Graph g = MakeTriangleWithTail();
  ASSERT_TRUE(g.degenerate());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (Label l = 0; l < g.num_labels(); ++l) {
      const auto skeleton = g.NeighborsWithLabel(v, l);
      for (const EdgeDir dir : {EdgeDir::kOut, EdgeDir::kIn}) {
        const auto labeled = g.NeighborsWith(v, dir, 0, l);
        EXPECT_EQ(labeled.data(), skeleton.data());
        EXPECT_EQ(labeled.size(), skeleton.size());
        // Any non-zero edge label matches nothing.
        EXPECT_TRUE(g.NeighborsWith(v, dir, 1, l).empty());
      }
    }
    // The labeled slice walk visits exactly the skeleton slices.
    EXPECT_EQ(g.NumLabeledSlices(v, EdgeDir::kOut),
              g.NeighborLabels(v).size());
  }
  EXPECT_TRUE(g.HasEdge(0, 1, EdgeDir::kOut, 0));
  EXPECT_TRUE(g.HasEdge(0, 1, EdgeDir::kIn, 0));
  EXPECT_FALSE(g.HasEdge(0, 1, EdgeDir::kOut, 1));
}

/// Hub graph with one large slice and one small one: vertex 0 neighbors 400
/// label-1 vertices and 10 label-2 vertices.
Graph MakeHubGraph() {
  GraphBuilder b;
  b.AddVertex(0);                                  // the hub
  for (int i = 1; i <= 400; ++i) b.AddVertex(1);   // large-slice members
  for (int i = 401; i < 600; ++i) b.AddVertex(2);  // label-2 pool
  for (VertexId v = 1; v <= 400; ++v) b.AddEdge(0, v);
  for (VertexId v = 401; v <= 410; ++v) b.AddEdge(0, v);
  return b.Build();
}

TEST(DirectedGraphTest, DegenerateForwardingSharesSkeletonSlices) {
  const Graph g = MakeHubGraph();
  ASSERT_TRUE(g.degenerate());
  const std::span<const VertexId> skeleton = g.NeighborsWithLabel(0, 1);
  ASSERT_EQ(skeleton.size(), 400u);
  for (const EdgeDir dir : {EdgeDir::kOut, EdgeDir::kIn}) {
    const std::span<const VertexId> labeled = g.NeighborsWith(0, dir, 0, 1);
    EXPECT_EQ(labeled.data(), skeleton.data());
    EXPECT_EQ(labeled.size(), skeleton.size());
  }
}

TEST(DirectedGraphTest, ForEachLabeledEdgeStreamsCanonically) {
  Graph directed = MakeDirectedDiamond();
  std::vector<std::tuple<VertexId, VertexId, EdgeLabel>> seen;
  directed.ForEachLabeledEdge([&](VertexId u, VertexId v, EdgeLabel e) {
    seen.push_back({u, v, e});
  });
  EXPECT_EQ(seen, (std::vector<std::tuple<VertexId, VertexId, EdgeLabel>>{
                      {0, 1, 0}, {0, 2, 1}, {1, 3, 0}, {2, 3, 0}, {3, 0, 1}}));

  // Undirected graphs stream each edge once with u < v — the degenerate
  // stream is exactly the classic neighbor-scan edge list.
  Graph undirected = MakeTriangleWithTail();
  seen.clear();
  undirected.ForEachLabeledEdge([&](VertexId u, VertexId v, EdgeLabel e) {
    seen.push_back({u, v, e});
  });
  EXPECT_EQ(seen.size(), undirected.num_edges());
  for (const auto& [u, v, e] : seen) {
    EXPECT_LT(u, v);
    EXPECT_EQ(e, 0u);
  }
}

}  // namespace
}  // namespace rlqvo
