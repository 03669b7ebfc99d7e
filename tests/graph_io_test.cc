#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph_io.h"

namespace rlqvo {
namespace {

constexpr char kValidText[] =
    "t 4 4\n"
    "v 0 0 2\n"
    "v 1 0 2\n"
    "v 2 1 3\n"
    "v 3 1 1\n"
    "e 0 1\n"
    "e 1 2\n"
    "e 2 0\n"
    "e 2 3\n";

TEST(GraphIoTest, ParseValid) {
  auto result = ParseGraphText(kValidText);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Graph& g = *result;
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.label(2), 1u);
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST(GraphIoTest, CommentsAndBlankLinesSkipped) {
  std::string text = "# comment\n\n% another\n";
  text += kValidText;
  EXPECT_TRUE(ParseGraphText(text).ok());
}

TEST(GraphIoTest, MissingHeaderFails) {
  auto result = ParseGraphText("v 0 0 0\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(GraphIoTest, VertexCountMismatchFails) {
  auto result = ParseGraphText("t 2 0\nv 0 0 0\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("declares"), std::string::npos);
}

TEST(GraphIoTest, NonDenseVertexIdsFail) {
  auto result = ParseGraphText("t 2 0\nv 0 0 0\nv 5 0 0\n");
  EXPECT_FALSE(result.ok());
}

TEST(GraphIoTest, EdgeToUnknownVertexFails) {
  auto result = ParseGraphText("t 1 1\nv 0 0 0\ne 0 7\n");
  EXPECT_FALSE(result.ok());
}

TEST(GraphIoTest, SelfLoopFails) {
  auto result = ParseGraphText("t 1 1\nv 0 0 0\ne 0 0\n");
  EXPECT_FALSE(result.ok());
}

TEST(GraphIoTest, UnknownRecordTypeFails) {
  auto result = ParseGraphText("t 0 0\nx 1 2\n");
  EXPECT_FALSE(result.ok());
}

TEST(GraphIoTest, MissingEdgesFail) {
  auto result = ParseGraphText("t 2 3\nv 0 0 0\nv 1 0 0\ne 0 1\n");
  EXPECT_FALSE(result.ok());
}

TEST(GraphIoTest, RoundTripPreservesGraph) {
  Graph g = ParseGraphText(kValidText).ValueOrDie();
  std::string text = GraphToText(g);
  Graph g2 = ParseGraphText(text).ValueOrDie();
  ASSERT_EQ(g2.num_vertices(), g.num_vertices());
  ASSERT_EQ(g2.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(g2.label(v), g.label(v));
    auto n1 = g.neighbors(v);
    auto n2 = g2.neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(n1.begin(), n1.end()),
              std::vector<VertexId>(n2.begin(), n2.end()));
  }
}

TEST(GraphIoTest, FileRoundTrip) {
  Graph g = ParseGraphText(kValidText).ValueOrDie();
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlqvo_io_test.graph")
          .string();
  ASSERT_TRUE(SaveGraphToFile(g, path).ok());
  auto loaded = LoadGraphFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  std::remove(path.c_str());
}

TEST(GraphIoTest, LoadMissingFileFails) {
  auto result = LoadGraphFromFile("/nonexistent/definitely/missing.graph");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(GraphIoTest, EmptyGraphRoundTrips) {
  auto result = ParseGraphText("t 0 0\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_vertices(), 0u);
  EXPECT_EQ(GraphToText(*result), "t 0 0\n");
}

// ---------------------------------------------------------------------------
// Directed / edge-labeled text extensions.
// ---------------------------------------------------------------------------

constexpr char kDirectedText[] =
    "t 3 3 directed\n"
    "v 0 0 2\n"
    "v 1 1 2\n"
    "v 2 0 2\n"
    "e 0 1 0\n"
    "e 1 2 1\n"
    "e 2 0 0\n";

TEST(GraphIoTest, DirectedTextParsesAndRoundTrips) {
  Graph g = ParseGraphText(kDirectedText).ValueOrDie();
  EXPECT_TRUE(g.directed());
  EXPECT_EQ(g.num_edge_labels(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1, EdgeDir::kOut, 0));
  EXPECT_FALSE(g.HasEdge(1, 0, EdgeDir::kOut, 0));
  EXPECT_TRUE(g.HasEdge(1, 2, EdgeDir::kOut, 1));
  // The writer emits the directed marker and the edge-label column, and the
  // result re-parses to the same byte string (a canonical fixed point).
  const std::string text = GraphToText(g);
  EXPECT_NE(text.find(" directed"), std::string::npos);
  EXPECT_EQ(GraphToText(ParseGraphText(text).ValueOrDie()), text);
}

TEST(GraphIoTest, DegenerateTextHasNoDirectedMarkersOrLabelColumn) {
  // Byte-identical to the pre-directed writer on classic graphs: no
  // 'directed' token, two-field edge records.
  Graph g = ParseGraphText(kValidText).ValueOrDie();
  ASSERT_TRUE(g.degenerate());
  const std::string text = GraphToText(g);
  EXPECT_EQ(text.find("directed"), std::string::npos);
  EXPECT_NE(text.find("e 0 1\n"), std::string::npos);
}

TEST(GraphIoTest, MalformedHeaderExtensionFails) {
  auto bad_token = ParseGraphText("t 0 0 directedx\n");
  ASSERT_FALSE(bad_token.ok());
  EXPECT_NE(bad_token.status().message().find("directed"), std::string::npos);
  EXPECT_FALSE(ParseGraphText("t 0 0 directed extra\n").ok());
}

TEST(GraphIoTest, OversizedEdgeLabelFails) {
  auto result =
      ParseGraphText("t 2 1\nv 0 0 1\nv 1 0 1\ne 0 1 4294967296\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("2^32-1"), std::string::npos);
}

// Graph::num_labels() is the largest label plus one, a 32-bit count, so a
// vertex label must stay at or below kMaxLabel: 2^32-1 would wrap the count
// to 0 and 2^32 and above would truncate to another label.
TEST(GraphIoTest, UnrepresentableVertexLabelFails) {
  for (const char* label :
       {"4294967295", "4294967296", "18446744073709551615"}) {
    auto result = ParseGraphText(std::string("t 1 0\nv 0 ") + label + " 0\n");
    ASSERT_FALSE(result.ok()) << label;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << label;
    EXPECT_NE(result.status().message().find("2^32-2"), std::string::npos)
        << result.status().message();
  }
}

// ---------------------------------------------------------------------------
// Versioned binary format.
// ---------------------------------------------------------------------------

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Hand-built version-1 payload (what a pre-directed writer emitted):
/// magic, version byte, n, m, labels, (u, v) pairs.
std::string V1Bytes(const std::vector<Label>& labels,
                    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  std::string out = "RLQV";
  out.push_back(1);
  AppendU32(&out, static_cast<uint32_t>(labels.size()));
  AppendU64(&out, edges.size());
  for (Label l : labels) AppendU32(&out, l);
  for (const auto& [u, v] : edges) {
    AppendU32(&out, u);
    AppendU32(&out, v);
  }
  return out;
}

/// Hand-built version-2 payload: magic, version, flags, edge-label count,
/// n, m, labels, (u, v, elabel) triples.
std::string V2Bytes(uint8_t flags, uint32_t num_edge_labels,
                    const std::vector<Label>& labels,
                    const std::vector<std::tuple<VertexId, VertexId, EdgeLabel>>&
                        edges) {
  std::string out = "RLQV";
  out.push_back(2);
  out.push_back(static_cast<char>(flags));
  AppendU32(&out, num_edge_labels);
  AppendU32(&out, static_cast<uint32_t>(labels.size()));
  AppendU64(&out, edges.size());
  for (Label l : labels) AppendU32(&out, l);
  for (const auto& [u, v, e] : edges) {
    AppendU32(&out, u);
    AppendU32(&out, v);
    AppendU32(&out, e);
  }
  return out;
}

TEST(GraphIoBinaryTest, DegenerateGraphsUseVersionOneAndRoundTripExactly) {
  Graph g = ParseGraphText(kValidText).ValueOrDie();
  ASSERT_TRUE(g.degenerate());
  const std::string bytes = GraphToBinary(g);
  ASSERT_GE(bytes.size(), 5u);
  EXPECT_EQ(bytes.substr(0, 4), "RLQV");
  EXPECT_EQ(bytes[4], 1);  // old readers keep working on classic workloads
  Graph g2 = ParseGraphBinary(bytes).ValueOrDie();
  EXPECT_TRUE(g2.degenerate());
  // Re-serialisation is byte-identical: the binary form is canonical.
  EXPECT_EQ(GraphToBinary(g2), bytes);
  EXPECT_EQ(GraphToText(g2), GraphToText(g));
}

TEST(GraphIoBinaryTest, DirectedLabeledGraphsUseVersionTwoAndRoundTrip) {
  Graph g = ParseGraphText(kDirectedText).ValueOrDie();
  const std::string bytes = GraphToBinary(g);
  ASSERT_GE(bytes.size(), 6u);
  EXPECT_EQ(bytes[4], 2);
  EXPECT_EQ(bytes[5], 1);  // flags: directed bit
  Graph g2 = ParseGraphBinary(bytes).ValueOrDie();
  EXPECT_TRUE(g2.directed());
  EXPECT_EQ(g2.num_edge_labels(), g.num_edge_labels());
  EXPECT_EQ(GraphToBinary(g2), bytes);
  EXPECT_EQ(GraphToText(g2), GraphToText(g));
}

TEST(GraphIoBinaryTest, UndirectedMultiLabelGraphsKeepFlagsClear) {
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddEdge(0, 1, 0);
  b.AddEdge(0, 1, 3);
  Graph g = b.Build();
  const std::string bytes = GraphToBinary(g);
  EXPECT_EQ(bytes[4], 2);  // labeled, so version 2...
  EXPECT_EQ(bytes[5], 0);  // ...but not directed
  Graph g2 = ParseGraphBinary(bytes).ValueOrDie();
  EXPECT_FALSE(g2.directed());
  EXPECT_EQ(g2.num_edge_labels(), 4u);
  EXPECT_TRUE(g2.HasEdge(1, 0, EdgeDir::kOut, 3));
}

TEST(GraphIoBinaryTest, HandBuiltVersionOnePayloadLoadsAsDegenerate) {
  // A file written by the pre-directed serializer must load unchanged as
  // the degenerate single-edge-label case.
  Graph g = ParseGraphBinary(V1Bytes({0, 1, 0}, {{0, 1}, {1, 2}}))
                .ValueOrDie();
  EXPECT_TRUE(g.degenerate());
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.label(1), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
}

TEST(GraphIoBinaryTest, CorruptPayloadsAreRejected) {
  const std::vector<Label> labels = {0, 1};
  const std::vector<std::tuple<VertexId, VertexId, EdgeLabel>> edges = {
      {0, 1, 1}};
  const std::string valid = V2Bytes(/*flags=*/1, /*num_edge_labels=*/2,
                                    labels, edges);
  ASSERT_TRUE(ParseGraphBinary(valid).ok());

  struct Case {
    const char* name;
    std::string bytes;
    const char* needle;  // expected substring of the error message
  };
  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  std::string bad_version = valid;
  bad_version[4] = 9;
  std::string bad_flags = valid;
  bad_flags[5] = 0x02;  // an undefined flag bit
  // Headers alone (17 and 22 bytes) that declare n = 2^32-1 vertices: the
  // loader must see the missing labels before it reserves for n vertices.
  std::string v1_huge_n = "RLQV";
  v1_huge_n.push_back(1);
  AppendU32(&v1_huge_n, UINT32_MAX);
  AppendU64(&v1_huge_n, 0);
  std::string v2_huge_n = "RLQV";
  v2_huge_n.push_back(2);
  v2_huge_n.push_back(1);
  AppendU32(&v2_huge_n, 2);
  AppendU32(&v2_huge_n, UINT32_MAX);
  AppendU64(&v2_huge_n, 0);
  const std::vector<Case> cases = {
      {"empty", "", "bad magic"},
      {"bad magic", bad_magic, "bad magic"},
      {"truncated before version", valid.substr(0, 4), "version byte"},
      {"unsupported version", bad_version, "unsupported version"},
      {"unknown flag bits", bad_flags, "unknown flag bits"},
      {"zero edge-label count",
       V2Bytes(0, /*num_edge_labels=*/0, labels, edges),
       "zero edge-label count"},
      {"truncated header", valid.substr(0, 12), "truncated"},
      {"truncated vertex labels", valid.substr(0, 24), "truncated"},
      {"v1 header declaring 2^32-1 vertices", v1_huge_n,
       "truncated vertex labels"},
      {"v2 header declaring 2^32-1 vertices", v2_huge_n,
       "truncated vertex labels"},
      {"vertex label 2^32-1", V2Bytes(1, 2, {0, UINT32_MAX}, edges),
       "vertex label exceeds 2^32-2"},
      {"v1 vertex label 2^32-1", V1Bytes({UINT32_MAX}, {}),
       "vertex label exceeds 2^32-2"},
      {"truncated edge list", valid.substr(0, valid.size() - 1),
       "truncated edge list"},
      {"trailing bytes", valid + '\0', "trailing bytes"},
      {"endpoint out of range", V2Bytes(1, 2, labels, {{0, 7, 1}}),
       "out of range"},
      {"self-loop", V2Bytes(1, 2, labels, {{1, 1, 0}}), "self-loop"},
      {"edge label out of range", V2Bytes(1, 2, labels, {{0, 1, 2}}),
       "edge label out of range"},
      {"v1 truncated edges", V1Bytes(labels, {{0, 1}}).substr(0, 20),
       "truncated"},
      {"v1 trailing bytes", V1Bytes(labels, {{0, 1}}) + 'x',
       "trailing bytes"},
  };
  for (const Case& c : cases) {
    auto result = ParseGraphBinary(c.bytes);
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_TRUE(result.status().IsInvalidArgument()) << c.name;
    EXPECT_NE(result.status().message().find(c.needle), std::string::npos)
        << c.name << ": " << result.status().message();
  }
}

TEST(GraphIoBinaryTest, BinaryFileRoundTrip) {
  Graph g = ParseGraphText(kDirectedText).ValueOrDie();
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlqvo_io_test.bgraph")
          .string();
  ASSERT_TRUE(SaveGraphBinaryToFile(g, path).ok());
  auto loaded = LoadGraphBinaryFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(GraphToBinary(*loaded), GraphToBinary(g));
  std::remove(path.c_str());

  EXPECT_TRUE(LoadGraphBinaryFromFile("/nonexistent/missing.bgraph")
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace rlqvo
