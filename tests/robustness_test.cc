#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rlqvo.h"
#include "graph/graph_io.h"
#include "matching/enumerator.h"
#include "nn/serialize.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Failure-injection tests: every malformed input must surface as a non-OK
// Status (never a crash or silent wrong answer).

TEST(RobustnessTest, GraphParserSurvivesGarbageLines) {
  for (const char* text : {
           "t x y\n",
           "t 1 0\nv 0\n",
           "t 1 0\nv 0 0 0\ne 0\n",
           "e 0 1\nt 2 1\nv 0 0 0\nv 1 0 0\n",  // edge before vertices
       }) {
    auto result = ParseGraphText(text);
    EXPECT_FALSE(result.ok()) << "accepted: " << text;
  }
}

TEST(RobustnessTest, ModelLoadRejectsTamperedCheckpoints) {
  RLQVOModel model;
  const std::string path = TempPath("rlqvo_tampered.model");
  ASSERT_TRUE(model.Save(path).ok());

  // Truncate the file mid-matrix.
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path) << contents.substr(0, contents.size() / 2);
  auto truncated = RLQVOModel::Load(path);
  EXPECT_FALSE(truncated.ok());

  // Corrupt the architecture metadata.
  std::ofstream(path) << "RLQVO-MODEL v1\nmeta backbone Quantum\nparams 0\n";
  auto bad_backbone = RLQVOModel::Load(path);
  EXPECT_FALSE(bad_backbone.ok());

  // Rewrite one meta line of the intact checkpoint per case: each value
  // must come back as InvalidArgument, never as an uncaught exception, a
  // CHECK failure or a huge allocation.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"hidden_dim", "abc"},          // non-numeric
      {"hidden_dim", "64abc"},        // trailing garbage
      {"hidden_dim", "99999999999"},  // overflows int
      {"hidden_dim", "0"},            // dimension below 1
      {"hidden_dim", "1000000"},      // weights beyond the per-matrix cap
      {"feature_dim", "-7"},
      {"num_gnn_layers", "0"},
      {"num_gnn_layers", "2.5"},
      {"num_gnn_layers", "100000"},   // more layers than matrices
      {"dropout", "1"},               // outside [0, 1)
      {"dropout", "-0.5"},
      {"dropout", "nan"},
      {"feature_alpha_d", "x"},       // non-numeric
      {"feature_alpha_degree", "0"},  // non-positive
      {"feature_alpha_l", "-1"},
      {"feature_alpha_l", "inf"},     // non-finite
      {"feature_alpha_d", "nan"},
      {"feature_edge_labels", "1"},   // 8 feature columns for a 7-wide net
  };
  for (const auto& [key, value] : cases) {
    SCOPED_TRACE(key + " " + value);
    const std::string prefix = "meta " + key + " ";
    const size_t begin = contents.find(prefix);
    ASSERT_NE(begin, std::string::npos);
    const size_t end = contents.find('\n', begin);
    std::string tampered = contents;
    tampered.replace(begin, end - begin, prefix + value);
    std::ofstream(path) << tampered;
    auto loaded = RLQVOModel::Load(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
  // The untouched checkpoint still loads.
  std::ofstream(path) << contents;
  EXPECT_TRUE(RLQVOModel::Load(path).ok());
  std::remove(path.c_str());
}

TEST(RobustnessTest, EnumeratorRejectsForeignCandidates) {
  Graph data = RandomData(601);
  Graph q = RandomQuery(data, 602, 4);
  // Candidate ids beyond the data graph must be rejected, not crash.
  CandidateSet cs(q.num_vertices());
  for (VertexId u = 0; u < q.num_vertices(); ++u) {
    cs.Set(u, {data.num_vertices() + 5});
  }
  Enumerator enumerator;
  OrderingContext ctx;
  ctx.query = &q;
  ctx.data = &data;
  ctx.candidates = &cs;
  auto order = RIOrdering().MakeOrder(ctx).ValueOrDie();
  EnumerateOptions opts;
  auto result = enumerator.Run(q, data, cs, order, opts);
  EXPECT_FALSE(result.ok());
}

TEST(RobustnessTest, MatcherPropagatesOrderingFailures) {
  // A matcher whose ordering always fails must return the error, not abort.
  class FailingOrdering : public Ordering {
   public:
    std::string name() const override { return "failing"; }
    Result<std::vector<VertexId>> MakeOrder(const OrderingContext&) override {
      return Status::Internal("injected failure");
    }
  };
  MatcherConfig config;
  config.filter = std::make_shared<LDFFilter>();
  config.ordering = std::make_shared<FailingOrdering>();
  SubgraphMatcher matcher(std::move(config));
  Graph data = RandomData(603);
  Graph q = RandomQuery(data, 604, 4);
  auto stats = matcher.Match(q, data);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().message(), "injected failure");
}

TEST(RobustnessTest, ZeroTimeLimitWorkloadCountsAllUnsolved) {
  // A pipeline whose time limit is consumed by filtering must mark the
  // query unsolved instead of running an unbounded enumeration.
  Graph data = RandomData(605, 300, 8.0, 1);
  QuerySampler sampler(&data, 9);
  Graph q = sampler.SampleQuery(10).ValueOrDie();
  EnumerateOptions opts;
  opts.match_limit = 0;
  opts.time_limit_seconds = 1e-9;
  auto matcher = MakeMatcherByName("Hybrid", opts).ValueOrDie();
  auto stats = matcher->Match(q, data).ValueOrDie();
  EXPECT_FALSE(stats.solved);
  EXPECT_EQ(stats.num_matches, 0u);
}

TEST(RobustnessTest, PolicySurvivesSingleVertexAndEdgeQueries) {
  Graph data = RandomData(606);
  RLQVOModel model;
  GraphBuilder qb1;
  qb1.AddVertex(0);
  Graph q1 = qb1.Build();
  EXPECT_EQ(model.MakeOrder(q1, data).ValueOrDie(),
            (std::vector<VertexId>{0}));
  GraphBuilder qb2;
  qb2.AddVertex(0);
  qb2.AddVertex(1);
  qb2.AddEdge(0, 1);
  Graph q2 = qb2.Build();
  auto order = model.MakeOrder(q2, data).ValueOrDie();
  EXPECT_EQ(order.size(), 2u);
}

TEST(RobustnessTest, SaveToUnwritablePathFails) {
  RLQVOModel model;
  EXPECT_FALSE(model.Save("/nonexistent_dir/deep/model.ckpt").ok());
  Graph g = RandomData(607);
  EXPECT_FALSE(SaveGraphToFile(g, "/nonexistent_dir/deep/g.graph").ok());
}

// --- Table-driven corrupt-input coverage: every case writes the bytes to
// a real file and must come back as a non-OK Status — never a crash, a
// throw, or a silently wrong graph/model. ---

struct CorruptFileCase {
  const char* name;
  std::string contents;
};

TEST(RobustnessTest, CorruptGraphFilesReturnStatusNeverCrash) {
  const CorruptFileCase kCases[] = {
      {"empty", ""},
      {"truncated_header", "t 5"},
      {"truncated_after_header", "t 3 2\nv 0 0 1\nv 1 0"},
      {"binary_garbage", std::string("\x7f\x45\x4c\x46\x02\x01\x01\x00"
                                     "\x00\x00\xff\xfe\xfd",
                                     13)},
      {"oversized_vertex_count", "t 99999999999 0\n"},
      {"vertex_count_wraps_uint32", "t 4294967297 0\nv 0 0 1\n"},
      {"negative_vertex_id", "t 1 0\nv -1 0 1\n"},
      {"negative_edge_endpoint", "t 2 1\nv 0 0 1\nv 1 0 1\ne 0 -1\n"},
      {"edge_count_shortfall", "t 2 5\nv 0 0 1\nv 1 0 1\ne 0 1\n"},
      {"huge_numeric_overflow", "t 999999999999999999999999999 0\n"},
  };
  for (const CorruptFileCase& c : kCases) {
    const std::string path =
        TempPath(std::string("rlqvo_corrupt_graph_") + c.name);
    std::ofstream(path, std::ios::binary) << c.contents;
    auto result = LoadGraphFromFile(path);
    EXPECT_FALSE(result.ok()) << "accepted corrupt graph case: " << c.name;
    std::remove(path.c_str());
  }
}

TEST(RobustnessTest, CorruptCheckpointsReturnStatusNeverCrash) {
  const std::string magic = "RLQVO-MODEL v1\n";
  const CorruptFileCase kCases[] = {
      {"empty", ""},
      {"wrong_magic", "SOME-OTHER-FORMAT v9\n"},
      {"garbage_params_count", magic + "params abc\n"},
      {"negative_params_count", magic + "params -3\n"},
      {"overflowing_params_count",
       magic + "params 99999999999999999999999999\n"},
      {"oversized_matrix_header", magic + "params 1\n99999999 99999999\n"},
      {"short_read_matrix", magic + "params 1\n2 2\n1.0 2.0\n"},
      {"nan_value", magic + "params 1\n1 2\n1.0 nan\n"},
      {"inf_value", magic + "params 1\n1 2\ninf 1.0\n"},
      {"non_numeric_value", magic + "params 1\n1 1\nhello\n"},
  };
  for (const CorruptFileCase& c : kCases) {
    const std::string path =
        TempPath(std::string("rlqvo_corrupt_ckpt_") + c.name);
    std::ofstream(path, std::ios::binary) << c.contents;
    auto direct = nn::LoadCheckpoint(path);
    EXPECT_FALSE(direct.ok()) << "LoadCheckpoint accepted: " << c.name;
    auto model = RLQVOModel::Load(path);
    EXPECT_FALSE(model.ok()) << "RLQVOModel::Load accepted: " << c.name;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace rlqvo
