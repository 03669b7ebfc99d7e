// Tape-free inference path vs the autograd forward: the serving kernels of
// nn/inference.{h,cc} and PolicyNetwork::ForwardInference must produce
// scores bit-identical to the eval-mode (training=false) autograd forward
// across every backbone, layer depth, mask shape and ordering step — and
// must stop allocating once the workspace buffers reach their high-water
// mark. Workspace buffers are poisoned with NaN before every forward, so
// reading a row the row plan skipped, or an entry a kernel expected to be
// zero-filled, breaks the exact comparison. The kernels are pinned bit for
// bit against a naive triple loop, and so are the autograd MatMul's forward
// and both backward products, which run the same matmul kernel.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "nn/autograd.h"
#include "nn/inference.h"
#include "rl/env.h"
#include "rl/policy_network.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

/// Exact equality that also tells +0.0 from -0.0; any two NaNs are equal
/// (payloads are not part of the contract).
::testing::AssertionResult SameDouble(double actual, double expected) {
  if (std::isnan(actual) && std::isnan(expected)) {
    return ::testing::AssertionSuccess();
  }
  if (std::bit_cast<uint64_t>(actual) == std::bit_cast<uint64_t>(expected)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "actual " << actual << " (bits " << std::bit_cast<uint64_t>(actual)
         << ") != expected " << expected << " (bits "
         << std::bit_cast<uint64_t>(expected) << ")";
}

/// All backbones the policy supports (the paper's ablation set).
const std::vector<nn::Backbone> kBackbones = {
    nn::Backbone::kGcn,  nn::Backbone::kMlp,     nn::Backbone::kGat,
    nn::Backbone::kSage, nn::Backbone::kGraphNN, nn::Backbone::kLEConv};

/// A policy of `config` whose bias vectors are random instead of the
/// initial zeros, as after training, so a kernel that drops or misplaces a
/// bias changes the scores.
PolicyNetwork MakePolicy(const PolicyConfig& config) {
  PolicyNetwork policy(config);
  Rng rng(config.init_seed + 1);
  for (nn::Var& param : policy.Parameters()) {
    if (param.rows() == 1) {
      param.SetValue(nn::Matrix::Randn(1, param.cols(), 0.5, &rng));
    }
  }
  return policy;
}

/// Every row index of an n-row matrix.
std::vector<uint32_t> AllRows(size_t n) {
  std::vector<uint32_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

/// Fills every matrix buffer of `ws` with NaN at the largest shape a
/// forward of `policy` on an n-vertex query gives it: n rows, and as many
/// columns as the widest of n (GAT's attention), the hidden and the
/// feature width. Whatever the forward reads without writing it first is
/// then NaN — or +0.0 where a scratch slot that an earlier layer shrank
/// grows back within the forward.
void PoisonWorkspace(const PolicyNetwork& policy, size_t n,
                     nn::InferenceWorkspace* ws) {
  const double nan = std::nan("");
  const size_t width =
      std::max({n, static_cast<size_t>(policy.config().hidden_dim),
                static_cast<size_t>(policy.config().feature_dim)});
  for (size_t slot = 0; slot < nn::InferenceWorkspace::kScratchSlots;
       ++slot) {
    ws->Scratch(slot, n, width)->Fill(nan);
  }
  ws->ping(n, width)->Fill(nan);
  ws->pong(n, width)->Fill(nan);
  ws->hidden(n, width)->Fill(nan);
  ws->scores(n)->Fill(nan);
  ws->log_probs(n)->Fill(nan);
}

/// Asserts inference == autograd (eval mode) on every decision step of an
/// ordering episode driven by the autograd path's argmax, with the
/// workspace poisoned before each inference forward.
void ExpectEpisodeEquivalence(const PolicyNetwork& policy,
                              nn::InferenceWorkspace* ws, const Graph& query,
                              const Graph& data) {
  OrderingEnv env(&query, &data, FeatureConfig{});
  while (!env.Done()) {
    const VertexId sole = env.SoleAction();
    if (sole != kInvalidVertex) {
      env.Step(sole);
      continue;
    }
    const auto autograd = policy.Forward(env.tensors(), env.FeaturesView(),
                                         env.ActionMask(), /*training=*/false,
                                         nullptr);
    PoisonWorkspace(policy, query.num_vertices(), ws);
    const auto inference = policy.ForwardInference(
        ws, env.tensors(), env.FeaturesView(), env.ActionMask());
    const uint32_t n = query.num_vertices();
    ASSERT_EQ(inference.raw_scores->rows(), n);
    ASSERT_EQ(inference.log_probs->rows(), n);
    VertexId argmax = kInvalidVertex;
    double best = -1e300;
    for (VertexId u = 0; u < n; ++u) {
      // log_probs are valid (and must agree) everywhere; raw scores only at
      // action-space rows — the serving head computes nothing else.
      EXPECT_TRUE(SameDouble(inference.log_probs->At(u, 0),
                             autograd.log_probs.value().At(u, 0)))
          << "log_prob of vertex " << u;
      if (!env.ActionMask()[u]) continue;
      EXPECT_TRUE(SameDouble(inference.raw_scores->At(u, 0),
                             autograd.raw_scores.value().At(u, 0)))
          << "raw score of vertex " << u;
      if (autograd.log_probs.value().At(u, 0) > best) {
        best = autograd.log_probs.value().At(u, 0);
        argmax = u;
      }
    }
    ASSERT_NE(argmax, kInvalidVertex);
    env.Step(argmax);
  }
}

TEST(InferenceEquivalence, AllBackbonesRandomizedQueries) {
  const Graph data = RandomData(/*seed=*/11, /*n=*/80, /*avg_degree=*/5.0,
                                /*labels=*/4);
  for (nn::Backbone backbone : kBackbones) {
    PolicyConfig config;
    config.backbone = backbone;
    config.hidden_dim = 16;
    config.init_seed = 5 + static_cast<uint64_t>(backbone);
    const PolicyNetwork policy = MakePolicy(config);
    nn::InferenceWorkspace ws;
    for (uint64_t seed = 0; seed < 4; ++seed) {
      const Graph query =
          RandomQuery(data, 100 + seed, /*size=*/4 + 3 * (seed % 3));
      SCOPED_TRACE(nn::BackboneName(backbone) + " seed " +
                   std::to_string(seed));
      ExpectEpisodeEquivalence(policy, &ws, query, data);
    }
  }
}

TEST(InferenceEquivalence, DeeperStacksAndWiderHidden) {
  const Graph data = RandomData(/*seed=*/13, /*n=*/70);
  for (int layers : {1, 3}) {
    for (int hidden : {8, 48}) {
      PolicyConfig config;
      config.num_gnn_layers = layers;
      config.hidden_dim = hidden;
      const PolicyNetwork policy = MakePolicy(config);
      nn::InferenceWorkspace ws;
      const Graph query = RandomQuery(data, 31 * layers + hidden, 8);
      SCOPED_TRACE("layers=" + std::to_string(layers) +
                   " hidden=" + std::to_string(hidden));
      ExpectEpisodeEquivalence(policy, &ws, query, data);
    }
  }
}

TEST(InferenceEquivalence, DropoutConfigIsInertAtInference) {
  // Dropout only applies in training mode; a policy configured with heavy
  // dropout must still match the eval-mode forward exactly.
  PolicyConfig config;
  config.dropout = 0.9;
  const PolicyNetwork policy = MakePolicy(config);
  nn::InferenceWorkspace ws;
  const Graph data = RandomData(/*seed=*/17, /*n=*/50);
  const Graph query = RandomQuery(data, 23, 6);
  ExpectEpisodeEquivalence(policy, &ws, query, data);
}

TEST(InferenceWorkspace, SteadyStateIsAllocationFree) {
  PolicyConfig config;
  config.backbone = nn::Backbone::kGat;  // exercises the (n, n) scratch too
  const PolicyNetwork policy = MakePolicy(config);
  nn::InferenceWorkspace ws;
  const Graph data = RandomData(/*seed=*/19, /*n=*/90);
  // Warm up at the largest query size the steady state will see.
  const Graph big = RandomQuery(data, 41, 12);
  ExpectEpisodeEquivalence(policy, &ws, big, data);
  const uint64_t grows_after_warmup = ws.buffer_grows();
  EXPECT_GT(grows_after_warmup, 0u);
  // Steady state: repeated inference at or below the high-water mark must
  // never grow a buffer again.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    const Graph query = RandomQuery(data, 50 + seed, 4 + seed % 9);
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
  EXPECT_EQ(ws.buffer_grows(), grows_after_warmup);
}

TEST(InferenceRowPlan, FirstLayerSkipsRowsOutsideTheActionNeighbourhood) {
  // A 32-vertex path whose action space is one end vertex: the head and
  // the last layer need row 0 only, so the first layer computes the closed
  // neighbourhood {0, 1} (just {0} for MlpConv) and must leave every other
  // row of its output as the poisoned workspace held it.
  const Graph data = RandomData(/*seed=*/37, /*n=*/120, /*avg_degree=*/5.0,
                                /*labels=*/4);
  GraphBuilder builder;
  for (uint32_t v = 0; v < 32; ++v) builder.AddVertex(v % 4);
  for (uint32_t v = 0; v + 1 < 32; ++v) builder.AddEdge(v, v + 1);
  const Graph path = builder.Build();
  const nn::GraphTensors tensors = BuildGraphTensors(path);
  const nn::Matrix features =
      FeatureBuilder(&path, &data, FeatureConfig{})
          .Build(std::vector<bool>(32, false), 0);
  std::vector<bool> mask(32, false);
  mask[0] = true;
  for (nn::Backbone backbone : kBackbones) {
    SCOPED_TRACE(nn::BackboneName(backbone));
    PolicyConfig config;
    config.backbone = backbone;
    config.num_gnn_layers = 2;
    config.hidden_dim = 64;
    const PolicyNetwork policy = MakePolicy(config);
    nn::InferenceWorkspace ws;
    PoisonWorkspace(policy, 32, &ws);
    const auto inference =
        policy.ForwardInference(&ws, tensors, features, mask);
    const auto autograd =
        policy.Forward(tensors, features, mask, /*training=*/false, nullptr);
    EXPECT_TRUE(SameDouble(inference.raw_scores->At(0, 0),
                           autograd.raw_scores.value().At(0, 0)));
    // The first graph layer writes the ping buffer; reshaping it to the
    // shape it already has leaves its contents as the forward left them.
    const nn::Matrix& first = *ws.ping(32, 64);
    const uint32_t computed = backbone == nn::Backbone::kMlp ? 1 : 2;
    for (uint32_t r = 0; r < 32; ++r) {
      for (size_t c = 0; c < 64; ++c) {
        ASSERT_EQ(std::isnan(first.At(r, c)), r >= computed)
            << "row " << r << " column " << c;
      }
    }
  }
}

TEST(InferenceEquivalence, PaperDefaultOn32VertexQueries) {
  // The paper's architecture (2 layers, hidden 64) is the only shape whose
  // 64-wide matmuls run full 32-column register tiles; pin it on every
  // backbone at the paper's largest query size.
  const Graph data = RandomData(/*seed=*/29, /*n=*/160, /*avg_degree=*/6.0,
                                /*labels=*/4);
  for (nn::Backbone backbone : kBackbones) {
    PolicyConfig config;
    config.backbone = backbone;
    config.num_gnn_layers = 2;
    config.hidden_dim = 64;
    config.init_seed = 11 + static_cast<uint64_t>(backbone);
    const PolicyNetwork policy = MakePolicy(config);
    nn::InferenceWorkspace ws;
    const Graph query =
        RandomQuery(data, 400 + static_cast<uint64_t>(backbone), 32);
    ASSERT_EQ(query.num_vertices(), 32u);
    SCOPED_TRACE(nn::BackboneName(backbone));
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
}

TEST(InferenceEquivalence, RolloutScoringIsTheEvalForward) {
  // PPO's rollouts score each step with ForwardInference over every row,
  // because the validity reward reads the unmasked argmax, and take the
  // log-probabilities from MaskedLogSoftmaxInto over the action mask. The
  // raw scores at every row and the log-probabilities at the action rows
  // must equal the eval-mode autograd Forward's bit for bit.
  const Graph data = RandomData(/*seed=*/43, /*n=*/200, /*avg_degree=*/3.0,
                                /*labels=*/4);
  for (nn::Backbone backbone : kBackbones) {
    SCOPED_TRACE(nn::BackboneName(backbone));
    PolicyConfig config;
    config.backbone = backbone;
    config.hidden_dim = 32;
    config.init_seed = 17 + static_cast<uint64_t>(backbone);
    const PolicyNetwork policy = MakePolicy(config);
    const Graph query =
        RandomQuery(data, 600 + static_cast<uint64_t>(backbone), 24);
    const size_t n = query.num_vertices();
    const std::vector<bool> every_row(n, true);
    nn::InferenceWorkspace ws;
    nn::Matrix log_probs(n, 1);
    OrderingEnv env(&query, &data, FeatureConfig{});
    size_t steps = 0;
    while (!env.Done()) {
      const std::vector<bool>& mask = env.ActionMask();
      const auto autograd = policy.Forward(env.tensors(), env.FeaturesView(),
                                           mask, /*training=*/false, nullptr);
      PoisonWorkspace(policy, n, &ws);
      log_probs.Fill(std::nan(""));
      const auto inference = policy.ForwardInference(
          &ws, env.tensors(), env.FeaturesView(), every_row);
      nn::MaskedLogSoftmaxInto(*inference.raw_scores, mask, &log_probs);
      VertexId argmax = kInvalidVertex;
      for (VertexId u = 0; u < n; ++u) {
        EXPECT_TRUE(SameDouble(inference.raw_scores->At(u, 0),
                               autograd.raw_scores.value().At(u, 0)))
            << "raw score of vertex " << u << " at step " << env.step();
        if (!mask[u]) continue;
        EXPECT_TRUE(SameDouble(log_probs.At(u, 0),
                               autograd.log_probs.value().At(u, 0)))
            << "log_prob of vertex " << u << " at step " << env.step();
        if (argmax == kInvalidVertex ||
            log_probs.At(u, 0) > log_probs.At(argmax, 0)) {
          argmax = u;
        }
      }
      ASSERT_NE(argmax, kInvalidVertex);
      env.Step(argmax);
      ++steps;
    }
    EXPECT_EQ(steps, n);
  }
}

/// The matmul sum, written out: ascending k, zero lhs coefficients skipped,
/// multiply then add into a +0.0-initialised sum. The autograd MatMul and
/// MatMulInto run one kernel, so this loop is the only independent
/// reference for that sum: it must never call nn::MatMul.
nn::Matrix NaiveMatMul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      if (a.At(i, k) == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += a.At(i, k) * b.At(k, j);
      }
    }
  }
  return out;
}

/// Random (rows, cols) matrix with about half its entries zero (a mix of
/// +0.0 and -0.0) and row `zero_row` all zero.
nn::Matrix SparseRandom(size_t rows, size_t cols, size_t zero_row, Rng* rng) {
  nn::Matrix m = nn::Matrix::Randn(rows, cols, 1.0, rng);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (r == zero_row || rng->NextBool()) {
        m.At(r, c) = rng->NextBool() ? 0.0 : -0.0;
      }
    }
  }
  return m;
}

/// Runs MatMulInto on a NaN-filled buffer and checks it bit for bit against
/// the naive loop (and the autograd MatMul) — followed by the autograd
/// AddRowBroadcast when `bias` is non-null and Relu when `relu` — at every
/// row in `rows`; every other row must keep its NaN.
void ExpectMatMulIntoExact(const nn::Matrix& a, const nn::Matrix& b,
                           const std::vector<uint32_t>& rows,
                           const nn::Matrix* bias = nullptr,
                           bool relu = false) {
  const nn::Matrix naive = NaiveMatMul(a, b);
  const nn::Matrix autograd = nn::MatMul(a, b);
  nn::Var expected = nn::Var::Constant(naive);
  if (bias != nullptr) {
    expected = nn::AddRowBroadcast(expected, nn::Var::Constant(*bias));
  }
  if (relu) expected = nn::Relu(expected);
  nn::Matrix out(a.rows(), b.cols(), std::nan(""));
  nn::MatMulInto(a, b, rows, &out, bias, relu);
  std::vector<bool> active(a.rows(), false);
  for (uint32_t r : rows) active[r] = true;
  for (size_t r = 0; r < naive.rows(); ++r) {
    for (size_t c = 0; c < naive.cols(); ++c) {
      ASSERT_TRUE(SameDouble(autograd.At(r, c), naive.At(r, c)))
          << "autograd MatMul at (" << r << ", " << c << ")";
      if (active[r]) {
        ASSERT_TRUE(SameDouble(out.At(r, c), expected.value().At(r, c)))
            << "(" << r << ", " << c << ")";
      } else {
        ASSERT_TRUE(std::isnan(out.At(r, c)))
            << "(" << r << ", " << c << ") inactive, overwritten";
      }
    }
  }
}

TEST(InferenceKernels, MatMulIntoMatchesNaiveLoopBitForBit) {
  Rng rng(3);
  const size_t kRows = 6;
  const double nan = std::nan("");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Bias entries cycle through the values an epilogue can get wrong: -0.0
  // (on the all-zero row the sum is +0.0, and +0.0 + -0.0 = +0.0 — a tile
  // seeded with the bias would store -0.0), NaN and ±inf pre-activations
  // (ReLU keeps NaN and +inf, maps -inf to +0.0), then random values that
  // leave some sums negative and some positive.
  const std::vector<double> special_bias = {-0.0, 0.0, nan, kInf, -kInf};
  // Inner widths: one coefficient, a feature-sized row, a query-sized row,
  // and one wider than a single compaction pass.
  for (size_t inner : {1, 7, 40, 300}) {
    for (size_t width :
         {1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65}) {
      SCOPED_TRACE("inner " + std::to_string(inner) + " width " +
                   std::to_string(width));
      const nn::Matrix a = SparseRandom(kRows, inner, /*zero_row=*/2, &rng);
      const nn::Matrix b = SparseRandom(inner, width, /*zero_row=*/0, &rng);
      nn::Matrix bias = nn::Matrix::Randn(1, width, 1.0, &rng);
      for (size_t c = 0; c < width; c += 2) {
        bias.At(0, c) = special_bias[(c / 2) % special_bias.size()];
      }
      for (const std::vector<uint32_t>& rows :
           {AllRows(kRows), std::vector<uint32_t>{0, 3, 5}}) {
        SCOPED_TRACE(std::to_string(rows.size()) + " rows");
        ExpectMatMulIntoExact(a, b, rows);
        ExpectMatMulIntoExact(a, b, rows, nullptr, /*relu=*/true);
        ExpectMatMulIntoExact(a, b, rows, &bias, /*relu=*/false);
        ExpectMatMulIntoExact(a, b, rows, &bias, /*relu=*/true);
      }
    }
  }
}

/// `actual` has `expected`'s shape and SameDouble entries.
void ExpectSameMatrix(const nn::Matrix& actual, const nn::Matrix& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t r = 0; r < expected.rows(); ++r) {
    for (size_t c = 0; c < expected.cols(); ++c) {
      ASSERT_TRUE(SameDouble(actual.At(r, c), expected.At(r, c)))
          << "(" << r << ", " << c << ")";
    }
  }
}

TEST(AutogradMatMul, ForwardAndBackwardProductsMatchNaiveLoopBitForBit) {
  // Training runs the serving kernel in Var MatMul's forward and in both
  // backward products, G · Bᵀ and Aᵀ · G. Every operand holds ±0 (about
  // half its entries) and one NaN, one +inf and one -inf: a kept zero
  // coefficient turns an infinite rhs entry into NaN, and a NaN or
  // infinite coefficient must propagate.
  Rng rng(17);
  const size_t kRows = 6;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto special = [&rng](size_t rows, size_t cols) {
    nn::Matrix m = SparseRandom(rows, cols, /*zero_row=*/rows - 1, &rng);
    for (const double v : {std::nan(""), kInf, -kInf}) {
      m.At(rng.NextBounded(rows), rng.NextBounded(cols)) = v;
    }
    return m;
  };
  for (size_t inner : {1, 7, 40, 300}) {
    for (size_t width :
         {1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65}) {
      SCOPED_TRACE("inner " + std::to_string(inner) + " width " +
                   std::to_string(width));
      const nn::Matrix a = special(kRows, inner);
      const nn::Matrix b = special(inner, width);
      const nn::Matrix g = special(kRows, width);
      const nn::Var va = nn::Var::Leaf(a, /*requires_grad=*/true);
      const nn::Var vb = nn::Var::Leaf(b, /*requires_grad=*/true);
      const nn::Var y = nn::MatMul(va, vb);
      ExpectSameMatrix(y.value(), NaiveMatMul(a, b));
      // Hand y the upstream gradient G and run its backward step. Each
      // leaf's gradient starts at +0.0, and +0.0 + x is x bit for bit: a
      // sum that starts at +0.0 is never -0.0.
      y.node()->grad = g;
      y.node()->backward(y.node().get());
      ExpectSameMatrix(va.grad(), NaiveMatMul(g, nn::Transpose(b)));
      ExpectSameMatrix(vb.grad(), NaiveMatMul(nn::Transpose(a), g));
    }
  }
}

TEST(AutogradMatMul, EmptyShapes) {
  // 0 rows, 0 inner and 0 columns. An empty inner dimension sums nothing,
  // so every output entry is +0.0; the gradients of Sum(A · B) are
  // ones · Bᵀ and Aᵀ · ones, each empty or all +0.0 too.
  Rng rng(19);
  for (const auto& [rows, inner, cols] :
       std::vector<std::array<size_t, 3>>{{0, 3, 4}, {2, 0, 4}, {2, 3, 0}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(inner) + "x" +
                 std::to_string(cols));
    const nn::Matrix a = nn::Matrix::Randn(rows, inner, 1.0, &rng);
    const nn::Matrix b = nn::Matrix::Randn(inner, cols, 1.0, &rng);
    const nn::Matrix zeros(rows, cols, 0.0);
    ExpectSameMatrix(nn::MatMul(a, b), zeros);
    ExpectSameMatrix(NaiveMatMul(a, b), zeros);
    const nn::Var va = nn::Var::Leaf(a, /*requires_grad=*/true);
    const nn::Var vb = nn::Var::Leaf(b, /*requires_grad=*/true);
    const nn::Var y = nn::MatMul(va, vb);
    ExpectSameMatrix(y.value(), zeros);
    nn::Backward(nn::Sum(y));
    const nn::Matrix ones = nn::Matrix::Ones(rows, cols);
    ExpectSameMatrix(va.node()->grad, NaiveMatMul(ones, nn::Transpose(b)));
    ExpectSameMatrix(vb.node()->grad, NaiveMatMul(nn::Transpose(a), ones));
  }
}

TEST(InferenceKernels, MatMulIntoSignedZeros) {
  // Every product is a signed zero: the sum starts at +0.0 and
  // +0.0 + -0.0 = +0.0, so the output is +0.0 even though each product is
  // -0.0 — unless a tile seeded its sum with the first product.
  nn::Matrix a(2, 3);
  a.At(0, 0) = 2.0;
  a.At(0, 1) = -0.0;  // skipped like +0.0
  a.At(0, 2) = -1.0;
  a.At(1, 1) = 3.0;
  for (size_t width : {1, 5, 33}) {
    SCOPED_TRACE("width " + std::to_string(width));
    nn::Matrix b(3, width);
    for (size_t c = 0; c < width; ++c) {
      b.At(0, c) = -0.0;
      b.At(1, c) = c % 2 == 0 ? 0.0 : -0.0;
      b.At(2, c) = 0.0;
    }
    ExpectMatMulIntoExact(a, b, AllRows(2));
    nn::Matrix out(2, width, -0.0);
    nn::MatMulInto(a, b, AllRows(2), &out);
    for (size_t c = 0; c < width; ++c) {
      EXPECT_FALSE(std::signbit(out.At(0, c))) << c;
      EXPECT_FALSE(std::signbit(out.At(1, c))) << c;
    }
  }
}

TEST(InferenceKernels, MatMulIntoSkipsOrPropagatesNonFiniteRhsRows) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  // `pad` leading zero coefficients shift the interesting ones across the
  // 4-wide vector compaction and its scalar tail.
  for (size_t pad : {0, 1, 3}) {
    for (size_t width : {1, 3, 4, 17, 32, 65}) {
      SCOPED_TRACE("pad " + std::to_string(pad) + " width " +
                   std::to_string(width));
      // rhs row pad+1 holds ±inf, row pad+2 NaN; the others are finite.
      nn::Matrix b(pad + 4, width, 0.75);
      for (size_t c = 0; c < width; ++c) {
        b.At(pad, c) = 0.5 + static_cast<double>(c);
        b.At(pad + 1, c) = c % 2 == 0 ? kInf : -kInf;
        b.At(pad + 2, c) = nan;
        b.At(pad + 3, c) = -1.25;
      }
      nn::Matrix a(4, pad + 4);
      // Row 0: zero (+0 and -0) coefficients on the non-finite rows — they
      // must be skipped, so the output stays finite.
      a.At(0, pad) = 1.5;
      a.At(0, pad + 1) = 0.0;
      a.At(0, pad + 2) = -0.0;
      a.At(0, pad + 3) = 2.0;
      // Row 1: a nonzero coefficient on the inf row propagates inf.
      a.At(1, pad + 1) = -3.0;
      a.At(1, pad + 3) = 1.0;
      // Row 2: a nonzero coefficient on the NaN row propagates NaN.
      a.At(2, pad) = 1.0;
      a.At(2, pad + 2) = 0.25;
      // Row 3: a NaN coefficient is not zero and propagates too (placed
      // last, so pads 1 and 3 put it in the scalar tail).
      a.At(3, pad + 3) = nan;
      ExpectMatMulIntoExact(a, b, AllRows(4));
      nn::Matrix out(4, width);
      nn::MatMulInto(a, b, AllRows(4), &out);
      for (size_t c = 0; c < width; ++c) {
        EXPECT_TRUE(std::isfinite(out.At(0, c))) << c;
        EXPECT_TRUE(std::isinf(out.At(1, c))) << c;
        EXPECT_TRUE(std::isnan(out.At(2, c))) << c;
        EXPECT_TRUE(std::isnan(out.At(3, c))) << c;
      }
    }
  }
}

TEST(InferenceKernels, ReluInPlacePropagatesNanLikeAutograd) {
  const double nan = std::nan("");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<double> in = {-2.0, -0.0, 0.0, 3.5, nan, -kInf, kInf};
  const std::vector<double> want = {0.0, -0.0, 0.0, 3.5, nan, 0.0, kInf};
  nn::Matrix x(2, in.size());
  for (size_t c = 0; c < in.size(); ++c) x.At(0, c) = x.At(1, c) = in[c];
  const nn::Var autograd = nn::Relu(nn::Var::Constant(x));
  nn::Matrix full = x;
  nn::ReluInPlace(&full, AllRows(2));
  nn::Matrix restricted = x;
  const std::vector<uint32_t> rows = {1};
  nn::ReluInPlace(&restricted, rows);
  for (size_t c = 0; c < in.size(); ++c) {
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_TRUE(SameDouble(full.At(r, c), want[c])) << c;
      EXPECT_TRUE(SameDouble(autograd.value().At(r, c), want[c])) << c;
    }
    EXPECT_TRUE(SameDouble(restricted.At(0, c), in[c])) << "inactive " << c;
    EXPECT_TRUE(SameDouble(restricted.At(1, c), want[c])) << c;
  }
}

TEST(InferenceKernels, MaskedLogSoftmaxMatchesAutogradOp) {
  Rng rng(5);
  const nn::Matrix scores = nn::Matrix::Randn(9, 1, 2.0, &rng);
  std::vector<bool> mask(9, false);
  mask[1] = mask[4] = mask[8] = true;
  const nn::Var autograd =
      nn::MaskedLogSoftmax(nn::Var::Constant(scores), mask);
  nn::Matrix out(9, 1, std::nan(""));
  nn::MaskedLogSoftmaxInto(scores, mask, &out);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_TRUE(SameDouble(out.At(i, 0), autograd.value().At(i, 0))) << i;
  }
}

}  // namespace
}  // namespace rlqvo
