// Tape-free inference path vs the autograd forward: the serving kernels of
// nn/inference.{h,cc} and PolicyNetwork::ForwardInference must produce
// scores bit-identical to the eval-mode (training=false) autograd forward
// across every backbone, layer depth, mask shape and ordering step — and
// must stop allocating once the workspace buffers reach their high-water
// mark. The kernels are pinned bit for bit against a naive triple loop.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
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

/// Asserts inference == autograd (eval mode) on every decision step of an
/// ordering episode driven by the autograd path's argmax.
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
    PolicyNetwork policy(config);
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
      PolicyNetwork policy(config);
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
  PolicyNetwork policy(config);
  nn::InferenceWorkspace ws;
  const Graph data = RandomData(/*seed=*/17, /*n=*/50);
  const Graph query = RandomQuery(data, 23, 6);
  ExpectEpisodeEquivalence(policy, &ws, query, data);
}

TEST(InferenceWorkspace, SteadyStateIsAllocationFree) {
  PolicyConfig config;
  config.backbone = nn::Backbone::kGat;  // exercises the (n, n) scratch too
  PolicyNetwork policy(config);
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
    PolicyNetwork policy(config);
    nn::InferenceWorkspace ws;
    const Graph query =
        RandomQuery(data, 400 + static_cast<uint64_t>(backbone), 32);
    ASSERT_EQ(query.num_vertices(), 32u);
    SCOPED_TRACE(nn::BackboneName(backbone));
    ExpectEpisodeEquivalence(policy, &ws, query, data);
  }
}

/// The autograd MatMul's definition, written out: ascending k, zero lhs
/// coefficients skipped, multiply then add into a +0.0-initialised sum.
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

/// Runs MatMulInto on a workspace buffer and checks it bit for bit against
/// the naive loop (and the autograd MatMul) at every active row; inactive
/// rows must stay untouched (+0.0).
void ExpectMatMulIntoExact(const nn::Matrix& a, const nn::Matrix& b,
                           const std::vector<bool>* out_rows) {
  const nn::Matrix expected = NaiveMatMul(a, b);
  const nn::Matrix autograd = nn::MatMul(a, b);
  nn::InferenceWorkspace ws;
  nn::Matrix* out = ws.Scratch(0, a.rows(), b.cols());
  nn::MatMulInto(a, b, out, out_rows);
  for (size_t r = 0; r < expected.rows(); ++r) {
    const bool active = out_rows == nullptr || (*out_rows)[r];
    for (size_t c = 0; c < expected.cols(); ++c) {
      ASSERT_TRUE(SameDouble(autograd.At(r, c), expected.At(r, c)))
          << "autograd MatMul at (" << r << ", " << c << ")";
      ASSERT_TRUE(SameDouble(out->At(r, c), active ? expected.At(r, c) : 0.0))
          << "(" << r << ", " << c << ")" << (active ? "" : " inactive");
    }
  }
}

TEST(InferenceKernels, MatMulIntoMatchesNaiveLoopBitForBit) {
  Rng rng(3);
  const size_t kRows = 6;
  // Inner widths: one coefficient, a feature-sized row, a query-sized row,
  // and one wider than a single compaction pass.
  for (size_t inner : {1, 7, 40, 300}) {
    for (size_t width :
         {1, 3, 4, 5, 7, 8, 15, 16, 17, 31, 32, 33, 63, 64, 65}) {
      SCOPED_TRACE("inner " + std::to_string(inner) + " width " +
                   std::to_string(width));
      const nn::Matrix a = SparseRandom(kRows, inner, /*zero_row=*/2, &rng);
      const nn::Matrix b = SparseRandom(inner, width, /*zero_row=*/0, &rng);
      ExpectMatMulIntoExact(a, b, nullptr);
      std::vector<bool> rows(kRows, false);
      rows[0] = rows[3] = rows[5] = true;
      ExpectMatMulIntoExact(a, b, &rows);
    }
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
    ExpectMatMulIntoExact(a, b, nullptr);
    nn::InferenceWorkspace ws;
    nn::Matrix* out = ws.Scratch(0, 2, width);
    nn::MatMulInto(a, b, out);
    for (size_t c = 0; c < width; ++c) {
      EXPECT_FALSE(std::signbit(out->At(0, c))) << c;
      EXPECT_FALSE(std::signbit(out->At(1, c))) << c;
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
      ExpectMatMulIntoExact(a, b, nullptr);
      nn::InferenceWorkspace ws;
      nn::Matrix* out = ws.Scratch(0, 4, width);
      nn::MatMulInto(a, b, out);
      for (size_t c = 0; c < width; ++c) {
        EXPECT_TRUE(std::isfinite(out->At(0, c))) << c;
        EXPECT_TRUE(std::isinf(out->At(1, c))) << c;
        EXPECT_TRUE(std::isnan(out->At(2, c))) << c;
        EXPECT_TRUE(std::isnan(out->At(3, c))) << c;
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
  nn::ReluInPlace(&full);
  nn::Matrix restricted = x;
  const std::vector<bool> rows = {false, true};
  nn::ReluInPlace(&restricted, &rows);
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
  nn::InferenceWorkspace ws;
  nn::Matrix* out = ws.Scratch(0, 9, 1);
  nn::MaskedLogSoftmaxInto(scores, mask, out);
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_TRUE(SameDouble(out->At(i, 0), autograd.value().At(i, 0))) << i;
  }
}

}  // namespace
}  // namespace rlqvo
