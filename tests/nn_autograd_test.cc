#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "nn/autograd.h"

namespace rlqvo {
namespace nn {
namespace {

/// Checks d(f)/d(leaf) against central finite differences for every entry.
void CheckGradient(Var leaf, const std::function<Var()>& forward,
                   double eps = 1e-6, double tol = 1e-5) {
  leaf.ZeroGrad();
  Var loss = forward();
  Backward(loss);
  Matrix analytic = leaf.grad();
  ASSERT_FALSE(analytic.empty());

  Matrix base = leaf.value();
  for (size_t i = 0; i < base.values().size(); ++i) {
    Matrix plus = base;
    plus.values()[i] += eps;
    leaf.SetValue(plus);
    const double f_plus = forward().value().At(0, 0);
    Matrix minus = base;
    minus.values()[i] -= eps;
    leaf.SetValue(minus);
    const double f_minus = forward().value().At(0, 0);
    leaf.SetValue(base);
    const double numeric = (f_plus - f_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic.values()[i], numeric, tol)
        << "entry " << i << " of " << base.rows() << "x" << base.cols();
  }
}

Matrix Arange(size_t rows, size_t cols, double start = 0.1,
              double step = 0.3) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.values().size(); ++i) {
    m.values()[i] = start + step * static_cast<double>(i) *
                                ((i % 2 == 0) ? 1.0 : -1.0);
  }
  return m;
}

TEST(AutogradTest, LeafProperties) {
  Var constant = Var::Constant(Matrix::Ones(2, 2));
  EXPECT_FALSE(constant.requires_grad());
  Var param = Var::Leaf(Matrix::Ones(2, 2), true);
  EXPECT_TRUE(param.requires_grad());
  EXPECT_TRUE(param.grad().empty());
}

TEST(AutogradTest, SumBackward) {
  Var x = Var::Leaf(Arange(2, 3), true);
  CheckGradient(x, [&] { return Sum(x); });
}

TEST(AutogradTest, MeanBackward) {
  Var x = Var::Leaf(Arange(2, 3), true);
  CheckGradient(x, [&] { return Mean(x); });
}

TEST(AutogradTest, MatMulBackwardBothSides) {
  Var a = Var::Leaf(Arange(2, 3), true);
  Var b = Var::Leaf(Arange(3, 2, 0.2, 0.1), true);
  CheckGradient(a, [&] { return Sum(MatMul(a, b)); });
  CheckGradient(b, [&] { return Sum(MatMul(a, b)); });
}

TEST(AutogradTest, AddSubHadamard) {
  Var a = Var::Leaf(Arange(2, 2), true);
  Var b = Var::Leaf(Arange(2, 2, 0.4, 0.2), true);
  CheckGradient(a, [&] { return Sum(Add(a, b)); });
  CheckGradient(b, [&] { return Sum(Sub(a, b)); });
  CheckGradient(a, [&] { return Sum(Hadamard(a, b)); });
}

TEST(AutogradTest, AddRowBroadcastBias) {
  Var x = Var::Leaf(Arange(3, 2), true);
  Var bias = Var::Leaf(Arange(1, 2, 0.5, 0.3), true);
  CheckGradient(x, [&] { return Sum(AddRowBroadcast(x, bias)); });
  CheckGradient(bias, [&] { return Sum(AddRowBroadcast(x, bias)); });
}

TEST(AutogradTest, ScaleAddScalarNeg) {
  Var x = Var::Leaf(Arange(2, 2), true);
  CheckGradient(x, [&] { return Sum(Scale(x, -2.5)); });
  CheckGradient(x, [&] { return Sum(AddScalar(x, 3.0)); });
  CheckGradient(x, [&] { return Sum(Neg(x)); });
}

TEST(AutogradTest, ActivationGradients) {
  // Values chosen away from the ReLU kink.
  Var x = Var::Leaf(Arange(2, 3, 0.3, 0.37), true);
  CheckGradient(x, [&] { return Sum(Relu(x)); });
  CheckGradient(x, [&] { return Sum(LeakyRelu(x, 0.1)); });
  CheckGradient(x, [&] { return Sum(Tanh(x)); });
  CheckGradient(x, [&] { return Sum(Exp(x)); });
}

TEST(AutogradTest, LogGradient) {
  Matrix positive(2, 2);
  positive.values() = {0.5, 1.5, 2.5, 0.7};
  Var x = Var::Leaf(positive, true);
  CheckGradient(x, [&] { return Sum(Log(x)); });
}

TEST(AutogradTest, PickGradient) {
  Var x = Var::Leaf(Arange(3, 3), true);
  CheckGradient(x, [&] { return Pick(x, 1, 2); });
}

TEST(AutogradTest, TransposeGradient) {
  Var x = Var::Leaf(Arange(2, 3), true);
  Var w = Var::Constant(Arange(2, 1, 0.2, 0.5));
  CheckGradient(x, [&] { return Sum(MatMul(Transpose(x), w)); });
}

TEST(AutogradTest, MinRoutesGradient) {
  Matrix av(1, 3);
  av.values() = {1.0, 5.0, 2.0};
  Matrix bv(1, 3);
  bv.values() = {2.0, 3.0, 2.5};
  Var a = Var::Leaf(av, true);
  Var b = Var::Leaf(bv, true);
  Var loss = Sum(Min(a, b));
  Backward(loss);
  EXPECT_EQ(a.grad().values(), (std::vector<double>{1.0, 0.0, 1.0}));
  EXPECT_EQ(b.grad().values(), (std::vector<double>{0.0, 1.0, 0.0}));
}

TEST(AutogradTest, ClipBlocksGradientOutside) {
  Matrix xv(1, 3);
  xv.values() = {-2.0, 0.5, 3.0};
  Var x = Var::Leaf(xv, true);
  Var loss = Sum(Clip(x, 0.0, 1.0));
  Backward(loss);
  EXPECT_EQ(x.grad().values(), (std::vector<double>{0.0, 1.0, 0.0}));
}

TEST(AutogradTest, MaskedLogSoftmaxIsNormalized) {
  Var x = Var::Leaf(Arange(4, 1), true);
  std::vector<bool> mask = {true, false, true, true};
  Var lp = MaskedLogSoftmax(x, mask);
  double total = 0.0;
  for (size_t i = 0; i < 4; ++i) {
    if (mask[i]) {
      total += std::exp(lp.value().At(i, 0));
    } else {
      EXPECT_DOUBLE_EQ(lp.value().At(i, 0), kMaskedLogProb);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(AutogradTest, MaskedLogSoftmaxGradient) {
  Var x = Var::Leaf(Arange(4, 1), true);
  std::vector<bool> mask = {true, false, true, true};
  // Loss touches only masked entries (the unmasked one is a constant).
  CheckGradient(x, [&] {
    Var lp = MaskedLogSoftmax(x, mask);
    return Add(Pick(lp, 0, 0), Pick(lp, 2, 0));
  });
}

TEST(AutogradTest, MaskedRowSoftmaxRowsSumToOne) {
  Var x = Var::Leaf(Arange(3, 3), true);
  Matrix mask(3, 3);
  mask.values() = {1, 1, 0, 0, 1, 1, 1, 1, 1};
  Var sm = MaskedRowSoftmax(x, mask);
  for (size_t r = 0; r < 3; ++r) {
    double row = 0.0;
    for (size_t c = 0; c < 3; ++c) row += sm.value().At(r, c);
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
  EXPECT_DOUBLE_EQ(sm.value().At(0, 2), 0.0);
}

TEST(AutogradTest, MaskedRowSoftmaxGradient) {
  Var x = Var::Leaf(Arange(3, 3), true);
  Matrix mask(3, 3);
  mask.values() = {1, 1, 0, 0, 1, 1, 1, 1, 1};
  Var weights = Var::Constant(Arange(3, 3, 0.3, 0.2));
  CheckGradient(x,
                [&] { return Sum(Hadamard(MaskedRowSoftmax(x, mask), weights)); });
}

TEST(AutogradTest, DropoutEvalIsIdentity) {
  Var x = Var::Leaf(Arange(2, 2), true);
  Var y = Dropout(x, 0.5, nullptr, /*training=*/false);
  EXPECT_EQ(y.value().values(), x.value().values());
}

TEST(AutogradTest, DropoutTrainScalesKeptEntries) {
  Rng rng(9);
  Var x = Var::Constant(Matrix::Ones(10, 10));
  Var y = Dropout(x, 0.4, &rng, /*training=*/true);
  int kept = 0;
  for (double v : y.value().values()) {
    if (v != 0.0) {
      EXPECT_NEAR(v, 1.0 / 0.6, 1e-12);
      ++kept;
    }
  }
  EXPECT_GT(kept, 30);
  EXPECT_LT(kept, 90);
}

TEST(AutogradTest, DropoutOnStreamRowsDrawsTheWholeStream) {
  // A (2, 6) activation holding rows 1 and 3 of a 5-row stream takes the
  // mask rows 1 and 3 of the whole-stream draw, and leaves the Rng where
  // the whole-stream dropout leaves it.
  Rng full_rng(21);
  Rng rows_rng(21);
  const Var full = Dropout(Var::Constant(Matrix::Ones(5, 6)), 0.5, &full_rng,
                           /*training=*/true);
  const std::vector<uint32_t> rows = {1, 3};
  const Var part = Dropout(Var::Constant(Matrix::Ones(2, 6)), 0.5, &rows_rng,
                           /*training=*/true, rows, /*stream_rows=*/5);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_EQ(part.value().At(i, c), full.value().At(rows[i], c));
    }
  }
  EXPECT_EQ(rows_rng.NextUint64(), full_rng.NextUint64());
}

TEST(AutogradTest, GatherRowsCopiesExactlyAndScattersTheGradient) {
  Matrix m = Arange(4, 3, -0.5, 0.25);
  m.At(2, 1) = -0.0;
  Var x = Var::Leaf(m, true);
  const std::vector<uint32_t> rows = {2, 0};
  Var y = GatherRows(x, rows);
  ASSERT_EQ(y.rows(), 2u);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(std::signbit(y.value().At(i, c)),
                std::signbit(m.At(rows[i], c)));
      EXPECT_EQ(y.value().At(i, c), m.At(rows[i], c));
    }
  }
  EXPECT_TRUE(std::signbit(y.value().At(0, 1)));  // -0.0 stays -0.0
  Var weights = Var::Constant(Arange(2, 3, 0.7, -0.4));
  CheckGradient(x, [&] { return Sum(Hadamard(GatherRows(x, rows), weights)); });
  // Rows 1 and 3 are not gathered: their gradient is +0.0.
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(x.grad().At(1, c), 0.0);
    EXPECT_FALSE(std::signbit(x.grad().At(3, c)));
  }
}

TEST(AutogradTest, StopGradientBlocksFlow) {
  Var x = Var::Leaf(Arange(2, 2), true);
  Var loss = Sum(StopGradient(x));
  Backward(loss);
  EXPECT_TRUE(x.grad().empty());
}

TEST(AutogradTest, GradAccumulatesAcrossBackwardCalls) {
  Var x = Var::Leaf(Matrix::Ones(1, 2), true);
  Backward(Sum(x));
  Backward(Sum(x));
  EXPECT_EQ(x.grad().values(), (std::vector<double>{2.0, 2.0}));
  x.ZeroGrad();
  EXPECT_EQ(x.grad().values(), (std::vector<double>{0.0, 0.0}));
}

TEST(AutogradTest, AddToGradSumsLikeBackward) {
  // Gradients computed on a copy of a leaf, added in, equal the ones
  // Backward accumulates on the leaf itself.
  Var x = Var::Leaf(Matrix::Ones(1, 2), true);
  Var copy = Var::Leaf(x.value(), true);
  x.AddToGrad(Matrix());  // an empty gradient adds nothing
  EXPECT_TRUE(x.grad().empty());
  Backward(Sum(Scale(copy, 3.0)));
  x.AddToGrad(copy.grad());
  x.AddToGrad(copy.grad());
  Var direct = Var::Leaf(x.value(), true);
  Backward(Sum(Scale(direct, 3.0)));
  Backward(Sum(Scale(direct, 3.0)));
  EXPECT_EQ(x.grad().values(), direct.grad().values());
}

TEST(AutogradTest, DiamondGraphAccumulates) {
  // loss = sum(x*x + x*x) — x is used twice; gradient must be 4x.
  Matrix xv(1, 2);
  xv.values() = {1.5, -2.0};
  Var x = Var::Leaf(xv, true);
  Var sq = Hadamard(x, x);
  Var loss = Sum(Add(sq, sq));
  Backward(loss);
  EXPECT_NEAR(x.grad().values()[0], 4.0 * 1.5, 1e-12);
  EXPECT_NEAR(x.grad().values()[1], 4.0 * -2.0, 1e-12);
}

TEST(AutogradTest, CompositePpoStyleExpression) {
  // Mimics the PPO clipped surrogate on a scalar: grad-checks the
  // exp/clip/min composition used by the trainer.
  Matrix xv(1, 1);
  xv.values() = {0.05};
  Var x = Var::Leaf(xv, true);
  const double advantage = 1.7;
  CheckGradient(x, [&] {
    Var ratio = Exp(x);
    Var unclipped = Scale(ratio, advantage);
    Var clipped = Scale(Clip(ratio, 0.8, 1.2), advantage);
    return Neg(Min(unclipped, clipped));
  });
}

TEST(AutogradTest, GcnStyleExpressionGradient) {
  // norm_adj * X * W with ReLU, summed: the core GCN forward shape.
  Var adj = Var::Constant(Arange(3, 3, 0.1, 0.05));
  Var x = Var::Leaf(Arange(3, 4, 0.2, 0.11), true);
  Var w = Var::Leaf(Arange(4, 2, 0.15, 0.07), true);
  CheckGradient(x, [&] { return Sum(Relu(MatMul(MatMul(adj, x), w))); });
  CheckGradient(w, [&] { return Sum(Relu(MatMul(MatMul(adj, x), w))); });
}

TEST(AutogradTest, BackwardOnConstantIsNoop) {
  Var c = Var::Constant(Matrix::Ones(1, 1));
  Backward(c);  // must not crash
  EXPECT_TRUE(c.grad().empty());
}

}  // namespace
}  // namespace nn
}  // namespace rlqvo
