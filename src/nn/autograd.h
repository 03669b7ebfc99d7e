#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "nn/matrix.h"

namespace rlqvo {
namespace nn {

/// \brief A node in the dynamically-built computation graph.
///
/// Users interact through Var; Node is exposed so that new differentiable
/// ops can be added outside this header.
struct Node {
  Matrix value;
  Matrix grad;  ///< allocated lazily by EnsureGrad
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  /// Reads this->grad and accumulates into parents' grads. Null for leaves
  /// and for nodes that do not require gradients.
  std::function<void(Node*)> backward;

  void EnsureGrad() {
    if (grad.empty() && !value.empty()) {
      grad = Matrix::Zeros(value.rows(), value.cols());
    }
  }
};

/// \brief Handle to a node of the reverse-mode autograd tape.
///
/// Var is the PyTorch-tensor replacement used by the policy network: ops on
/// Vars record the computation graph; Backward() on a scalar Var fills the
/// `grad` fields of every parameter leaf that contributed to it. Copying a
/// Var is cheap (shared handle).
class Var {
 public:
  Var() = default;

  /// A leaf holding `value`. Parameters set requires_grad=true; inputs and
  /// constants leave it false.
  static Var Leaf(Matrix value, bool requires_grad = false);
  /// Shorthand for a non-differentiable leaf.
  static Var Constant(Matrix value) { return Leaf(std::move(value), false); }

  bool defined() const { return node_ != nullptr; }
  const Matrix& value() const;
  /// Gradient accumulated by Backward(); zeros if none has been computed.
  const Matrix& grad() const;
  bool requires_grad() const;

  /// Clears the accumulated gradient (used between optimiser steps).
  void ZeroGrad();
  /// Overwrites a leaf's value in place (optimiser update).
  void SetValue(Matrix value);

  size_t rows() const { return value().rows(); }
  size_t cols() const { return value().cols(); }

  /// Access to the underlying node, for op implementations.
  const std::shared_ptr<Node>& node() const { return node_; }
  static Var FromNode(std::shared_ptr<Node> node) { return Var(std::move(node)); }

 private:
  explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}
  std::shared_ptr<Node> node_;
};

/// Runs reverse-mode differentiation from a 1x1 scalar root, accumulating
/// into every reachable leaf with requires_grad. Gradients add up across
/// calls until ZeroGrad.
void Backward(const Var& root);

/// \name Differentiable ops.
/// Shapes follow the usual conventions; all ops CHECK shape agreement.
/// @{
Var MatMul(const Var& a, const Var& b);
Var Add(const Var& a, const Var& b);
/// x: (n, d), bias: (1, d); adds bias to every row.
Var AddRowBroadcast(const Var& x, const Var& bias);
Var Sub(const Var& a, const Var& b);
Var Hadamard(const Var& a, const Var& b);
Var Scale(const Var& a, double s);
Var AddScalar(const Var& a, double s);
Var Neg(const Var& a);
/// ReLU of one value — the single definition the autograd Relu and the
/// serving kernel nn::ReluInPlace share, so both forward paths agree bit
/// for bit: NaN propagates (NaN < 0 is false) and -0.0 stays -0.0.
inline double ReluValue(double x) { return x < 0.0 ? 0.0 : x; }
Var Relu(const Var& a);
Var LeakyRelu(const Var& a, double negative_slope = 0.2);
Var Tanh(const Var& a);
Var Exp(const Var& a);
/// Natural log; inputs must be positive.
Var Log(const Var& a);
/// Sum of all entries -> (1, 1).
Var Sum(const Var& a);
Var Mean(const Var& a);
/// Selects entry (r, c) -> (1, 1).
Var Pick(const Var& a, size_t r, size_t c);
/// Elementwise min; gradient routes to the smaller operand (ties to a).
Var Min(const Var& a, const Var& b);
/// Clamps to [lo, hi]; gradient is zero where the clamp is active (the PPO
/// clipped-surrogate convention).
Var Clip(const Var& a, double lo, double hi);
/// Inverted dropout with keep-prob 1-p; identity when !training.
Var Dropout(const Var& a, double p, Rng* rng, bool training);
/// Log-softmax over the masked entries of a column vector (n, 1). Entries
/// with mask[i]==false get value kMaskedLogProb and receive no gradient.
Var MaskedLogSoftmax(const Var& scores, const std::vector<bool>& mask);
/// Row-wise softmax over entries where mask(r,c) != 0; masked-out entries
/// become 0 (used for GAT attention over adjacency).
Var MaskedRowSoftmax(const Var& scores, const Matrix& mask);
/// Detaches: value flows, gradient does not.
Var StopGradient(const Var& a);
/// Matrix transpose.
Var Transpose(const Var& a);
/// @}

/// Log-probability assigned to entries excluded by MaskedLogSoftmax.
inline constexpr double kMaskedLogProb = -1e30;

}  // namespace nn
}  // namespace rlqvo
