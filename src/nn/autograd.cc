#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace rlqvo {
namespace nn {

namespace {

const Matrix& EmptyMatrix() {
  static const Matrix empty;
  return empty;
}

void AccumulateGrad(const std::shared_ptr<Node>& parent, const Matrix& g) {
  if (!parent->requires_grad) return;
  parent->EnsureGrad();
  parent->grad.AddInPlace(g);
}

/// Creates an op node whose requires_grad is inherited from its parents.
Var MakeOp(Matrix value, std::vector<std::shared_ptr<Node>> parents,
           std::function<void(Node*)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->parents = std::move(parents);
  for (const auto& p : node->parents) {
    node->requires_grad = node->requires_grad || p->requires_grad;
  }
  if (node->requires_grad) node->backward = std::move(backward);
  return Var::FromNode(std::move(node));
}

/// Elementwise unary op helper: out = f(a), da = dfdx(a_value, out_value) * g.
Var ElementwiseUnary(const Var& a, double (*f)(double),
                     double (*dfdx)(double, double)) {
  const Matrix& av = a.value();
  Matrix out = av;
  for (double& v : out.values()) v = f(v);
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa, dfdx](Node* self) {
    if (!pa->requires_grad) return;
    Matrix g = self->grad;
    for (size_t i = 0; i < g.values().size(); ++i) {
      g.values()[i] *= dfdx(pa->value.values()[i], self->value.values()[i]);
    }
    AccumulateGrad(pa, g);
  });
}

}  // namespace

Var Var::Leaf(Matrix value, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Var(std::move(node));
}

const Matrix& Var::value() const {
  RLQVO_CHECK(node_ != nullptr) << "value() on undefined Var";
  return node_->value;
}

const Matrix& Var::grad() const {
  RLQVO_CHECK(node_ != nullptr) << "grad() on undefined Var";
  if (node_->grad.empty()) return EmptyMatrix();
  return node_->grad;
}

bool Var::requires_grad() const {
  return node_ != nullptr && node_->requires_grad;
}

void Var::ZeroGrad() {
  RLQVO_CHECK(node_ != nullptr);
  if (!node_->grad.empty()) node_->grad.Fill(0.0);
}

void Var::AddToGrad(const Matrix& g) {
  RLQVO_CHECK(node_ != nullptr);
  if (g.empty()) return;
  RLQVO_CHECK(g.SameShape(node_->value));
  node_->EnsureGrad();
  node_->grad.AddInPlace(g);
}

void Var::SetValue(Matrix value) {
  RLQVO_CHECK(node_ != nullptr);
  RLQVO_CHECK(node_->parents.empty()) << "SetValue only valid on leaves";
  node_->value = std::move(value);
}

void Backward(const Var& root) {
  RLQVO_CHECK(root.defined());
  RLQVO_CHECK(root.value().rows() == 1 && root.value().cols() == 1)
      << "Backward requires a scalar root";
  if (!root.requires_grad()) return;

  // Iterative post-order DFS for a topological order (children after
  // parents in `topo` reversed at the end).
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack{{root.node().get(), 0}};
  visited.insert(root.node().get());
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      Node* parent = frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && !visited.contains(parent)) {
        visited.insert(parent);
        stack.push_back({parent, 0});
      }
    } else {
      topo.push_back(frame.node);
      stack.pop_back();
    }
  }

  root.node()->EnsureGrad();
  root.node()->grad.At(0, 0) += 1.0;
  // topo is post-order (parents before children); run children first.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* node = *it;
    if (node->backward) {
      node->EnsureGrad();
      node->backward(node);
    }
  }
}

Var MatMul(const Var& a, const Var& b) {
  Matrix out = MatMul(a.value(), b.value());
  auto pa = a.node(), pb = b.node();
  return MakeOp(std::move(out), {pa, pb}, [pa, pb](Node* self) {
    if (pa->requires_grad) {
      AccumulateGrad(pa, MatMul(self->grad, Transpose(pb->value)));
    }
    if (pb->requires_grad) {
      AccumulateGrad(pb, MatMul(Transpose(pa->value), self->grad));
    }
  });
}

Var Add(const Var& a, const Var& b) {
  Matrix out = Add(a.value(), b.value());
  auto pa = a.node(), pb = b.node();
  return MakeOp(std::move(out), {pa, pb}, [pa, pb](Node* self) {
    AccumulateGrad(pa, self->grad);
    AccumulateGrad(pb, self->grad);
  });
}

Var AddRowBroadcast(const Var& x, const Var& bias) {
  RLQVO_CHECK_EQ(bias.rows(), 1u);
  RLQVO_CHECK_EQ(x.cols(), bias.cols());
  Matrix out = x.value();
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) {
      out.At(r, c) += bias.value().At(0, c);
    }
  }
  auto px = x.node(), pb = bias.node();
  return MakeOp(std::move(out), {px, pb}, [px, pb](Node* self) {
    AccumulateGrad(px, self->grad);
    if (pb->requires_grad) {
      Matrix colsum(1, self->grad.cols());
      for (size_t r = 0; r < self->grad.rows(); ++r) {
        for (size_t c = 0; c < self->grad.cols(); ++c) {
          colsum.At(0, c) += self->grad.At(r, c);
        }
      }
      AccumulateGrad(pb, colsum);
    }
  });
}

Var Sub(const Var& a, const Var& b) {
  Matrix out = Sub(a.value(), b.value());
  auto pa = a.node(), pb = b.node();
  return MakeOp(std::move(out), {pa, pb}, [pa, pb](Node* self) {
    AccumulateGrad(pa, self->grad);
    if (pb->requires_grad) {
      AccumulateGrad(pb, Scale(self->grad, -1.0));
    }
  });
}

Var Hadamard(const Var& a, const Var& b) {
  Matrix out = Hadamard(a.value(), b.value());
  auto pa = a.node(), pb = b.node();
  return MakeOp(std::move(out), {pa, pb}, [pa, pb](Node* self) {
    if (pa->requires_grad) {
      AccumulateGrad(pa, Hadamard(self->grad, pb->value));
    }
    if (pb->requires_grad) {
      AccumulateGrad(pb, Hadamard(self->grad, pa->value));
    }
  });
}

Var Scale(const Var& a, double s) {
  Matrix out = Scale(a.value(), s);
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa, s](Node* self) {
    AccumulateGrad(pa, Scale(self->grad, s));
  });
}

Var AddScalar(const Var& a, double s) {
  Matrix out = a.value();
  for (double& v : out.values()) v += s;
  auto pa = a.node();
  return MakeOp(std::move(out), {pa},
                [pa](Node* self) { AccumulateGrad(pa, self->grad); });
}

Var Neg(const Var& a) { return Scale(a, -1.0); }

Var Relu(const Var& a) {
  return ElementwiseUnary(a, &ReluValue,
                          [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var LeakyRelu(const Var& a, double negative_slope) {
  const Matrix& av = a.value();
  Matrix out = av;
  for (double& v : out.values()) {
    if (v < 0.0) v *= negative_slope;
  }
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa, negative_slope](Node* self) {
    if (!pa->requires_grad) return;
    Matrix g = self->grad;
    for (size_t i = 0; i < g.values().size(); ++i) {
      if (pa->value.values()[i] < 0.0) g.values()[i] *= negative_slope;
    }
    AccumulateGrad(pa, g);
  });
}

Var Tanh(const Var& a) {
  return ElementwiseUnary(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

Var Exp(const Var& a) {
  return ElementwiseUnary(
      a, [](double x) { return std::exp(x); },
      [](double, double y) { return y; });
}

Var Log(const Var& a) {
  return ElementwiseUnary(
      a, [](double x) { return std::log(x); },
      [](double x, double) { return 1.0 / x; });
}

Var Sum(const Var& a) {
  Matrix out(1, 1);
  out.At(0, 0) = a.value().Sum();
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa](Node* self) {
    if (!pa->requires_grad) return;
    Matrix g(pa->value.rows(), pa->value.cols(), self->grad.At(0, 0));
    AccumulateGrad(pa, g);
  });
}

Var Mean(const Var& a) {
  const double n = static_cast<double>(a.value().size());
  RLQVO_CHECK_GT(n, 0.0);
  return Scale(Sum(a), 1.0 / n);
}

Var Pick(const Var& a, size_t r, size_t c) {
  RLQVO_CHECK(r < a.rows() && c < a.cols())
      << "Pick(" << r << ", " << c << ") outside " << a.rows() << "x"
      << a.cols();
  Matrix out(1, 1);
  out.At(0, 0) = a.value().At(r, c);
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa, r, c](Node* self) {
    if (!pa->requires_grad) return;
    Matrix g = Matrix::Zeros(pa->value.rows(), pa->value.cols());
    g.At(r, c) = self->grad.At(0, 0);
    AccumulateGrad(pa, g);
  });
}

Var GatherRows(const Var& a, RowList rows) {
  Matrix out = GatherRows(a.value(), rows);
  auto pa = a.node();
  std::vector<uint32_t> index(rows.begin(), rows.end());
  return MakeOp(std::move(out), {pa}, [pa, index](Node* self) {
    if (!pa->requires_grad) return;
    const size_t cols = pa->value.cols();
    Matrix g = Matrix::Zeros(pa->value.rows(), cols);
    for (size_t i = 0; i < index.size(); ++i) {
      std::copy_n(self->grad.data() + i * cols, cols,
                  g.data() + index[i] * cols);
    }
    AccumulateGrad(pa, g);
  });
}

Var Min(const Var& a, const Var& b) {
  RLQVO_CHECK(a.value().SameShape(b.value()));
  Matrix out = a.value();
  for (size_t i = 0; i < out.values().size(); ++i) {
    out.values()[i] = std::min(out.values()[i], b.value().values()[i]);
  }
  auto pa = a.node(), pb = b.node();
  return MakeOp(std::move(out), {pa, pb}, [pa, pb](Node* self) {
    Matrix ga = Matrix::Zeros(self->grad.rows(), self->grad.cols());
    Matrix gb = ga;
    for (size_t i = 0; i < self->grad.values().size(); ++i) {
      if (pa->value.values()[i] <= pb->value.values()[i]) {
        ga.values()[i] = self->grad.values()[i];
      } else {
        gb.values()[i] = self->grad.values()[i];
      }
    }
    AccumulateGrad(pa, ga);
    AccumulateGrad(pb, gb);
  });
}

Var Clip(const Var& a, double lo, double hi) {
  RLQVO_CHECK_LE(lo, hi);
  Matrix out = a.value();
  for (double& v : out.values()) v = std::clamp(v, lo, hi);
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa, lo, hi](Node* self) {
    if (!pa->requires_grad) return;
    Matrix g = self->grad;
    for (size_t i = 0; i < g.values().size(); ++i) {
      const double v = pa->value.values()[i];
      if (v <= lo || v >= hi) g.values()[i] = 0.0;
    }
    AccumulateGrad(pa, g);
  });
}

Var Dropout(const Var& a, double p, Rng* rng, bool training, RowList rows,
            size_t stream_rows) {
  if (!training || p <= 0.0) return a;
  RLQVO_CHECK(rng != nullptr);
  RLQVO_CHECK(p < 1.0);
  const size_t cols = a.value().cols();
  if (rows.empty()) {
    stream_rows = a.value().rows();
  } else {
    RLQVO_CHECK_EQ(rows.size(), a.value().rows());
  }
  const double keep = 1.0 - p;
  Matrix mask(a.value().rows(), cols);
  size_t next = 0;  // the next row of `a`
  for (size_t r = 0; r < stream_rows; ++r) {
    if (!rows.empty() && (next == rows.size() || rows[next] != r)) {
      rng->Discard(cols);
      continue;
    }
    rng->FillBernoulli(keep, 1.0 / keep, {mask.data() + next * cols, cols});
    ++next;
  }
  RLQVO_CHECK_EQ(next, a.value().rows()) << "dropout rows outside the stream";
  Matrix out = Hadamard(a.value(), mask);
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa, mask](Node* self) {
    if (!pa->requires_grad) return;
    AccumulateGrad(pa, Hadamard(self->grad, mask));
  });
}

Var MaskedLogSoftmax(const Var& scores, const std::vector<bool>& mask) {
  RLQVO_CHECK_EQ(scores.cols(), 1u);
  RLQVO_CHECK_EQ(scores.rows(), mask.size());
  const Matrix& x = scores.value();
  double max_val = -1e300;
  bool any = false;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      max_val = std::max(max_val, x.At(i, 0));
      any = true;
    }
  }
  RLQVO_CHECK(any) << "MaskedLogSoftmax with empty mask";
  double denom = 0.0;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) denom += std::exp(x.At(i, 0) - max_val);
  }
  const double log_denom = std::log(denom) + max_val;

  Matrix out(x.rows(), 1);
  Matrix softmax(x.rows(), 1);  // saved for the backward pass
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      out.At(i, 0) = x.At(i, 0) - log_denom;
      softmax.At(i, 0) = std::exp(out.At(i, 0));
    } else {
      out.At(i, 0) = kMaskedLogProb;
    }
  }
  auto pa = scores.node();
  return MakeOp(std::move(out), {pa}, [pa, mask, softmax](Node* self) {
    if (!pa->requires_grad) return;
    double total = 0.0;
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) total += self->grad.At(i, 0);
    }
    Matrix g = Matrix::Zeros(pa->value.rows(), 1);
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) {
        g.At(i, 0) = self->grad.At(i, 0) - softmax.At(i, 0) * total;
      }
    }
    AccumulateGrad(pa, g);
  });
}

Var MaskedRowSoftmax(const Var& scores, const Matrix& mask) {
  RLQVO_CHECK(scores.value().SameShape(mask));
  const Matrix& x = scores.value();
  Matrix out = Matrix::Zeros(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    double max_val = -1e300;
    bool any = false;
    for (size_t c = 0; c < x.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        max_val = std::max(max_val, x.At(r, c));
        any = true;
      }
    }
    if (!any) continue;  // row with no unmasked entries stays all-zero
    double denom = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      if (mask.At(r, c) != 0.0) denom += std::exp(x.At(r, c) - max_val);
    }
    for (size_t c = 0; c < x.cols(); ++c) {
      if (mask.At(r, c) != 0.0) {
        out.At(r, c) = std::exp(x.At(r, c) - max_val) / denom;
      }
    }
  }
  auto pa = scores.node();
  Matrix saved = out;
  return MakeOp(std::move(out), {pa}, [pa, mask, saved](Node* self) {
    if (!pa->requires_grad) return;
    Matrix g = Matrix::Zeros(saved.rows(), saved.cols());
    for (size_t r = 0; r < saved.rows(); ++r) {
      double dot = 0.0;
      for (size_t c = 0; c < saved.cols(); ++c) {
        dot += self->grad.At(r, c) * saved.At(r, c);
      }
      for (size_t c = 0; c < saved.cols(); ++c) {
        if (mask.At(r, c) != 0.0) {
          g.At(r, c) = saved.At(r, c) * (self->grad.At(r, c) - dot);
        }
      }
    }
    AccumulateGrad(pa, g);
  });
}

Var StopGradient(const Var& a) { return Var::Constant(a.value()); }

Var Transpose(const Var& a) {
  Matrix out = Transpose(a.value());
  auto pa = a.node();
  return MakeOp(std::move(out), {pa}, [pa](Node* self) {
    if (!pa->requires_grad) return;
    AccumulateGrad(pa, Transpose(self->grad));
  });
}

}  // namespace nn
}  // namespace rlqvo
