#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace rlqvo {
namespace nn {

double XavierStddev(size_t fan_in, size_t fan_out) {
  return std::sqrt(2.0 / static_cast<double>(fan_in + fan_out));
}

namespace {

Var XavierWeight(size_t in, size_t out, Rng* rng) {
  return Var::Leaf(Matrix::Randn(in, out, XavierStddev(in, out), rng),
                   /*requires_grad=*/true);
}

Var ZeroBias(size_t out) {
  return Var::Leaf(Matrix::Zeros(1, out), /*requires_grad=*/true);
}

/// The output rows of `x`, a product computed at every input row: the
/// self term of a layer (GraphTensors::self_rows).
Var SelfRows(const GraphTensors& g, const Var& x) {
  return g.self_rows.empty() ? x : GatherRows(x, g.self_rows);
}

Var SliceVar(const Var& v, RowList rows, RowList cols) {
  return Var::Constant(Slice(v.value(), rows, cols));
}

}  // namespace

GraphTensors SliceGraphTensors(const GraphTensors& g, RowList rows,
                               RowList cols, uint32_t fields) {
  RLQVO_CHECK(g.self_rows.empty()) << "tensors are already a cut";
  GraphTensors cut;
  if (fields & GraphTensors::kAdjacency) {
    cut.adjacency = SliceVar(g.adjacency, rows, cols);
  }
  if (fields & GraphTensors::kNormAdjacency) {
    cut.norm_adjacency = SliceVar(g.norm_adjacency, rows, cols);
  }
  if (fields & GraphTensors::kMeanAdjacency) {
    cut.mean_adjacency = SliceVar(g.mean_adjacency, rows, cols);
  }
  if (fields & GraphTensors::kAttentionMask) {
    cut.attention_mask = Slice(g.attention_mask, rows, cols);
  }
  if (fields & GraphTensors::kDegreeDiag) {
    cut.degree_diag = SliceVar(g.degree_diag, rows, cols);
  }
  cut.self_rows.reserve(rows.size());
  const uint32_t* col = cols.data();
  for (const uint32_t r : rows) {
    col = std::lower_bound(col, cols.data() + cols.size(), r);
    RLQVO_CHECK(col != cols.data() + cols.size() && *col == r)
        << "row " << r << " is not among the input rows";
    cut.self_rows.push_back(static_cast<uint32_t>(col - cols.data()));
  }
  return cut;
}

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : weight_(XavierWeight(in_features, out_features, rng)),
      bias_(ZeroBias(out_features)) {}

Var Linear::Forward(const Var& x) const {
  return AddRowBroadcast(MatMul(x, weight_), bias_);
}

GcnConv::GcnConv(size_t in, size_t out, Rng* rng) : linear_(in, out, rng) {}

Var GcnConv::Forward(const GraphTensors& g, const Var& h) const {
  return linear_.Forward(MatMul(g.norm_adjacency, h));
}

std::vector<Var> GcnConv::Parameters() const { return linear_.Parameters(); }

MlpConv::MlpConv(size_t in, size_t out, Rng* rng) : linear_(in, out, rng) {}

Var MlpConv::Forward(const GraphTensors&, const Var& h) const {
  return linear_.Forward(h);
}

std::vector<Var> MlpConv::Parameters() const { return linear_.Parameters(); }

SageConv::SageConv(size_t in, size_t out, Rng* rng)
    : w_self_(XavierWeight(in, out, rng)),
      w_neigh_(XavierWeight(in, out, rng)),
      bias_(ZeroBias(out)) {}

Var SageConv::Forward(const GraphTensors& g, const Var& h) const {
  Var self_part = SelfRows(g, MatMul(h, w_self_));
  Var neigh_part = MatMul(MatMul(g.mean_adjacency, h), w_neigh_);
  return AddRowBroadcast(Add(self_part, neigh_part), bias_);
}

std::vector<Var> SageConv::Parameters() const {
  return {w_self_, w_neigh_, bias_};
}

GatConv::GatConv(size_t in, size_t out, Rng* rng)
    : weight_(XavierWeight(in, out, rng)),
      att_src_(XavierWeight(out, 1, rng)),
      att_dst_(XavierWeight(out, 1, rng)),
      bias_(ZeroBias(out)) {}

Var GatConv::Forward(const GraphTensors& g, const Var& h) const {
  const size_t rows = g.attention_mask.rows();  // output rows
  const size_t cols = h.rows();                 // input rows
  Var s = MatMul(h, weight_);                          // (cols, out)
  Var alpha_src = SelfRows(g, MatMul(s, att_src_));    // (rows, 1)
  Var alpha_dst = MatMul(s, att_dst_);                 // (cols, 1)
  // E(i, j) = alpha_src_i + alpha_dst_j, built with constant ones-vectors.
  Var e = Add(MatMul(alpha_src, Var::Constant(Matrix::Ones(1, cols))),
              Transpose(MatMul(alpha_dst,
                               Var::Constant(Matrix::Ones(1, rows)))));
  e = LeakyRelu(e, 0.2);
  Var attention = MaskedRowSoftmax(e, g.attention_mask);
  return AddRowBroadcast(MatMul(attention, s), bias_);
}

std::vector<Var> GatConv::Parameters() const {
  return {weight_, att_src_, att_dst_, bias_};
}

GraphNNConv::GraphNNConv(size_t in, size_t out, Rng* rng)
    : w_root_(XavierWeight(in, out, rng)),
      w_neigh_(XavierWeight(in, out, rng)),
      bias_(ZeroBias(out)) {}

Var GraphNNConv::Forward(const GraphTensors& g, const Var& h) const {
  Var root_part = SelfRows(g, MatMul(h, w_root_));
  Var neigh_part = MatMul(MatMul(g.adjacency, h), w_neigh_);
  return AddRowBroadcast(Add(root_part, neigh_part), bias_);
}

std::vector<Var> GraphNNConv::Parameters() const {
  return {w_root_, w_neigh_, bias_};
}

LEConv::LEConv(size_t in, size_t out, Rng* rng)
    : w1_(XavierWeight(in, out, rng)),
      w2_(XavierWeight(in, out, rng)),
      w3_(XavierWeight(in, out, rng)),
      bias_(ZeroBias(out)) {}

Var LEConv::Forward(const GraphTensors& g, const Var& h) const {
  Var part1 = SelfRows(g, MatMul(h, w1_));
  Var part2 = MatMul(g.degree_diag, MatMul(h, w2_));
  Var part3 = MatMul(g.adjacency, MatMul(h, w3_));
  return AddRowBroadcast(Sub(Add(part1, part2), part3), bias_);
}

std::vector<Var> LEConv::Parameters() const { return {w1_, w2_, w3_, bias_}; }

Result<Backbone> ParseBackbone(const std::string& name) {
  if (name == "GCN") return Backbone::kGcn;
  if (name == "MLP") return Backbone::kMlp;
  if (name == "GAT") return Backbone::kGat;
  if (name == "GraphSAGE") return Backbone::kSage;
  if (name == "GraphNN") return Backbone::kGraphNN;
  if (name == "LEConv" || name == "ASAP") return Backbone::kLEConv;
  return Status::NotFound("unknown GNN backbone '" + name + "'");
}

std::string BackboneName(Backbone backbone) {
  switch (backbone) {
    case Backbone::kGcn:
      return "GCN";
    case Backbone::kMlp:
      return "MLP";
    case Backbone::kGat:
      return "GAT";
    case Backbone::kSage:
      return "GraphSAGE";
    case Backbone::kGraphNN:
      return "GraphNN";
    case Backbone::kLEConv:
      return "LEConv";
  }
  return "?";
}

std::unique_ptr<GraphLayer> MakeGraphLayer(Backbone backbone, size_t in,
                                           size_t out, Rng* rng) {
  switch (backbone) {
    case Backbone::kGcn:
      return std::make_unique<GcnConv>(in, out, rng);
    case Backbone::kMlp:
      return std::make_unique<MlpConv>(in, out, rng);
    case Backbone::kGat:
      return std::make_unique<GatConv>(in, out, rng);
    case Backbone::kSage:
      return std::make_unique<SageConv>(in, out, rng);
    case Backbone::kGraphNN:
      return std::make_unique<GraphNNConv>(in, out, rng);
    case Backbone::kLEConv:
      return std::make_unique<LEConv>(in, out, rng);
  }
  return nullptr;
}

}  // namespace nn
}  // namespace rlqvo
