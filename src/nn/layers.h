#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "nn/autograd.h"

namespace rlqvo {
namespace nn {

class InferenceWorkspace;

/// \brief Fully-connected layer y = x W + b with Xavier-initialised weights.
class Linear {
 public:
  /// \param rng initialisation source (must not be null).
  Linear(size_t in_features, size_t out_features, Rng* rng);

  /// x: (n, in) -> (n, out).
  Var Forward(const Var& x) const;

  /// Tape-free forward into a caller-owned buffer: overwrites each row r in
  /// `rows` of `out` (shaped (x.rows, out_features)) with x(r, ·) W + b,
  /// passed through ReluValue when `relu` — bias and ReLU applied in the
  /// matmul's registers, bit-identical to Forward (then Relu). Reads x
  /// only at `rows`; other rows of `out` are left as they were.
  /// Implemented in nn/inference.cc.
  void ForwardInference(const Matrix& x, RowList rows, bool relu,
                        Matrix* out) const;

  std::vector<Var> Parameters() const { return {weight_, bias_}; }
  size_t in_features() const { return weight_.rows(); }
  size_t out_features() const { return weight_.cols(); }

 private:
  Var weight_;  // (in, out)
  Var bias_;    // (1, out)
};

/// \brief Constant graph matrices a GNN layer consumes. Built per query
/// graph by the RL feature module; all are non-differentiable constants.
///
/// A layer's autograd Forward computes one output row per row of these
/// matrices from one input row per column, so the (n, n) tensors compute
/// every row and SliceGraphTensors' cuts compute a subset.
struct GraphTensors {
  /// Bits naming the matrices below: the set a layer reads
  /// (GraphLayer::TensorsRead) and a cut slices (SliceGraphTensors).
  enum Field : uint32_t {
    kAdjacency = 1u << 0,
    kNormAdjacency = 1u << 1,
    kMeanAdjacency = 1u << 2,
    kAttentionMask = 1u << 3,
    kDegreeDiag = 1u << 4,
  };

  Var adjacency;       ///< A, (n, n)
  Var norm_adjacency;  ///< D̃^-1/2 (A+I) D̃^-1/2, the GCN propagation matrix
  Var mean_adjacency;  ///< D^-1 A (rows of isolated vertices are zero)
  Matrix attention_mask;  ///< A + I as a 0/1 mask for GAT attention
  Var degree_diag;     ///< diag(d(v)), (n, n), for LEConv
  /// Empty for the (n, n) tensors. In a cut, output row i is the vertex of
  /// input row self_rows[i]: where a layer's self term reads it.
  std::vector<uint32_t> self_rows;
};

/// The cut of `g` (the (n, n) tensors) that computes output rows `rows`
/// from input rows `cols`, for a layer that reads the matrices `fields`
/// (GraphTensors::Field bits): each of those restricted to (rows, cols),
/// the others left empty, and self_rows filled. Both lists ascend, and
/// `cols` holds each row's closed neighbourhood in g.attention_mask (so
/// `rows` too), as PolicyNetwork's row plan does.
GraphTensors SliceGraphTensors(const GraphTensors& g, RowList rows,
                               RowList cols, uint32_t fields);

/// \brief GNN layer interface: transforms node representations (n, in) to
/// (n, out) using the graph structure in GraphTensors.
class GraphLayer {
 public:
  virtual ~GraphLayer() = default;
  /// Autograd forward: one output row per row of `g`'s matrices, from `h`'s
  /// rows, one per column (GraphTensors). A self term reads output row i's
  /// own input row through an exact GatherRows of g.self_rows, placed after
  /// the product that reads h, so h feeds the same ops as in the (n, n)
  /// forward and its gradient sums in the same order.
  virtual Var Forward(const GraphTensors& g, const Var& h) const = 0;
  /// Tape-free forward for serving: overwrites each row in `out_rows` of
  /// `out` (shaped (h.rows, out_features)) with the layer output, passed
  /// through ReluValue when `relu`, using `ws` scratch slots for
  /// intermediates; other rows of `out` are left as they were. `h` is read
  /// only at `h_rows`, which must include every row that an `out_rows` row
  /// reads: its closed neighbourhood in g.attention_mask (A + I), or the
  /// row itself when !ReadsNeighbours(). Computed rows are bit-identical to
  /// the eval-mode Forward (then Relu). All implementations live in
  /// nn/inference.cc.
  virtual void ForwardInference(const GraphTensors& g, const Matrix& h,
                                RowList h_rows, RowList out_rows, bool relu,
                                InferenceWorkspace* ws, Matrix* out) const = 0;
  /// The GraphTensors matrices Forward reads, as GraphTensors::Field bits:
  /// what a cut for this layer slices. 0 only for MlpConv, which ignores
  /// the graph.
  virtual uint32_t TensorsRead() const = 0;
  /// Whether output row i reads rows of h other than row i (those of its
  /// closed neighbourhood), i.e. whether the layer reads the graph.
  bool ReadsNeighbours() const { return TensorsRead() != 0; }
  virtual std::vector<Var> Parameters() const = 0;
};

/// \brief GCN (Kipf & Welling, Eq. 3 of the paper):
/// H' = D̃^-1/2 Ã D̃^-1/2 H W + b.
class GcnConv : public GraphLayer {
 public:
  GcnConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        RowList h_rows, RowList out_rows, bool relu,
                        InferenceWorkspace* ws, Matrix* out) const override;
  uint32_t TensorsRead() const override { return GraphTensors::kNormAdjacency; }
  std::vector<Var> Parameters() const override;

 private:
  Linear linear_;
};

/// \brief Degenerate "GNN" that ignores the graph — the RL-QVO-NN ablation
/// variant (plain MLP policy, Sec IV-D).
class MlpConv : public GraphLayer {
 public:
  MlpConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        RowList h_rows, RowList out_rows, bool relu,
                        InferenceWorkspace* ws, Matrix* out) const override;
  uint32_t TensorsRead() const override { return 0; }
  std::vector<Var> Parameters() const override;

 private:
  Linear linear_;
};

/// \brief GraphSAGE with mean aggregation:
/// H' = H W_self + (D^-1 A H) W_neigh + b.
class SageConv : public GraphLayer {
 public:
  SageConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        RowList h_rows, RowList out_rows, bool relu,
                        InferenceWorkspace* ws, Matrix* out) const override;
  uint32_t TensorsRead() const override { return GraphTensors::kMeanAdjacency; }
  std::vector<Var> Parameters() const override;

 private:
  Var w_self_;
  Var w_neigh_;
  Var bias_;
};

/// \brief Single-head graph attention (Velickovic et al.):
/// e_ij = LeakyReLU(a_src·Wh_i + a_dst·Wh_j) over A+I, row-softmaxed,
/// H' = softmax(E) (H W) + b.
class GatConv : public GraphLayer {
 public:
  GatConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        RowList h_rows, RowList out_rows, bool relu,
                        InferenceWorkspace* ws, Matrix* out) const override;
  uint32_t TensorsRead() const override { return GraphTensors::kAttentionMask; }
  std::vector<Var> Parameters() const override;

 private:
  Var weight_;
  Var att_src_;  // (out, 1)
  Var att_dst_;  // (out, 1)
  Var bias_;
};

/// \brief GraphConv of Morris et al. ("Weisfeiler and Leman go neural"):
/// H' = H W1 + A H W2 + b.
class GraphNNConv : public GraphLayer {
 public:
  GraphNNConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        RowList h_rows, RowList out_rows, bool relu,
                        InferenceWorkspace* ws, Matrix* out) const override;
  uint32_t TensorsRead() const override { return GraphTensors::kAdjacency; }
  std::vector<Var> Parameters() const override;

 private:
  Var w_root_;
  Var w_neigh_;
  Var bias_;
};

/// \brief LEConv, the local-extremum operator used inside ASAP:
/// H' = H W1 + diag(d) H W2 - A H W3 + b.
class LEConv : public GraphLayer {
 public:
  LEConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        RowList h_rows, RowList out_rows, bool relu,
                        InferenceWorkspace* ws, Matrix* out) const override;
  uint32_t TensorsRead() const override {
    return GraphTensors::kAdjacency | GraphTensors::kDegreeDiag;
  }
  std::vector<Var> Parameters() const override;

 private:
  Var w1_;
  Var w2_;
  Var w3_;
  Var bias_;
};

/// \brief Supported GNN backbones (the paper's ablation set, Fig 7).
enum class Backbone { kGcn, kMlp, kGat, kSage, kGraphNN, kLEConv };

/// Parses "GCN" | "MLP" | "GAT" | "GraphSAGE" | "GraphNN" | "LEConv".
Result<Backbone> ParseBackbone(const std::string& name);
/// Inverse of ParseBackbone.
std::string BackboneName(Backbone backbone);

/// \brief Factory for a graph layer of the given backbone.
std::unique_ptr<GraphLayer> MakeGraphLayer(Backbone backbone, size_t in,
                                           size_t out, Rng* rng);

/// \brief Xavier-Glorot standard deviation for a (fan_in, fan_out) weight.
double XavierStddev(size_t fan_in, size_t fan_out);

}  // namespace nn
}  // namespace rlqvo
