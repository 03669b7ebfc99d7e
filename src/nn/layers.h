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

  /// Tape-free forward into a caller-owned buffer: *out = x W + b. `out`
  /// must be shaped (x.rows, out_features) and zeroed. Rows outside
  /// `out_rows` (when non-null) are not computed and hold unspecified
  /// values; computed rows are bit-identical to Forward. Implemented in
  /// nn/inference.cc.
  void ForwardInference(const Matrix& x, Matrix* out,
                        const std::vector<bool>* out_rows = nullptr) const;

  std::vector<Var> Parameters() const { return {weight_, bias_}; }
  size_t in_features() const { return weight_.rows(); }
  size_t out_features() const { return weight_.cols(); }

 private:
  Var weight_;  // (in, out)
  Var bias_;    // (1, out)
};

/// \brief Constant graph matrices a GNN layer consumes. Built per query
/// graph by the RL feature module; all are non-differentiable constants.
struct GraphTensors {
  Var adjacency;       ///< A, (n, n)
  Var norm_adjacency;  ///< D̃^-1/2 (A+I) D̃^-1/2, the GCN propagation matrix
  Var mean_adjacency;  ///< D^-1 A (rows of isolated vertices are zero)
  Matrix attention_mask;  ///< A + I as a 0/1 mask for GAT attention
  Var degree_diag;     ///< diag(d(v)), (n, n), for LEConv
};

/// \brief GNN layer interface: transforms node representations (n, in) to
/// (n, out) using the graph structure in GraphTensors.
class GraphLayer {
 public:
  virtual ~GraphLayer() = default;
  virtual Var Forward(const GraphTensors& g, const Var& h) const = 0;
  /// Tape-free forward for serving: writes the layer output into *out
  /// (shaped (h.rows, out_features), zeroed), using `ws` scratch slots for
  /// intermediates. When `out_rows` is non-null only those output rows are
  /// computed (the rest stay zeroed, values unspecified) — sound for the
  /// network's last graph layer, whose other rows nothing reads. Computed
  /// rows are bit-identical to the eval-mode Forward. All
  /// implementations live in nn/inference.cc.
  virtual void ForwardInference(const GraphTensors& g, const Matrix& h,
                                InferenceWorkspace* ws, Matrix* out,
                                const std::vector<bool>* out_rows) const = 0;
  virtual std::vector<Var> Parameters() const = 0;
};

/// \brief GCN (Kipf & Welling, Eq. 3 of the paper):
/// H' = D̃^-1/2 Ã D̃^-1/2 H W + b.
class GcnConv : public GraphLayer {
 public:
  GcnConv(size_t in_features, size_t out_features, Rng* rng);
  Var Forward(const GraphTensors& g, const Var& h) const override;
  void ForwardInference(const GraphTensors& g, const Matrix& h,
                        InferenceWorkspace* ws, Matrix* out,
                        const std::vector<bool>* out_rows) const override;
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
                        InferenceWorkspace* ws, Matrix* out,
                        const std::vector<bool>* out_rows) const override;
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
                        InferenceWorkspace* ws, Matrix* out,
                        const std::vector<bool>* out_rows) const override;
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
                        InferenceWorkspace* ws, Matrix* out,
                        const std::vector<bool>* out_rows) const override;
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
                        InferenceWorkspace* ws, Matrix* out,
                        const std::vector<bool>* out_rows) const override;
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
                        InferenceWorkspace* ws, Matrix* out,
                        const std::vector<bool>* out_rows) const override;
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
