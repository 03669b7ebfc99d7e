#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "nn/inference.h"
#include "nn/layers.h"

namespace rlqvo {

/// \brief Architecture of the RL-QVO policy network (Sec III-D):
/// `num_gnn_layers` graph layers (GCN by default; the ablation backbones of
/// Fig 7 are selectable) followed by a two-layer MLP producing one score per
/// query vertex, masked and soft-maxed over the action space (Eq. 4).
struct PolicyConfig {
  nn::Backbone backbone = nn::Backbone::kGcn;
  int num_gnn_layers = 2;    ///< paper default: 2 (Fig 10 sweeps 1..4)
  int hidden_dim = 64;       ///< paper default: 64 (Fig 8 sweeps 16..256)
  int feature_dim = 7;       ///< the designed features of Sec III-C
  double dropout = 0.2;      ///< paper default: 0.2
  uint64_t init_seed = 42;   ///< weight initialisation seed
};

/// \brief The policy π_θ: maps (query state, action mask) to log-action-
/// probabilities. Thin wrapper over the autograd layers; every Forward
/// builds a fresh tape (query graphs are tiny). PPO's update pass builds
/// one such tape per recorded step, each on a Clone whose weights
/// CopyWeightsFrom keeps equal to the trained network's, and draws each
/// step's dropout from its own copy of the trainer's Rng, advanced by
/// TrainingForwardDraws per earlier step (rl/ppo.h).
class PolicyNetwork {
 public:
  explicit PolicyNetwork(const PolicyConfig& config);

  /// Output of one forward pass.
  struct ForwardResult {
    /// (n, 1) log-probabilities; entries outside the mask hold
    /// nn::kMaskedLogProb.
    nn::Var log_probs;
    /// (n, 1) raw pre-mask scores, used for the validity reward (whether
    /// the unmasked argmax lies inside the action space).
    nn::Var raw_scores;
  };

  /// \param tensors constant graph matrices from BuildGraphTensors.
  /// \param features (n, feature_dim) state features.
  /// \param action_mask true for vertices in the action space N(φ_t).
  /// \param training enables dropout (requires dropout_rng).
  ForwardResult Forward(const nn::GraphTensors& tensors,
                        const nn::Matrix& features,
                        const std::vector<bool>& action_mask, bool training,
                        Rng* dropout_rng) const;

  /// Raw draws a training-mode Forward takes from `dropout_rng` on a
  /// query of `num_vertices` vertices: nn::Dropout draws one per entry of
  /// each graph layer's (num_vertices, hidden_dim) output, none when
  /// dropout is 0. An eval-mode Forward draws nothing.
  uint64_t TrainingForwardDraws(size_t num_vertices) const;

  /// Views into an InferenceWorkspace after ForwardInference; valid until
  /// the workspace's next use.
  struct InferenceResult {
    /// (n, 1) log-probabilities: every entry is valid — masked-in entries
    /// equal the eval-mode autograd forward, the rest hold
    /// nn::kMaskedLogProb (exactly as the autograd forward does).
    const nn::Matrix* log_probs = nullptr;
    /// (n, 1) raw pre-mask scores, valid ONLY at masked-in rows: the
    /// serving forward computes the network head just for the action space
    /// (nothing reads the other scores), so rows outside the mask hold
    /// unspecified values.
    const nn::Matrix* raw_scores = nullptr;
  };

  /// Tape-free serving forward: masked scores/log-probs bit-identical to
  /// the eval-mode (training=false) Forward, with no Var tape and no
  /// allocation once `workspace` buffers reach their high-water mark.
  /// Computes only the rows something reads, from a row plan derived
  /// backwards from `action_mask` and kept in the workspace: the MLP head
  /// and the last graph layer compute the action rows, and each earlier
  /// graph layer the closed query-graph neighbourhood (A + I, read from
  /// tensors.attention_mask) of the next layer's rows — the same rows for
  /// MlpConv. Linear layers apply bias and ReLU before the single store of
  /// each row, and nothing is zero-filled. Dropout is off by construction
  /// (it only applies when training).
  InferenceResult ForwardInference(nn::InferenceWorkspace* workspace,
                                   const nn::GraphTensors& tensors,
                                   const nn::Matrix& features,
                                   const std::vector<bool>& action_mask) const;

  /// All trainable parameters (GNN layers then MLP).
  std::vector<nn::Var> Parameters() const;

  const PolicyConfig& config() const { return config_; }

  /// Deep copy with identical weights — the PPO sampling policy π_θ'.
  PolicyNetwork Clone() const;
  /// Overwrites every weight with `source`'s; the configs must match.
  /// Gradients are left as they were.
  void CopyWeightsFrom(const PolicyNetwork& source);

  /// Persists config + weights. Loadable by Load.
  Status Save(const std::string& path) const;
  static Result<PolicyNetwork> Load(const std::string& path);

  /// Config encoded as checkpoint metadata (merged with caller metadata by
  /// higher-level savers such as RLQVOModel).
  std::map<std::string, std::string> ConfigMetadata() const;
  /// Parses the metadata written by ConfigMetadata.
  static Result<PolicyConfig> ConfigFromMetadata(
      const std::map<std::string, std::string>& metadata);
  /// Rebuilds a network from already-loaded checkpoint pieces.
  static Result<PolicyNetwork> FromCheckpoint(
      const std::map<std::string, std::string>& metadata,
      const std::vector<nn::Matrix>& matrices);

  /// float32-equivalent parameter footprint (Table IV's "Model Space").
  size_t ParameterBytes() const;

 private:
  PolicyConfig config_;
  std::vector<std::unique_ptr<nn::GraphLayer>> gnn_layers_;
  std::unique_ptr<nn::Linear> mlp_hidden_;
  std::unique_ptr<nn::Linear> mlp_out_;
};

}  // namespace rlqvo
