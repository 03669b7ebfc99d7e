#pragma once

#include <map>
#include <memory>
#include <span>
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
/// builds a fresh tape (query graphs are tiny) over the rows of a row
/// plan, every row unless one is given. PPO's update pass builds one such
/// tape per recorded step, on the plan of its action rows (PlanRows), each
/// on a Clone whose weights CopyWeightsFrom keeps equal to the trained
/// network's, and draws each step's dropout from its own copy of the
/// trainer's Rng, advanced by TrainingForwardDraws per earlier step
/// (rl/ppo.h). Rollouts and serving run the tape-free ForwardInference on
/// the same plans.
class PolicyNetwork {
 public:
  explicit PolicyNetwork(const PolicyConfig& config);

  /// Rows a forward computes, one ascending list per level: plan[0] the
  /// feature rows it reads, plan[l + 1] the rows graph layer l computes,
  /// plan[num_gnn_layers] also the rows of the MLP head.
  using RowPlan = std::vector<std::vector<uint32_t>>;

  /// The row plan of a forward whose only use is the log-probabilities of
  /// the action rows, derived backwards from `action_mask` into `plan`
  /// (num_gnn_layers + 1 lists, overwritten): the head and the last graph
  /// layer compute the action rows, and each earlier graph layer the
  /// closed query-graph neighbourhood (A + I, read from
  /// tensors.attention_mask) of the next layer's rows — the same rows for
  /// MlpConv. No row is computed that nothing reads. ForwardInference and
  /// PPO's update steps both plan with it.
  void PlanRows(const nn::GraphTensors& tensors,
                const std::vector<bool>& action_mask,
                std::span<std::vector<uint32_t>> plan) const;

  /// Output of one forward pass, one row per head row of the plan.
  struct ForwardResult {
    /// (m, 1) log-probabilities over the head rows' share of the action
    /// mask; entries outside the mask hold nn::kMaskedLogProb.
    nn::Var log_probs;
    /// (m, 1) raw pre-mask scores, used for the validity reward (whether
    /// the unmasked argmax lies inside the action space).
    nn::Var raw_scores;
  };

  /// \param tensors constant graph matrices from BuildGraphTensors.
  /// \param features (n, feature_dim) state features.
  /// \param action_mask true for vertices in the action space N(φ_t).
  /// \param training enables dropout (requires dropout_rng). Each dropout
  /// mask is drawn over the whole (n, hidden_dim) stream, so a planned
  /// forward draws what the every-row forward draws.
  /// \param plan rows to compute, from PlanRows; null computes every row
  /// (m = n). Output row i is query vertex plan->back()[i]. A planned
  /// forward's values, and the gradients a loss on its head rows sends to
  /// the parameters, equal the every-row forward's bit for bit, provided
  /// the every-row forward's activations are finite: a row outside the
  /// plan receives a gradient of +0.0, so each product it would add to a
  /// parameter's gradient is ±0.0, which leaves a sum that starts at +0.0
  /// unchanged; an inf or NaN there would make it NaN instead.
  ForwardResult Forward(const nn::GraphTensors& tensors,
                        const nn::Matrix& features,
                        const std::vector<bool>& action_mask, bool training,
                        Rng* dropout_rng,
                        const RowPlan* plan = nullptr) const;

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
  /// Computes only the rows something reads, on PlanRows' plan, kept in
  /// the workspace. Linear layers apply bias and ReLU before the single
  /// store of each row, and nothing is zero-filled. Dropout is off by
  /// construction (it only applies when training). An all-true mask
  /// computes every row's raw score; nn::MaskedLogSoftmaxInto over the
  /// real mask then gives the eval-mode Forward's log-probabilities, as
  /// PPO's rollouts do.
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
