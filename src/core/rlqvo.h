#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/query_engine.h"
#include "matching/matcher.h"
#include "rl/policy_network.h"
#include "rl/ppo.h"

namespace rlqvo {

/// \brief An Ordering (phase-2 plug-in) backed by a trained RL-QVO policy.
///
/// Inference follows Sec III-D: per step, compute vertex representations
/// with the GNN, score with the MLP, mask to the action space and pick the
/// argmax (or sample, when stochastic exploration is requested). Steps with
/// a single legal action skip the network entirely.
///
/// Every forward runs tape-free through PolicyNetwork::ForwardInference
/// and an owned nn::InferenceWorkspace (no Var graph, no per-step
/// allocation once the buffers reach their high-water mark, only the rows
/// the action space reads computed); the graph tensors and static feature
/// columns are hoisted once per query, and only the two step-varying
/// feature columns h(6..7) are refreshed between steps. The scores are
/// bit-identical to the eval-mode autograd forward
/// (PolicyNetwork::Forward), which serves PPO training and is the tests'
/// oracle.
///
/// Fallback contract: MakeOrder never fails a well-formed query because of
/// the policy. If the policy cannot produce a usable order — the query is
/// disconnected so the MDP's action space empties mid-episode, or the
/// network emits non-finite scores (e.g. a corrupted checkpoint) — the
/// order falls back to RIOrdering, and if that also refuses (disconnected
/// query) to a greedy connected completion of the partial policy order.
/// fallback_count() says how often the most recent instance fell back.
///
/// A (stateful) RLQVOOrdering instance is not thread-safe; QueryEngine
/// builds one per worker thread via RLQVOModel::MakeEngine.
class RLQVOOrdering : public Ordering {
 public:
  /// \param policy shared, immutable trained policy.
  /// \param features must match the feature config used in training.
  /// \param stochastic sample from the action distribution instead of argmax.
  RLQVOOrdering(std::shared_ptr<const PolicyNetwork> policy,
                FeatureConfig features, bool stochastic = false,
                uint64_t seed = 0);

  std::string name() const override { return "RL-QVO"; }
  /// Greedy-argmax inference is a pure function of the query (cacheable by
  /// the engine's order cache); sampling is not.
  bool deterministic() const override { return !stochastic_; }
  Result<std::vector<VertexId>> MakeOrder(const OrderingContext& ctx) override;

  /// Wall-clock seconds the most recent MakeOrder spent (the "order
  /// inference time" of Sec IV-F).
  double last_inference_seconds() const { return last_inference_seconds_; }

  /// Number of MakeOrder calls that fell back to RI (or the connected
  /// completion) instead of returning a pure policy order.
  uint64_t fallback_count() const { return fallback_count_; }

  /// The owned tape-free workspace; its buffer_grows() lets benches and
  /// tests assert steady-state inference is allocation-free.
  const nn::InferenceWorkspace& inference_workspace() const {
    return inference_workspace_;
  }

 private:
  /// Picks the next vertex from the masked log-probs (argmax, or a sample
  /// in stochastic mode); kInvalidVertex if no masked score is finite.
  VertexId ChooseAction(const nn::Matrix& log_probs,
                        const std::vector<bool>& mask, uint32_t n);

  std::shared_ptr<const PolicyNetwork> policy_;
  FeatureConfig features_;
  bool stochastic_;
  Rng rng_;
  nn::InferenceWorkspace inference_workspace_;
  double last_inference_seconds_ = 0.0;
  uint64_t fallback_count_ = 0;
};

/// \brief The top-level RL-QVO model: policy network + feature config,
/// with training, persistence, and factory methods for pluggable orderings
/// and complete matchers.
///
/// Typical use:
///
///   RLQVOModel model;                       // default paper architecture
///   model.Train(train_queries, data, {});   // PPO training
///   auto matcher = model.MakeMatcher();     // GQL filter + RL-QVO order
///   auto stats = matcher->Match(q, data);
class RLQVOModel {
 public:
  explicit RLQVOModel(const PolicyConfig& policy_config = {},
                      const FeatureConfig& feature_config = {});

  /// Trains with PPO on (queries, data). Repeated calls warm-start from the
  /// current weights — pass a config with fewer epochs to realise the
  /// incremental training of Sec III-F. The model's feature config
  /// overrides `config.features`.
  Result<TrainStats> Train(const std::vector<Graph>& queries,
                           const Graph& data, TrainConfig config);

  /// Generates a matching order for one query (greedy argmax inference).
  Result<std::vector<VertexId>> MakeOrder(const Graph& query,
                                          const Graph& data) const;

  /// A pluggable Ordering sharing this model's policy.
  std::shared_ptr<Ordering> MakeOrdering(bool stochastic = false,
                                         uint64_t seed = 0) const;

  /// A complete matcher: `filter_name` candidates + RL-QVO ordering + the
  /// shared enumeration engine. Default filter is GQL, as in the paper.
  Result<std::shared_ptr<SubgraphMatcher>> MakeMatcher(
      const EnumerateOptions& enum_options = {},
      const std::string& filter_name = "GQL") const;

  /// A parallel batch QueryEngine serving this model against `data`:
  /// `filter_name` candidates (shared, with the engine's LRU candidate
  /// cache) + one RL-QVO ordering per worker thread, all sharing this
  /// model's policy (inference is read-only, so sharing is safe). Each
  /// worker's ordering owns its tape-free inference workspace, and because
  /// greedy-argmax RL-QVO is deterministic the engine's fingerprint-keyed
  /// order cache memoises its orders — repeated query shapes skip the
  /// policy forwards entirely. The engine keeps the policy alive; it may
  /// outlive this RLQVOModel.
  Result<std::shared_ptr<QueryEngine>> MakeEngine(
      std::shared_ptr<const Graph> data,
      const EngineOptions& engine_options = {},
      const EnumerateOptions& enum_options = {},
      const std::string& filter_name = "GQL") const;

  /// Persists the policy weights, architecture and feature config.
  Status Save(const std::string& path) const;
  /// Loads a model saved by Save.
  static Result<RLQVOModel> Load(const std::string& path);

  const PolicyNetwork& policy() const { return *policy_; }
  PolicyNetwork* mutable_policy() { return policy_.get(); }
  const FeatureConfig& feature_config() const { return feature_config_; }
  /// float32-equivalent parameter footprint (Table IV's "Model Space").
  size_t ParameterBytes() const { return policy_->ParameterBytes(); }

 private:
  std::shared_ptr<PolicyNetwork> policy_;
  FeatureConfig feature_config_;
};

}  // namespace rlqvo
