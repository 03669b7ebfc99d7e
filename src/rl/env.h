#pragma once

#include <vector>

#include "graph/graph.h"
#include "matching/ordering.h"
#include "rl/features.h"

namespace rlqvo {

/// \brief The query-vertex-ordering MDP of Sec III-C.
///
/// State: the partial order φ_t, held as an OrderPrefix, plus the feature
/// matrix H_t (whose step features evolve). Action space: the prefix's
/// selectable vertices, N(φ_t) — all vertices before the first selection.
/// An episode ends when φ is a full permutation.
///
/// Everything that depends only on (query, data) — the GraphTensors and the
/// static feature columns h(1..5) — is computed once at construction and
/// reused across Reset/Step: PPO replays the same query for many episodes
/// and the serving path runs |V(q)| steps per query, so per-episode or
/// per-step rebuilds would dominate. Only the two step columns h(6..7) are
/// refreshed by Step/Reset, in place on one owned feature matrix.
class OrderingEnv {
 public:
  /// \param query / data must outlive the env.
  OrderingEnv(const Graph* query, const Graph* data,
              const FeatureConfig& feature_config);

  /// Clears the order and restores the initial state.
  void Reset();

  const Graph& query() const { return prefix_.query(); }
  /// t = number of ordered vertices so far.
  size_t step() const { return prefix_.size(); }
  bool Done() const { return prefix_.full(); }

  /// Action mask over query vertices: true = selectable at this step.
  const std::vector<bool>& ActionMask() const { return action_mask_; }
  /// Number of currently selectable vertices.
  size_t NumActions() const { return num_actions_; }
  /// The single legal action, when NumActions()==1 (the |AS(t)|=1 shortcut
  /// of Sec III-D); kInvalidVertex otherwise.
  VertexId SoleAction() const;

  /// Copy of the current feature matrix H_t, (|V(q)|, feature_dim).
  /// Training records keep the copy; the serving path reads FeaturesView()
  /// instead.
  nn::Matrix Features() const { return features_; }

  /// The env-owned feature matrix, maintained incrementally (static columns
  /// written once, step columns refreshed by Step/Reset). Valid until the
  /// next Step/Reset; never reallocated after construction.
  const nn::Matrix& FeaturesView() const { return features_; }

  /// Constant graph matrices for the policy GNN.
  const nn::GraphTensors& tensors() const { return tensors_; }

  /// Applies action u (must be in the action mask); updates φ, the mask and
  /// the step features.
  void Step(VertexId u);

  /// The order built so far (complete permutation once Done()).
  const std::vector<VertexId>& order() const { return prefix_.order(); }
  /// The ordered prefix φ_t behind order() and the action mask.
  const OrderPrefix& prefix() const { return prefix_; }

 private:
  void RecomputeMask();

  FeatureBuilder feature_builder_;
  nn::GraphTensors tensors_;  // built once per query, shared by all episodes
  nn::Matrix features_;  // (|V(q)|, feature_dim), maintained in place
  OrderPrefix prefix_;
  std::vector<bool> action_mask_;
  size_t num_actions_ = 0;
};

}  // namespace rlqvo
