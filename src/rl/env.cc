#include "rl/env.h"

namespace rlqvo {

OrderingEnv::OrderingEnv(const Graph* query, const Graph* data,
                         const FeatureConfig& feature_config)
    : feature_builder_(query, data, feature_config),
      tensors_(BuildGraphTensors(*query)),
      features_(query->num_vertices(), feature_builder_.feature_dim()),
      prefix_(*query),
      action_mask_(query->num_vertices()) {
  // The tensors and the static feature columns are per-query constants;
  // Reset (once per episode) and Step (once per ordering step) only touch
  // the order state and the step columns h(6..7).
  feature_builder_.FillStatic(&features_);
  Reset();
}

void OrderingEnv::Reset() {
  prefix_.Clear();
  feature_builder_.UpdateStepFeatures(prefix_.ordered(), 0, &features_);
  RecomputeMask();
}

VertexId OrderingEnv::SoleAction() const {
  if (num_actions_ != 1) return kInvalidVertex;
  for (VertexId u = 0; u < prefix_.num_vertices(); ++u) {
    if (action_mask_[u]) return u;
  }
  return kInvalidVertex;
}

void OrderingEnv::Step(VertexId u) {
  RLQVO_CHECK_LT(u, prefix_.num_vertices());
  RLQVO_CHECK(action_mask_[u]) << "action " << u << " not in action space";
  prefix_.Push(u);
  feature_builder_.UpdateStepFeatures(prefix_.ordered(), prefix_.size(),
                                      &features_);
  RecomputeMask();
}

void OrderingEnv::RecomputeMask() {
  num_actions_ = 0;
  for (VertexId u = 0; u < prefix_.num_vertices(); ++u) {
    action_mask_[u] = prefix_.Selectable(u);
    num_actions_ += action_mask_[u];
  }
}

}  // namespace rlqvo
