#include "core/rlqvo.h"

#include <cmath>
#include <utility>

#include "common/timer.h"
#include "nn/serialize.h"
#include "rl/env.h"

namespace rlqvo {

RLQVOOrdering::RLQVOOrdering(std::shared_ptr<const PolicyNetwork> policy,
                             FeatureConfig features, bool stochastic,
                             uint64_t seed)
    : policy_(std::move(policy)),
      features_(features),
      stochastic_(stochastic),
      rng_(seed) {
  RLQVO_CHECK(policy_ != nullptr);
}

VertexId RLQVOOrdering::ChooseAction(const nn::Matrix& log_probs,
                                     const std::vector<bool>& mask,
                                     uint32_t n) {
  if (stochastic_) {
    std::vector<double> probs;
    std::vector<VertexId> actions;
    for (VertexId u = 0; u < n; ++u) {
      if (!mask[u]) continue;
      const double p = std::exp(log_probs.At(u, 0));
      if (!std::isfinite(p)) return kInvalidVertex;  // corrupted weights
      probs.push_back(p);
      actions.push_back(u);
    }
    const size_t pick = rng_.SampleDiscrete(probs);
    return pick < actions.size() ? actions[pick] : actions[0];
  }
  VertexId choice = kInvalidVertex;
  double best = -1e300;
  for (VertexId u = 0; u < n; ++u) {
    if (!mask[u]) continue;
    const double lp = log_probs.At(u, 0);
    // A NaN score never compares greater, so a fully-NaN forward (poisoned
    // checkpoint) leaves choice == kInvalidVertex and triggers the RI
    // fallback instead of crashing the query.
    if (lp > best) {
      best = lp;
      choice = u;
    }
  }
  return choice;
}

Result<std::vector<VertexId>> RLQVOOrdering::MakeOrder(
    const OrderingContext& ctx) {
  if (ctx.query == nullptr) {
    return Status::InvalidArgument("ordering context missing query graph");
  }
  if (ctx.data == nullptr) {
    return Status::InvalidArgument("RL-QVO ordering requires the data graph");
  }
  Stopwatch watch;
  const uint32_t n = ctx.query->num_vertices();
  // The env hoists everything static per query — graph tensors and the
  // feature columns h(1..5) — at construction; each Step refreshes only the
  // step columns h(6..7) in place, so the loop below allocates nothing
  // beyond the (grown-once) inference workspace buffers.
  OrderingEnv env(ctx.query, ctx.data, features_);
  bool policy_failed = false;
  while (!env.Done()) {
    if (env.NumActions() == 0) {
      // Disconnected query: the MDP's action space emptied with vertices
      // left to order. The policy cannot continue; fall back.
      policy_failed = true;
      break;
    }
    const VertexId sole = env.SoleAction();
    if (sole != kInvalidVertex) {
      env.Step(sole);
      continue;
    }
    const PolicyNetwork::InferenceResult forward = policy_->ForwardInference(
        &inference_workspace_, env.tensors(), env.FeaturesView(),
        env.ActionMask());
    const VertexId choice =
        ChooseAction(*forward.log_probs, env.ActionMask(), n);
    if (choice == kInvalidVertex) {
      policy_failed = true;  // non-finite scores
      break;
    }
    env.Step(choice);
  }
  if (!policy_failed) {
    last_inference_seconds_ = watch.ElapsedSeconds();
    return env.order();
  }

  // Fallback contract: never fail the query because of the policy. Prefer
  // the RI baseline; when RI itself refuses (disconnected query), complete
  // the partial policy order greedily: most backward neighbors, then
  // higher degree, then lower id, and GreedyOrder seeds each further
  // component by the same key. The enumerator accepts any permutation, so
  // this keeps disconnected queries servable.
  ++fallback_count_;
  RIOrdering baseline;
  Result<std::vector<VertexId>> ri_order = baseline.MakeOrder(ctx);
  last_inference_seconds_ = watch.ElapsedSeconds();
  if (ri_order.ok()) return ri_order;
  OrderPrefix prefix = env.prefix();
  GreedyOrder(&prefix, [&](VertexId u) {
    return std::make_pair(-static_cast<int64_t>(prefix.backward(u)),
                          -static_cast<int64_t>(ctx.query->degree(u)));
  });
  return prefix.order();
}

namespace {

/// The network input width is dictated by the feature config: the optional
/// edge-label column widens it to 8, whatever the caller's PolicyConfig
/// said (the two must agree or every forward would CHECK-fail).
PolicyConfig AdjustedPolicyConfig(PolicyConfig config,
                                  const FeatureConfig& features) {
  if (features.edge_label_features) {
    config.feature_dim = FeatureBuilder::kFeatureDim + 1;
  }
  return config;
}

}  // namespace

RLQVOModel::RLQVOModel(const PolicyConfig& policy_config,
                       const FeatureConfig& feature_config)
    : policy_(std::make_shared<PolicyNetwork>(
          AdjustedPolicyConfig(policy_config, feature_config))),
      feature_config_(feature_config) {}

Result<TrainStats> RLQVOModel::Train(const std::vector<Graph>& queries,
                                     const Graph& data, TrainConfig config) {
  config.features = feature_config_;
  PPOTrainer trainer(policy_.get(), config);
  return trainer.Train(queries, data);
}

Result<std::vector<VertexId>> RLQVOModel::MakeOrder(const Graph& query,
                                                    const Graph& data) const {
  RLQVOOrdering ordering(policy_, feature_config_);
  OrderingContext ctx;
  ctx.query = &query;
  ctx.data = &data;
  return ordering.MakeOrder(ctx);
}

std::shared_ptr<Ordering> RLQVOModel::MakeOrdering(bool stochastic,
                                                   uint64_t seed) const {
  return std::make_shared<RLQVOOrdering>(policy_, feature_config_, stochastic,
                                         seed);
}

Result<std::shared_ptr<SubgraphMatcher>> RLQVOModel::MakeMatcher(
    const EnumerateOptions& enum_options,
    const std::string& filter_name) const {
  MatcherConfig config;
  RLQVO_ASSIGN_OR_RETURN(config.filter, MakeFilter(filter_name));
  config.ordering = MakeOrdering();
  config.enum_options = enum_options;
  config.name = "RL-QVO";
  return std::make_shared<SubgraphMatcher>(std::move(config));
}

Result<std::shared_ptr<QueryEngine>> RLQVOModel::MakeEngine(
    std::shared_ptr<const Graph> data, const EngineOptions& engine_options,
    const EnumerateOptions& enum_options,
    const std::string& filter_name) const {
  if (data == nullptr) {
    return Status::InvalidArgument("MakeEngine: data graph is null");
  }
  EngineConfig config;
  config.data = std::move(data);
  RLQVO_ASSIGN_OR_RETURN(config.filter, MakeFilter(filter_name));
  // Capture the policy/features by value so the engine does not dangle if
  // the model is destroyed first.
  config.ordering_factory =
      [policy = std::shared_ptr<const PolicyNetwork>(policy_),
       features = feature_config_]() -> Result<std::shared_ptr<Ordering>> {
    return std::shared_ptr<Ordering>(
        std::make_shared<RLQVOOrdering>(policy, features));
  };
  config.enum_options = enum_options;
  config.name = "RL-QVO";
  return std::make_shared<QueryEngine>(std::move(config), engine_options);
}

Status RLQVOModel::Save(const std::string& path) const {
  std::map<std::string, std::string> metadata = policy_->ConfigMetadata();
  metadata["feature_alpha_degree"] = std::to_string(feature_config_.alpha_degree);
  metadata["feature_alpha_d"] = std::to_string(feature_config_.alpha_d);
  metadata["feature_alpha_l"] = std::to_string(feature_config_.alpha_l);
  // std::string temporaries instead of `cond ? "1" : "0"` const char*
  // assignment: GCC 12's -O2/-O3 inliner emits a -Wrestrict false positive
  // (GCC PR105329) through basic_string::operator=(const char*) on the
  // ternary form, and this spelling is what lets the GCC CI legs build with
  // -Werror.
  metadata["feature_random"] =
      std::string(feature_config_.random_features ? "1" : "0");
  metadata["feature_scale_ids"] =
      std::string(feature_config_.scale_ids ? "1" : "0");
  metadata["feature_edge_labels"] =
      std::string(feature_config_.edge_label_features ? "1" : "0");
  return nn::SaveParameters(policy_->Parameters(), metadata, path);
}

Result<RLQVOModel> RLQVOModel::Load(const std::string& path) {
  RLQVO_ASSIGN_OR_RETURN(nn::Checkpoint ckpt, nn::LoadCheckpoint(path));
  RLQVO_ASSIGN_OR_RETURN(PolicyNetwork network, PolicyNetwork::FromCheckpoint(
                                                    ckpt.metadata,
                                                    ckpt.matrices));
  FeatureConfig features;
  // Optional scaling factors: absent keeps the default; present must parse
  // as a finite positive number (the features divide by them).
  auto get_alpha = [&](const char* key, double* out) -> Status {
    auto it = ckpt.metadata.find(key);
    if (it == ckpt.metadata.end()) return Status::OK();
    if (!nn::ParseMetadataDouble(it->second, out) || !std::isfinite(*out) ||
        *out <= 0.0) {
      return Status::InvalidArgument(
          std::string("checkpoint '") + key +
          "' must be a finite positive number, got '" + it->second + "'");
    }
    return Status::OK();
  };
  RLQVO_RETURN_NOT_OK(
      get_alpha("feature_alpha_degree", &features.alpha_degree));
  RLQVO_RETURN_NOT_OK(get_alpha("feature_alpha_d", &features.alpha_d));
  RLQVO_RETURN_NOT_OK(get_alpha("feature_alpha_l", &features.alpha_l));
  auto it = ckpt.metadata.find("feature_random");
  if (it != ckpt.metadata.end()) features.random_features = it->second == "1";
  it = ckpt.metadata.find("feature_scale_ids");
  if (it != ckpt.metadata.end()) features.scale_ids = it->second == "1";
  // Absent in pre-edge-label checkpoints: default off, widths unchanged.
  it = ckpt.metadata.find("feature_edge_labels");
  if (it != ckpt.metadata.end()) {
    features.edge_label_features = it->second == "1";
  }
  // The network's input width must be the feature builder's, or the first
  // forward would CHECK-fail.
  const int feature_width =
      FeatureBuilder::kFeatureDim + (features.edge_label_features ? 1 : 0);
  if (network.config().feature_dim != feature_width) {
    return Status::InvalidArgument(
        "checkpoint feature_dim " +
        std::to_string(network.config().feature_dim) +
        " does not match its feature config (" +
        std::to_string(feature_width) + " columns)");
  }

  RLQVOModel model(network.config(), features);
  std::vector<nn::Var> params = model.policy_->Parameters();
  RLQVO_RETURN_NOT_OK(nn::AssignParameters(ckpt.matrices, &params));
  return model;
}

}  // namespace rlqvo
