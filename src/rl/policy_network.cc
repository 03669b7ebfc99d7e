#include "rl/policy_network.h"

#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace rlqvo {

PolicyNetwork::PolicyNetwork(const PolicyConfig& config) : config_(config) {
  RLQVO_CHECK_GE(config_.num_gnn_layers, 1);
  RLQVO_CHECK_GE(config_.hidden_dim, 1);
  RLQVO_CHECK_GE(config_.feature_dim, 1);
  Rng rng(config_.init_seed);
  size_t in = static_cast<size_t>(config_.feature_dim);
  for (int l = 0; l < config_.num_gnn_layers; ++l) {
    gnn_layers_.push_back(nn::MakeGraphLayer(
        config_.backbone, in, static_cast<size_t>(config_.hidden_dim), &rng));
    in = static_cast<size_t>(config_.hidden_dim);
  }
  mlp_hidden_ = std::make_unique<nn::Linear>(
      in, static_cast<size_t>(config_.hidden_dim), &rng);
  mlp_out_ = std::make_unique<nn::Linear>(
      static_cast<size_t>(config_.hidden_dim), 1, &rng);
}

PolicyNetwork::ForwardResult PolicyNetwork::Forward(
    const nn::GraphTensors& tensors, const nn::Matrix& features,
    const std::vector<bool>& action_mask, bool training,
    Rng* dropout_rng) const {
  RLQVO_CHECK_EQ(features.cols(), static_cast<size_t>(config_.feature_dim));
  RLQVO_CHECK_EQ(features.rows(), action_mask.size());
  nn::Var h = nn::Var::Constant(features);
  for (const auto& layer : gnn_layers_) {
    h = nn::Relu(layer->Forward(tensors, h));
    if (training && config_.dropout > 0.0) {
      h = nn::Dropout(h, config_.dropout, dropout_rng, /*training=*/true);
    }
  }
  // Eq. 4: scores = W2 σ(W1 h); mask + softmax produce the distribution.
  nn::Var hidden = nn::Relu(mlp_hidden_->Forward(h));
  nn::Var scores = mlp_out_->Forward(hidden);  // (n, 1)
  ForwardResult result;
  result.raw_scores = scores;
  result.log_probs = nn::MaskedLogSoftmax(scores, action_mask);
  return result;
}

PolicyNetwork::InferenceResult PolicyNetwork::ForwardInference(
    nn::InferenceWorkspace* workspace, const nn::GraphTensors& tensors,
    const nn::Matrix& features, const std::vector<bool>& action_mask) const {
  RLQVO_CHECK(workspace != nullptr);
  RLQVO_CHECK_EQ(features.cols(), static_cast<size_t>(config_.feature_dim));
  RLQVO_CHECK_EQ(features.rows(), action_mask.size());
  const size_t n = features.rows();
  const size_t hidden_dim = static_cast<size_t>(config_.hidden_dim);
  // GNN stack: ping-pong between two activation buffers (a layer must not
  // write into the matrix it reads). Only the action-space rows of the
  // network's output are ever read (MaskedLogSoftmax ignores the rest), so
  // the last graph layer and the MLP head compute just those rows — a
  // serving-only cut the autograd forward cannot make.
  const nn::Matrix* h = &features;
  bool into_ping = true;
  for (size_t l = 0; l < gnn_layers_.size(); ++l) {
    nn::Matrix* next = into_ping ? workspace->ping(n, hidden_dim)
                                 : workspace->pong(n, hidden_dim);
    const std::vector<bool>* rows =
        l + 1 == gnn_layers_.size() ? &action_mask : nullptr;
    gnn_layers_[l]->ForwardInference(tensors, *h, workspace, next, rows);
    nn::ReluInPlace(next, rows);
    h = next;
    into_ping = !into_ping;
  }
  // Eq. 4 head: scores = W2 σ(W1 h), then masked log-softmax.
  nn::Matrix* hidden = workspace->hidden(n, hidden_dim);
  mlp_hidden_->ForwardInference(*h, hidden, &action_mask);
  nn::ReluInPlace(hidden, &action_mask);
  nn::Matrix* scores = workspace->scores(n);
  mlp_out_->ForwardInference(*hidden, scores, &action_mask);
  nn::Matrix* log_probs = workspace->log_probs(n);
  nn::MaskedLogSoftmaxInto(*scores, action_mask, log_probs);
  InferenceResult result;
  result.raw_scores = scores;
  result.log_probs = log_probs;
  return result;
}

std::vector<nn::Var> PolicyNetwork::Parameters() const {
  std::vector<nn::Var> params;
  for (const auto& layer : gnn_layers_) {
    for (const nn::Var& p : layer->Parameters()) params.push_back(p);
  }
  for (const nn::Var& p : mlp_hidden_->Parameters()) params.push_back(p);
  for (const nn::Var& p : mlp_out_->Parameters()) params.push_back(p);
  return params;
}

PolicyNetwork PolicyNetwork::Clone() const {
  PolicyNetwork copy(config_);
  std::vector<nn::Var> src = Parameters();
  std::vector<nn::Var> dst = copy.Parameters();
  RLQVO_CHECK_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    dst[i].SetValue(src[i].value());
  }
  return copy;
}

std::map<std::string, std::string> PolicyNetwork::ConfigMetadata() const {
  std::map<std::string, std::string> metadata;
  metadata["backbone"] = nn::BackboneName(config_.backbone);
  metadata["num_gnn_layers"] = std::to_string(config_.num_gnn_layers);
  metadata["hidden_dim"] = std::to_string(config_.hidden_dim);
  metadata["feature_dim"] = std::to_string(config_.feature_dim);
  metadata["dropout"] = std::to_string(config_.dropout);
  return metadata;
}

Result<PolicyConfig> PolicyNetwork::ConfigFromMetadata(
    const std::map<std::string, std::string>& metadata) {
  auto require = [&](const char* key) -> Result<std::string> {
    auto it = metadata.find(key);
    if (it == metadata.end()) {
      return Status::InvalidArgument(std::string("checkpoint missing '") +
                                     key + "' metadata");
    }
    return it->second;
  };
  PolicyConfig config;
  RLQVO_ASSIGN_OR_RETURN(std::string backbone_name, require("backbone"));
  RLQVO_ASSIGN_OR_RETURN(config.backbone, nn::ParseBackbone(backbone_name));
  RLQVO_ASSIGN_OR_RETURN(std::string layers, require("num_gnn_layers"));
  config.num_gnn_layers = std::stoi(layers);
  RLQVO_ASSIGN_OR_RETURN(std::string hidden, require("hidden_dim"));
  config.hidden_dim = std::stoi(hidden);
  RLQVO_ASSIGN_OR_RETURN(std::string feature, require("feature_dim"));
  config.feature_dim = std::stoi(feature);
  RLQVO_ASSIGN_OR_RETURN(std::string dropout, require("dropout"));
  config.dropout = std::stod(dropout);
  return config;
}

Result<PolicyNetwork> PolicyNetwork::FromCheckpoint(
    const std::map<std::string, std::string>& metadata,
    const std::vector<nn::Matrix>& matrices) {
  RLQVO_ASSIGN_OR_RETURN(PolicyConfig config, ConfigFromMetadata(metadata));
  PolicyNetwork network(config);
  std::vector<nn::Var> params = network.Parameters();
  RLQVO_RETURN_NOT_OK(nn::AssignParameters(matrices, &params));
  return network;
}

Status PolicyNetwork::Save(const std::string& path) const {
  return nn::SaveParameters(Parameters(), ConfigMetadata(), path);
}

Result<PolicyNetwork> PolicyNetwork::Load(const std::string& path) {
  RLQVO_ASSIGN_OR_RETURN(nn::Checkpoint ckpt, nn::LoadCheckpoint(path));
  return FromCheckpoint(ckpt.metadata, ckpt.matrices);
}

size_t PolicyNetwork::ParameterBytes() const {
  return nn::ParameterBytesFloat32(Parameters());
}

}  // namespace rlqvo
