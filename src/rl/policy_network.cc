#include "rl/policy_network.h"

#include <algorithm>
#include <numeric>

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
    const std::vector<bool>& action_mask, bool training, Rng* dropout_rng,
    const RowPlan* plan) const {
  RLQVO_CHECK_EQ(features.cols(), static_cast<size_t>(config_.feature_dim));
  RLQVO_CHECK_EQ(features.rows(), action_mask.size());
  const size_t n = features.rows();
  const size_t num_layers = gnn_layers_.size();
  RowPlan every_row;  // the null plan: each level lists every row
  if (plan == nullptr) {
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    every_row.assign(num_layers + 1, all);
    plan = &every_row;
  }
  RLQVO_CHECK_EQ(plan->size(), num_layers + 1);
  const RowPlan& rows_at = *plan;
  nn::Var h = nn::Var::Constant(rows_at[0].size() == n
                                    ? features
                                    : nn::GatherRows(features, rows_at[0]));
  for (size_t l = 0; l < num_layers; ++l) {
    const nn::GraphLayer& layer = *gnn_layers_[l];
    const std::vector<uint32_t>& rows = rows_at[l + 1];
    // Layer l computes `rows` from the rows of h; a layer that computes
    // every row, or reads no neighbours, reads the (n, n) tensors whole.
    const bool cut = rows.size() != n && layer.ReadsNeighbours();
    const nn::GraphTensors sliced =
        cut ? nn::SliceGraphTensors(tensors, rows, rows_at[l],
                                    layer.TensorsRead())
            : nn::GraphTensors{};
    h = nn::Relu(layer.Forward(cut ? sliced : tensors, h));
    if (training && config_.dropout > 0.0) {
      h = nn::Dropout(h, config_.dropout, dropout_rng, /*training=*/true,
                      rows, n);
    }
  }
  // Eq. 4: scores = W2 σ(W1 h); mask + softmax produce the distribution.
  nn::Var hidden = nn::Relu(mlp_hidden_->Forward(h));
  nn::Var scores = mlp_out_->Forward(hidden);  // (m, 1)
  const std::vector<uint32_t>& head = rows_at[num_layers];
  std::vector<bool> head_mask(head.size());
  for (size_t i = 0; i < head.size(); ++i) head_mask[i] = action_mask[head[i]];
  ForwardResult result;
  result.raw_scores = scores;
  result.log_probs = nn::MaskedLogSoftmax(scores, head_mask);
  return result;
}

uint64_t PolicyNetwork::TrainingForwardDraws(size_t num_vertices) const {
  if (config_.dropout <= 0.0) return 0;
  return static_cast<uint64_t>(gnn_layers_.size()) * num_vertices *
         static_cast<uint64_t>(config_.hidden_dim);
}

namespace {

/// Appends to `out`, ascending, the closed neighbourhood of `rows` in
/// `mask` (A + I): every j with mask(i, j) != 0 for some i in `rows`.
void AppendClosedNeighbourhood(const nn::Matrix& mask, nn::RowList rows,
                               std::vector<uint32_t>* out) {
  for (uint32_t j = 0; j < mask.cols(); ++j) {
    for (const uint32_t i : rows) {
      if (mask.At(i, j) != 0.0) {
        out->push_back(j);
        break;
      }
    }
  }
}

}  // namespace

void PolicyNetwork::PlanRows(const nn::GraphTensors& tensors,
                             const std::vector<bool>& action_mask,
                             std::span<std::vector<uint32_t>> plan) const {
  const size_t num_layers = gnn_layers_.size();
  const size_t n = action_mask.size();
  RLQVO_CHECK_EQ(plan.size(), num_layers + 1);
  RLQVO_CHECK(tensors.attention_mask.rows() == n &&
              tensors.attention_mask.cols() == n);
  // Only the action rows of the scores are read (the masked log-softmax
  // ignores the rest), and graph layer l reads the rows plan[l] of its
  // input to compute plan[l + 1].
  std::vector<uint32_t>& head = plan[num_layers];
  head.clear();
  for (uint32_t u = 0; u < n; ++u) {
    if (action_mask[u]) head.push_back(u);
  }
  for (size_t l = num_layers; l-- > 0;) {
    if (gnn_layers_[l]->ReadsNeighbours()) {
      plan[l].clear();
      AppendClosedNeighbourhood(tensors.attention_mask, plan[l + 1],
                                &plan[l]);
    } else {
      plan[l] = plan[l + 1];
    }
  }
}

PolicyNetwork::InferenceResult PolicyNetwork::ForwardInference(
    nn::InferenceWorkspace* workspace, const nn::GraphTensors& tensors,
    const nn::Matrix& features, const std::vector<bool>& action_mask) const {
  RLQVO_CHECK(workspace != nullptr);
  RLQVO_CHECK_EQ(features.cols(), static_cast<size_t>(config_.feature_dim));
  RLQVO_CHECK_EQ(features.rows(), action_mask.size());
  const size_t n = features.rows();
  const size_t hidden_dim = static_cast<size_t>(config_.hidden_dim);
  const size_t num_layers = gnn_layers_.size();
  std::vector<uint32_t>* plan = workspace->row_plan(num_layers + 1, n);
  PlanRows(tensors, action_mask, {plan, num_layers + 1});
  // GNN stack: ping-pong between two activation buffers (a layer must not
  // write into the matrix it reads); every layer is followed by a ReLU,
  // which the layer applies before storing.
  const nn::Matrix* h = &features;
  bool into_ping = true;
  for (size_t l = 0; l < num_layers; ++l) {
    nn::Matrix* next = into_ping ? workspace->ping(n, hidden_dim)
                                 : workspace->pong(n, hidden_dim);
    gnn_layers_[l]->ForwardInference(tensors, *h, plan[l], plan[l + 1],
                                     /*relu=*/true, workspace, next);
    h = next;
    into_ping = !into_ping;
  }
  // Eq. 4 head: scores = W2 σ(W1 h), then masked log-softmax.
  const nn::RowList action_rows = plan[num_layers];
  nn::Matrix* hidden = workspace->hidden(n, hidden_dim);
  mlp_hidden_->ForwardInference(*h, action_rows, /*relu=*/true, hidden);
  nn::Matrix* scores = workspace->scores(n);
  mlp_out_->ForwardInference(*hidden, action_rows, /*relu=*/false, scores);
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
  copy.CopyWeightsFrom(*this);
  return copy;
}

void PolicyNetwork::CopyWeightsFrom(const PolicyNetwork& source) {
  const std::vector<nn::Var> src = source.Parameters();
  std::vector<nn::Var> dst = Parameters();
  RLQVO_CHECK_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    RLQVO_CHECK(src[i].value().SameShape(dst[i].value()));
    dst[i].SetValue(src[i].value());
  }
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
  // A corrupt value must come back as a Status, never as an exception or a
  // constructor CHECK failure.
  auto dimension = [&](const char* key, int* out) -> Status {
    RLQVO_ASSIGN_OR_RETURN(std::string value, require(key));
    if (!nn::ParseMetadataInt(value, out) || *out < 1) {
      return Status::InvalidArgument(std::string("checkpoint '") + key +
                                     "' must be a positive integer, got '" +
                                     value + "'");
    }
    return Status::OK();
  };
  PolicyConfig config;
  RLQVO_ASSIGN_OR_RETURN(std::string backbone_name, require("backbone"));
  RLQVO_ASSIGN_OR_RETURN(config.backbone, nn::ParseBackbone(backbone_name));
  RLQVO_RETURN_NOT_OK(dimension("num_gnn_layers", &config.num_gnn_layers));
  RLQVO_RETURN_NOT_OK(dimension("hidden_dim", &config.hidden_dim));
  RLQVO_RETURN_NOT_OK(dimension("feature_dim", &config.feature_dim));
  // The widest weight matrix is (max(feature_dim, hidden_dim), hidden_dim);
  // the loader caps every matrix it reads at kMaxMatrixElements.
  const uint64_t widest =
      static_cast<uint64_t>(std::max(config.feature_dim, config.hidden_dim)) *
      static_cast<uint64_t>(config.hidden_dim);
  if (widest > nn::kMaxMatrixElements) {
    return Status::InvalidArgument(
        "checkpoint dimensions hidden_dim " +
        std::to_string(config.hidden_dim) + ", feature_dim " +
        std::to_string(config.feature_dim) +
        " exceed the per-matrix element cap");
  }
  RLQVO_ASSIGN_OR_RETURN(std::string dropout, require("dropout"));
  if (!nn::ParseMetadataDouble(dropout, &config.dropout) ||
      !(config.dropout >= 0.0 && config.dropout < 1.0)) {
    return Status::InvalidArgument(
        "checkpoint 'dropout' must be in [0, 1), got '" + dropout + "'");
  }
  return config;
}

Result<PolicyNetwork> PolicyNetwork::FromCheckpoint(
    const std::map<std::string, std::string>& metadata,
    const std::vector<nn::Matrix>& matrices) {
  RLQVO_ASSIGN_OR_RETURN(PolicyConfig config, ConfigFromMetadata(metadata));
  // Every graph layer has at least two parameter matrices and the MLP head
  // four: reject a layer count the checkpoint cannot hold before building
  // (and allocating) that many layers.
  const size_t layers = static_cast<size_t>(config.num_gnn_layers);
  if (matrices.size() < 4 || layers > (matrices.size() - 4) / 2) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(matrices.size()) +
        " matrices, too few for " + std::to_string(layers) + " GNN layers");
  }
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
