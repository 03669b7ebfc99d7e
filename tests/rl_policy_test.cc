#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "nn/optimizer.h"
#include "rl/env.h"
#include "rl/policy_network.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

PolicyConfig SmallConfig() {
  PolicyConfig config;
  config.hidden_dim = 8;
  config.num_gnn_layers = 2;
  return config;
}

struct ForwardSetup {
  Graph data;
  Graph query;
  nn::GraphTensors tensors;
  nn::Matrix features;
  std::vector<bool> mask;

  explicit ForwardSetup(uint64_t seed)
      : data(RandomData(seed)), query(RandomQuery(data, seed + 1, 5)) {
    tensors = BuildGraphTensors(query);
    FeatureBuilder builder(&query, &data, FeatureConfig{});
    features = builder.Build(std::vector<bool>(query.num_vertices(), false), 0);
    mask.assign(query.num_vertices(), true);
    mask[0] = false;  // exclude one vertex to exercise masking
  }
};

TEST(PolicyNetworkTest, ForwardShapesAndNormalization) {
  ForwardSetup s(101);
  PolicyNetwork net(SmallConfig());
  auto out = net.Forward(s.tensors, s.features, s.mask, false, nullptr);
  ASSERT_EQ(out.log_probs.value().rows(), s.query.num_vertices());
  ASSERT_EQ(out.raw_scores.value().rows(), s.query.num_vertices());
  double total = 0.0;
  for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
    if (s.mask[u]) {
      total += std::exp(out.log_probs.value().At(u, 0));
    } else {
      EXPECT_DOUBLE_EQ(out.log_probs.value().At(u, 0), nn::kMaskedLogProb);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(PolicyNetworkTest, DeterministicEvalForward) {
  ForwardSetup s(102);
  PolicyNetwork net(SmallConfig());
  auto a = net.Forward(s.tensors, s.features, s.mask, false, nullptr);
  auto b = net.Forward(s.tensors, s.features, s.mask, false, nullptr);
  EXPECT_EQ(a.log_probs.value().values(), b.log_probs.value().values());
}

TEST(PolicyNetworkTest, DropoutMakesTrainingStochastic) {
  ForwardSetup s(103);
  PolicyConfig config = SmallConfig();
  config.dropout = 0.5;
  PolicyNetwork net(config);
  Rng rng(3);
  auto a = net.Forward(s.tensors, s.features, s.mask, true, &rng);
  auto b = net.Forward(s.tensors, s.features, s.mask, true, &rng);
  EXPECT_NE(a.raw_scores.value().values(), b.raw_scores.value().values());
}

TEST(PolicyNetworkTest, TrainingForwardDrawsCountsTheDropoutDraws) {
  ForwardSetup s(107);
  for (nn::Backbone backbone : {nn::Backbone::kGcn, nn::Backbone::kGat}) {
    for (double dropout : {0.0, 0.2}) {
      PolicyConfig config = SmallConfig();
      config.backbone = backbone;
      config.dropout = dropout;
      PolicyNetwork net(config);
      Rng forward_rng(9), skipped(9);
      net.Forward(s.tensors, s.features, s.mask, true, &forward_rng);
      skipped.Discard(net.TrainingForwardDraws(s.query.num_vertices()));
      EXPECT_EQ(forward_rng.NextUint64(), skipped.NextUint64())
          << nn::BackboneName(backbone) << ", dropout " << dropout;
    }
  }
}

TEST(PolicyNetworkTest, ParameterCountMatchesArchitecture) {
  PolicyConfig config;
  config.feature_dim = 7;
  config.hidden_dim = 64;
  config.num_gnn_layers = 2;
  config.backbone = nn::Backbone::kGcn;
  PolicyNetwork net(config);
  // GCN1: 7*64+64; GCN2: 64*64+64; MLP hidden: 64*64+64; MLP out: 64+1.
  const size_t expected =
      (7 * 64 + 64) + (64 * 64 + 64) + (64 * 64 + 64) + (64 + 1);
  EXPECT_EQ(nn::ParameterCount(net.Parameters()), expected);
  EXPECT_EQ(net.ParameterBytes(), expected * 4);
}

TEST(PolicyNetworkTest, GradientsFlowToAllParameters) {
  ForwardSetup s(104);
  PolicyNetwork net(SmallConfig());
  auto out = net.Forward(s.tensors, s.features, s.mask, false, nullptr);
  nn::Backward(nn::Pick(out.log_probs, 1, 0));
  for (const nn::Var& p : net.Parameters()) {
    EXPECT_FALSE(p.grad().empty());
  }
}

TEST(PolicyNetworkTest, CloneIsIndependent) {
  ForwardSetup s(105);
  PolicyNetwork net(SmallConfig());
  PolicyNetwork clone = net.Clone();
  auto before = clone.Forward(s.tensors, s.features, s.mask, false, nullptr);
  // Perturb the original's parameters.
  auto params = net.Parameters();
  nn::Matrix bumped = params[0].value();
  for (double& v : bumped.values()) v += 1.0;
  params[0].SetValue(bumped);
  auto original_after =
      net.Forward(s.tensors, s.features, s.mask, false, nullptr);
  auto clone_after =
      clone.Forward(s.tensors, s.features, s.mask, false, nullptr);
  EXPECT_EQ(before.log_probs.value().values(),
            clone_after.log_probs.value().values());
  EXPECT_NE(original_after.log_probs.value().values(),
            clone_after.log_probs.value().values());
}

TEST(PolicyNetworkTest, CopyWeightsFromResyncsAClone) {
  ForwardSetup s(108);
  PolicyNetwork net(SmallConfig());
  PolicyNetwork clone = net.Clone();
  auto params = net.Parameters();
  nn::Matrix bumped = params[0].value();
  for (double& v : bumped.values()) v += 1.0;
  params[0].SetValue(bumped);
  clone.CopyWeightsFrom(net);
  EXPECT_EQ(clone.Forward(s.tensors, s.features, s.mask, false, nullptr)
                .log_probs.value()
                .values(),
            net.Forward(s.tensors, s.features, s.mask, false, nullptr)
                .log_probs.value()
                .values());
}

TEST(PolicyNetworkTest, SaveLoadRoundTrip) {
  ForwardSetup s(106);
  PolicyConfig config = SmallConfig();
  config.backbone = nn::Backbone::kSage;
  config.num_gnn_layers = 3;
  PolicyNetwork net(config);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlqvo_policy.model").string();
  ASSERT_TRUE(net.Save(path).ok());
  auto loaded = PolicyNetwork::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->config().num_gnn_layers, 3);
  EXPECT_EQ(loaded->config().backbone, nn::Backbone::kSage);
  auto a = net.Forward(s.tensors, s.features, s.mask, false, nullptr);
  auto b = loaded->Forward(s.tensors, s.features, s.mask, false, nullptr);
  EXPECT_EQ(a.log_probs.value().values(), b.log_probs.value().values());
  std::remove(path.c_str());
}

TEST(PolicyNetworkTest, ConfigFromMetadataRejectsMissingKeys) {
  auto result = PolicyNetwork::ConfigFromMetadata({{"backbone", "GCN"}});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(PolicyNetworkTest, AllBackbonesForward) {
  ForwardSetup s(107);
  for (nn::Backbone backbone :
       {nn::Backbone::kGcn, nn::Backbone::kMlp, nn::Backbone::kGat,
        nn::Backbone::kSage, nn::Backbone::kGraphNN, nn::Backbone::kLEConv}) {
    PolicyConfig config = SmallConfig();
    config.backbone = backbone;
    PolicyNetwork net(config);
    auto out = net.Forward(s.tensors, s.features, s.mask, false, nullptr);
    for (VertexId u = 0; u < s.query.num_vertices(); ++u) {
      if (s.mask[u]) {
        EXPECT_TRUE(std::isfinite(out.log_probs.value().At(u, 0)))
            << nn::BackboneName(backbone);
      }
    }
  }
}

}  // namespace
}  // namespace rlqvo
