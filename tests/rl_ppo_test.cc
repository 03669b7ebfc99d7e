#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <numeric>
#include <optional>

#include "nn/optimizer.h"
#include "rl/ppo.h"
#include "test_util.h"

namespace rlqvo {
namespace {

using testing_util::RandomData;
using testing_util::RandomQuery;

PolicyConfig TinyPolicy() {
  PolicyConfig config;
  config.hidden_dim = 8;
  config.num_gnn_layers = 2;
  config.dropout = 0.1;
  return config;
}

TrainConfig FastTrain(int epochs = 3) {
  TrainConfig config;
  config.epochs = epochs;
  config.ppo_epochs = 2;
  config.train_match_limit = 500;
  config.train_time_limit_seconds = 0.5;
  return config;
}

std::vector<Graph> TrainQueries(const Graph& data, uint64_t seed, int count,
                                uint32_t size) {
  QuerySampler sampler(&data, seed);
  return sampler.SampleQuerySet(size, count).ValueOrDie();
}

TEST(PPOTrainerTest, RunsAndReportsStats) {
  Graph data = RandomData(201, 120, 4.0, 3);
  std::vector<Graph> queries = TrainQueries(data, 5, 4, 5);
  PolicyNetwork policy(TinyPolicy());
  PPOTrainer trainer(&policy, FastTrain());
  auto stats = trainer.Train(queries, data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epochs_run, 3);
  // One sampled + one greedy episode per query per epoch.
  EXPECT_EQ(stats->episodes, 24u);
  EXPECT_EQ(stats->epoch_mean_enum_reward.size(), 3u);
  EXPECT_GT(stats->train_time_seconds, 0.0);
}

TEST(PPOTrainerTest, TrainingChangesParameters) {
  Graph data = RandomData(202, 120, 4.0, 3);
  std::vector<Graph> queries = TrainQueries(data, 6, 3, 5);
  PolicyNetwork policy(TinyPolicy());
  std::vector<double> before;
  for (const nn::Var& p : policy.Parameters()) {
    before.insert(before.end(), p.value().values().begin(),
                  p.value().values().end());
  }
  PPOTrainer trainer(&policy, FastTrain(2));
  ASSERT_TRUE(trainer.Train(queries, data).ok());
  std::vector<double> after;
  for (const nn::Var& p : policy.Parameters()) {
    after.insert(after.end(), p.value().values().begin(),
                 p.value().values().end());
  }
  EXPECT_NE(before, after);
}

TEST(PPOTrainerTest, DeterministicWithSeed) {
  Graph data = RandomData(203, 100, 4.0, 3);
  std::vector<Graph> queries = TrainQueries(data, 7, 3, 5);
  auto run = [&](uint64_t seed) {
    PolicyNetwork policy(TinyPolicy());
    TrainConfig config = FastTrain(2);
    config.seed = seed;
    PPOTrainer trainer(&policy, config);
    EXPECT_TRUE(trainer.Train(queries, data).ok());
    std::vector<double> params;
    for (const nn::Var& p : policy.Parameters()) {
      params.insert(params.end(), p.value().values().begin(),
                    p.value().values().end());
    }
    return params;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// ---------------------------------------------------------------------------
// The streamed update pass against the one-tape pass it replaced.

constexpr double kClip = 0.2;

/// The one-tape update pass, kept as the reference: one tape over the whole
/// batch (the loss built as a Sub chain 0 − m_1 − … − m_N, scaled by 1/N)
/// and one Backward. Dropout draws from `rng` in batch order.
void OneTapePass(const PolicyNetwork& policy,
                 const std::vector<PPOStep>& batch, Rng* rng) {
  if (batch.empty()) return;
  nn::Var loss = nn::Var::Leaf(nn::Matrix(1, 1), /*requires_grad=*/false);
  for (const PPOStep& s : batch) {
    auto forward = policy.Forward(*s.tensors, s.features, s.mask,
                                  /*training=*/true, rng);
    nn::Var log_prob = nn::Pick(forward.log_probs, s.action, 0);
    nn::Var ratio = nn::Exp(nn::AddScalar(log_prob, -s.old_log_prob));
    nn::Var unclipped = nn::Scale(ratio, s.advantage);
    nn::Var clipped =
        nn::Scale(nn::Clip(ratio, 1.0 - kClip, 1.0 + kClip), s.advantage);
    loss = nn::Sub(loss, nn::Min(unclipped, clipped));
  }
  loss = nn::Scale(loss, 1.0 / static_cast<double>(batch.size()));
  nn::Backward(loss);
}

/// Recorded steps of random episodes on several queries, with sampling
/// log-probabilities near the policy's so that some ratios clip and some
/// do not.
struct RecordedBatch {
  Graph data;
  std::vector<Graph> queries;
  std::vector<std::unique_ptr<OrderingEnv>> envs;
  std::vector<PPOStep> steps;

  // The envs and steps point into this batch's own data and queries, so a
  // batch is built in place and never copied or moved.
  RecordedBatch(const RecordedBatch&) = delete;
  RecordedBatch& operator=(const RecordedBatch&) = delete;

  /// Queries of 6–9 vertices, where a two-layer plan covers every row on
  /// most steps.
  RecordedBatch(const PolicyNetwork& policy, uint64_t seed)
      : RecordedBatch(policy, seed, RandomData(seed, 80, 4.0, 3), {6, 9, 7},
                      FeatureConfig{}) {}

  /// Queries of `sizes` vertices sampled from `data_graph`, whose features
  /// follow `features`.
  RecordedBatch(const PolicyNetwork& policy, uint64_t seed, Graph data_graph,
                const std::vector<uint32_t>& sizes,
                const FeatureConfig& features)
      : data(std::move(data_graph)) {
    for (uint32_t size : sizes) {
      queries.push_back(RandomQuery(data, seed + size, size));
    }
    Rng rng(seed);
    for (const Graph& q : queries) {
      envs.push_back(std::make_unique<OrderingEnv>(&q, &data, features));
      OrderingEnv& env = *envs.back();
      env.Reset();
      while (!env.Done()) {
        std::vector<VertexId> legal;
        for (VertexId u = 0; u < q.num_vertices(); ++u) {
          if (env.ActionMask()[u]) legal.push_back(u);
        }
        const VertexId action = rng.Choice(legal);
        if (legal.size() > 1) {
          PPOStep step;
          step.tensors = &env.tensors();
          step.features = env.Features();
          step.mask = env.ActionMask();
          step.action = action;
          auto eval = policy.Forward(env.tensors(), step.features, step.mask,
                                     /*training=*/false, nullptr);
          step.old_log_prob = eval.log_probs.value().At(action, 0) +
                              rng.NextUniform(-0.4, 0.4);
          step.advantage = rng.NextGaussian();
          steps.push_back(std::move(step));
        }
        env.Step(action);
      }
    }
  }
};

std::vector<uint64_t> GradBits(const PolicyNetwork& policy) {
  std::vector<uint64_t> bits;
  for (const nn::Var& p : policy.Parameters()) {
    for (double g : p.grad().values()) {
      bits.push_back(std::bit_cast<uint64_t>(g));
    }
  }
  return bits;
}

std::vector<uint64_t> WeightBits(const PolicyNetwork& policy) {
  std::vector<uint64_t> bits;
  for (const nn::Var& p : policy.Parameters()) {
    for (double v : p.value().values()) {
      bits.push_back(std::bit_cast<uint64_t>(v));
    }
  }
  return bits;
}

/// What two update passes with an Adam step after each leave behind.
struct TwoPassOutcome {
  std::vector<uint64_t> grads[2];
  std::vector<uint64_t> weights;
  uint64_t next_draw = 0;  ///< the trainer's Rng after the second pass
};

/// Runs two passes over `batch` from the same initial weights: streamed on
/// `pool`, or through OneTapePass when `pool` is null.
TwoPassOutcome TwoPasses(const PolicyConfig& config,
                         const std::vector<PPOStep>& batch, ThreadPool* pool) {
  PolicyNetwork policy(config);
  nn::Adam::Options adam_options;
  adam_options.learning_rate = 0.05;  // moves the weights the clones track
  nn::Adam adam(policy.Parameters(), adam_options);
  std::optional<PPOUpdatePass> pass;
  if (pool != nullptr) pass.emplace(&policy, pool);
  Rng rng(2024);
  TwoPassOutcome out;
  for (auto& grads : out.grads) {
    adam.ZeroGrad();
    if (pass) {
      pass->Run(batch, kClip, &rng);
    } else {
      OneTapePass(policy, batch, &rng);
    }
    grads = GradBits(policy);
    adam.Step();
  }
  out.weights = WeightBits(policy);
  out.next_draw = rng.NextUint64();
  return out;
}

void ExpectSameOutcome(const TwoPassOutcome& streamed,
                       const TwoPassOutcome& reference,
                       const std::string& label) {
  EXPECT_EQ(streamed.grads[0], reference.grads[0]) << label << ", pass 1";
  EXPECT_EQ(streamed.grads[1], reference.grads[1]) << label << ", pass 2";
  EXPECT_EQ(streamed.weights, reference.weights) << label;
  EXPECT_EQ(streamed.next_draw, reference.next_draw) << label;
}

TEST(PPOUpdatePassTest, MatchesOneTapeBitForBitOnEveryBackboneAndPoolSize) {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (uint32_t workers : {1u, 2u, 3u, 8u}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }
  for (nn::Backbone backbone :
       {nn::Backbone::kGcn, nn::Backbone::kMlp, nn::Backbone::kGat,
        nn::Backbone::kSage, nn::Backbone::kGraphNN, nn::Backbone::kLEConv}) {
    for (double dropout : {0.0, 0.2}) {
      PolicyConfig config;
      config.backbone = backbone;
      config.hidden_dim = 16;
      config.dropout = dropout;
      const RecordedBatch batch(PolicyNetwork(config), 300);
      ASSERT_GE(batch.steps.size(), 10u);
      const TwoPassOutcome reference = TwoPasses(config, batch.steps, nullptr);
      // Adam moved the weights, so the second pass ran on other weights.
      ASSERT_NE(reference.grads[0], reference.grads[1]);
      for (const auto& pool : pools) {
        ExpectSameOutcome(TwoPasses(config, batch.steps, pool.get()),
                          reference,
                          nn::BackboneName(backbone) + ", dropout " +
                              std::to_string(dropout) + ", " +
                              std::to_string(pool->size()) + " workers");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row-planned update steps: each step computes its action rows' receptive
// field only, which 6–9-vertex queries rarely leave.

const std::vector<nn::Backbone> kBackbones = {
    nn::Backbone::kGcn,  nn::Backbone::kMlp,     nn::Backbone::kGat,
    nn::Backbone::kSage, nn::Backbone::kGraphNN, nn::Backbone::kLEConv};

/// A sparse data graph (average degree 2.5), whose sampled 24–32-vertex
/// queries are sparse too; `directed` adds arcs and three edge labels.
Graph SparseData(uint64_t seed, bool directed = false) {
  LabelConfig labels;
  labels.num_labels = 3;
  labels.zipf_exponent = 0.5;
  if (directed) {
    labels.directed = true;
    labels.num_edge_labels = 3;
  }
  return GenerateErdosRenyi(400, 2.5, labels, seed).ValueOrDie();
}

/// Recorded episodes of 24–32-vertex queries on SparseData(seed).
RecordedBatch LargeQueryBatch(const PolicyConfig& config, uint64_t seed,
                              bool directed = false,
                              const FeatureConfig& features = {}) {
  return RecordedBatch(PolicyNetwork(config), seed,
                       SparseData(seed, directed), {24, 32, 28}, features);
}

PolicyNetwork::RowPlan PlanOf(const PolicyNetwork& policy,
                              const PPOStep& step) {
  PolicyNetwork::RowPlan plan(
      static_cast<size_t>(policy.config().num_gnn_layers) + 1);
  policy.PlanRows(*step.tensors, step.mask, plan);
  return plan;
}

/// The batch drives both kinds of step: some whose plan leaves rows out of
/// the first layer's input, and first steps, where every row is an action
/// and the plan is every row.
void ExpectCutAndEveryRowSteps(const PolicyConfig& config,
                               const std::vector<PPOStep>& steps) {
  const PolicyNetwork policy(config);
  size_t cut = 0;
  size_t every_row = 0;
  for (const PPOStep& step : steps) {
    const PolicyNetwork::RowPlan plan = PlanOf(policy, step);
    const size_t n = step.features.rows();
    cut += plan.front().size() < n;
    every_row += plan.back().size() == n;
  }
  EXPECT_GT(cut, steps.size() / 2) << nn::BackboneName(config.backbone);
  EXPECT_GT(every_row, 0u) << nn::BackboneName(config.backbone);
}

TEST(PPOUpdatePassTest, RowPlannedStepsMatchOneTapeOnLargeSparseQueries) {
  ThreadPool one(1);
  ThreadPool three(3);
  for (nn::Backbone backbone : kBackbones) {
    for (double dropout : {0.0, 0.2}) {
      PolicyConfig config;
      config.backbone = backbone;
      config.hidden_dim = 16;
      config.dropout = dropout;
      const RecordedBatch batch = LargeQueryBatch(config, 310);
      ExpectCutAndEveryRowSteps(config, batch.steps);
      const TwoPassOutcome reference = TwoPasses(config, batch.steps, nullptr);
      for (ThreadPool* pool : {&one, &three}) {
        ExpectSameOutcome(TwoPasses(config, batch.steps, pool), reference,
                          nn::BackboneName(backbone) + ", dropout " +
                              std::to_string(dropout) + ", " +
                              std::to_string(pool->size()) + " workers");
      }
    }
  }
}

TEST(PPOUpdatePassTest, RowPlannedStepsMatchOneTapeWithEdgeLabelFeatures) {
  // A directed, edge-labeled data graph and the 8th feature column.
  FeatureConfig features;
  features.edge_label_features = true;
  PolicyConfig config;
  config.hidden_dim = 16;
  config.dropout = 0.2;
  config.feature_dim = 8;
  const RecordedBatch batch =
      LargeQueryBatch(config, 311, /*directed=*/true, features);
  ASSERT_TRUE(batch.data.directed());
  ASSERT_EQ(batch.steps.front().features.cols(), 8u);
  ExpectCutAndEveryRowSteps(config, batch.steps);
  ThreadPool pool(3);
  ExpectSameOutcome(TwoPasses(config, batch.steps, &pool),
                    TwoPasses(config, batch.steps, nullptr),
                    "edge-label features, directed graph");
}

TEST(PolicyRowPlanTest, PlannedStepGradientsEqualEveryRowGradients) {
  // One training forward and Backward from the step's log-probability,
  // through the step's plan and through the every-row forward, from the
  // same weights and dropout stream: the values, the parameter gradients
  // and the stream's end agree bit for bit.
  for (nn::Backbone backbone : kBackbones) {
    PolicyConfig config;
    config.backbone = backbone;
    config.hidden_dim = 16;
    config.dropout = 0.2;
    const RecordedBatch batch = LargeQueryBatch(config, 312);
    size_t checked = 0;
    for (const PPOStep& step : batch.steps) {
      const size_t n = step.features.rows();
      const PolicyNetwork::RowPlan plan = PlanOf(PolicyNetwork(config), step);
      if (plan.front().size() == n) continue;
      const std::vector<uint32_t>& actions = plan.back();
      const size_t action_row = static_cast<size_t>(
          std::find(actions.begin(), actions.end(), step.action) -
          actions.begin());
      ASSERT_LT(action_row, actions.size());
      auto run = [&](const PolicyNetwork::RowPlan* row_plan) {
        PolicyNetwork policy(config);
        Rng dropout(99);
        const auto forward =
            policy.Forward(*step.tensors, step.features, step.mask,
                           /*training=*/true, &dropout, row_plan);
        const nn::Var log_prob = nn::Pick(
            forward.log_probs, row_plan ? action_row : step.action, 0);
        nn::Backward(nn::Scale(log_prob, -0.5));
        std::vector<uint64_t> bits = GradBits(policy);
        bits.push_back(std::bit_cast<uint64_t>(log_prob.value().At(0, 0)));
        bits.push_back(dropout.NextUint64());
        return bits;
      };
      EXPECT_EQ(run(&plan), run(nullptr))
          << nn::BackboneName(backbone) << ", plan[0] " << plan.front().size()
          << " of " << n << " rows, " << actions.size() << " actions";
      if (++checked == 4) break;
    }
    EXPECT_EQ(checked, 4u) << nn::BackboneName(backbone);
  }
}

TEST(PPOUpdatePassTest, BatchSmallerThanThePoolAndEmptyBatch) {
  ThreadPool pool(8);
  PolicyConfig config;
  config.hidden_dim = 16;
  config.dropout = 0.2;
  const RecordedBatch recorded(PolicyNetwork(config), 301);
  const std::vector<PPOStep> few(recorded.steps.begin(),
                                 recorded.steps.begin() + 3);
  ExpectSameOutcome(TwoPasses(config, few, &pool),
                    TwoPasses(config, few, nullptr), "3 steps, 8 workers");

  // An empty pass adds no gradient and draws nothing.
  PolicyNetwork policy(config);
  PPOUpdatePass pass(&policy, &pool);
  Rng rng(7);
  pass.Run({}, kClip, &rng);
  for (const nn::Var& p : policy.Parameters()) EXPECT_TRUE(p.grad().empty());
  EXPECT_EQ(rng.NextUint64(), Rng(7).NextUint64());
}

TEST(PPOTrainerTest, RejectsEmptyQuerySet) {
  Graph data = RandomData(204);
  PolicyNetwork policy(TinyPolicy());
  PPOTrainer trainer(&policy, FastTrain());
  EXPECT_FALSE(trainer.Train({}, data).ok());
}

TEST(PPOTrainerTest, TimeBudgetStopsEarly) {
  Graph data = RandomData(205, 150, 5.0, 3);
  std::vector<Graph> queries = TrainQueries(data, 8, 6, 8);
  PolicyNetwork policy(TinyPolicy());
  TrainConfig config = FastTrain(10000);
  config.max_train_seconds = 0.3;
  PPOTrainer trainer(&policy, config);
  auto stats = trainer.Train(queries, data);
  ASSERT_TRUE(stats.ok());
  EXPECT_LT(stats->epochs_run, 10000);
}

TEST(PPOTrainerTest, IncrementalTrainingWarmStarts) {
  Graph data = RandomData(206, 120, 4.0, 3);
  std::vector<Graph> q8 = TrainQueries(data, 9, 3, 6);
  std::vector<Graph> q16 = TrainQueries(data, 10, 3, 10);
  PolicyNetwork policy(TinyPolicy());
  PPOTrainer trainer(&policy, FastTrain(2));
  ASSERT_TRUE(trainer.Train(q8, data).ok());
  // Incremental phase on a larger query set (fresh call, fewer epochs).
  TrainConfig incr = FastTrain(1);
  PPOTrainer trainer2(&policy, incr);
  auto stats = trainer2.Train(q16, data);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->epochs_run, 1);
}

TEST(PPOTrainerTest, LearnsToBeatRandomOnBiasedInstance) {
  // Construct a data graph where starting from the rare label massively
  // shrinks the search tree; verify the mean enumeration reward does not
  // degrade over training (the policy should at least hold its ground).
  Graph data = RandomData(207, 200, 6.0, 4);
  std::vector<Graph> queries = TrainQueries(data, 11, 4, 8);
  PolicyNetwork policy(TinyPolicy());
  TrainConfig config = FastTrain(6);
  config.seed = 17;
  PPOTrainer trainer(&policy, config);
  auto stats = trainer.Train(queries, data).ValueOrDie();
  ASSERT_EQ(stats.epoch_mean_enum_reward.size(), 6u);
  const auto& r = stats.epoch_mean_enum_reward;
  const double first_half = (r[0] + r[1] + r[2]) / 3.0;
  const double second_half = (r[3] + r[4] + r[5]) / 3.0;
  EXPECT_GE(second_half, first_half - 0.75)
      << "reward collapsed during training";
}

}  // namespace
}  // namespace rlqvo
