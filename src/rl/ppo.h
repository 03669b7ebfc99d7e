#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "matching/filters.h"
#include "matching/matcher.h"
#include "rl/env.h"
#include "rl/policy_network.h"
#include "rl/reward.h"

namespace rlqvo {

/// \brief Training controls for PPO (Sec III-E).
struct TrainConfig {
  /// Training epochs; the paper uses 100 (10 for incremental training).
  int epochs = 100;
  /// Optimisation passes over each collected batch (PPO reuses samples).
  int ppo_epochs = 4;
  double learning_rate = 1e-3;  ///< paper default (Sec IV-A)
  double clip_epsilon = 0.2;    ///< ε of Eq. (6)
  double max_grad_norm = 5.0;   ///< global gradient clip; 0 disables
  RewardConfig reward;
  FeatureConfig features;
  /// Candidate filter used for reward evaluation; "GQL" matches Hybrid.
  std::string filter_name = "GQL";
  /// Enumeration caps while scoring episodes — the paper reduces the number
  /// of enumerated matches during training to keep it affordable (Sec III-H).
  uint64_t train_match_limit = 10000;
  double train_time_limit_seconds = 1.0;
  /// Standardise advantages across the batch (variance reduction).
  bool normalize_advantages = true;
  /// Also collect one greedy (argmax) episode per query each epoch, so the
  /// deterministic inference mode is optimised directly alongside the
  /// sampled exploration episodes (self-imitation-style addition; not in
  /// the paper — ROADMAP.md item 1(c) re-judges it).
  bool include_greedy_episode = true;
  /// Wall-clock budget for Train(); 0 = unlimited. When exceeded, training
  /// stops after the current epoch and reports the epochs completed.
  double max_train_seconds = 0.0;
  uint64_t seed = 1234;
  bool verbose = false;
};

/// \brief What Train() reports.
struct TrainStats {
  int epochs_run = 0;
  size_t episodes = 0;
  double train_time_seconds = 0.0;
  /// Mean enumeration reward (log-ratio vs the RI baseline) per epoch;
  /// positive means the learned orders beat RI on the training queries.
  std::vector<double> epoch_mean_enum_reward;
  /// Mean total episode return per epoch.
  std::vector<double> epoch_mean_return;
};

/// \brief Proximal Policy Optimization trainer for the ordering policy.
///
/// Each epoch: snapshot the sampling policy π_θ', roll out one episode per
/// training query (actions sampled from the masked softmax), score each
/// completed order by running the shared enumeration engine and comparing
/// #enum against the cached RI-baseline order (Sec III-C's reward), then
/// run `ppo_epochs` clipped-surrogate updates (Eq. 6-7) with Adam.
class PPOTrainer {
 public:
  /// \param policy the network to train (borrowed; must outlive the trainer).
  PPOTrainer(PolicyNetwork* policy, const TrainConfig& config);

  /// Trains on the given query set against `data`. Can be called repeatedly
  /// (incremental training, Sec III-F): later calls warm-start from the
  /// current weights.
  Result<TrainStats> Train(const std::vector<Graph>& queries,
                           const Graph& data);

  const TrainConfig& config() const { return config_; }

 private:
  struct QueryContext;

  PolicyNetwork* policy_;
  TrainConfig config_;
};

}  // namespace rlqvo
