#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
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

/// \brief One recorded decision of a PPO batch. Steps with a single legal
/// action are taken directly and not recorded (the |AS(t)|=1 shortcut).
struct PPOStep {
  /// The query's constant graph matrices (borrowed). Every step of the
  /// query points at the same tensors, and the update pass's workers read
  /// them concurrently; nothing writes them.
  const nn::GraphTensors* tensors = nullptr;
  nn::Matrix features;
  std::vector<bool> mask;
  VertexId action = kInvalidVertex;
  /// log π_θ'(action) under the sampling policy.
  double old_log_prob = 0.0;
  double advantage = 0.0;
};

/// \brief One clipped-surrogate gradient pass of PPO (Eq. 6-7), streamed
/// across a thread pool with one autograd tape per recorded step.
///
/// Run adds the gradient of L = −(1/N) Σ_s min(r_s A_s, clip(r_s, 1 ± ε)
/// A_s), with r_s = π_θ(a_s) / π_θ'(a_s) and dropout on, into the policy's
/// parameter gradients. The result is bit-identical to one Backward over
/// one tape of the whole batch (the loss built as 0 − m_1 − … − m_N, then
/// scaled by 1/N), for any pool size:
/// - Step s runs its training forward on a clone of the policy, with
///   dropout drawn from a copy of `rng` taken where that tape's forward of
///   step s began; `rng` is advanced past every step's draws
///   (PolicyNetwork::TrainingForwardDraws), so it ends where the tape left
///   it.
/// - Each step's backward starts from min(·) scaled by −1/N, the gradient
///   the tape's Sub chain hands every step.
/// - Each step's forward runs on the row plan of its action rows
///   (PolicyNetwork::PlanRows): π_θ(a_s) reads only their receptive field.
///   On the one tape a row outside the plan gets a gradient of +0.0, so
///   every product it adds to a parameter's gradient is ±0.0, which leaves
///   a sum that starts at +0.0 unchanged: skipping the row changes nothing
///   while its activations are finite. A non-finite activation outside the
///   plan made the one tape's gradients NaN; the planned step ignores it.
/// - The per-step parameter gradients are added into the policy's in
///   reverse batch order, step N first: the tape's reverse-topological walk
///   finishes step N's subgraph before it enters step N−1's. Every
///   backbone reads each parameter once per forward, so a parameter gets
///   exactly one contribution per step (a layer that read one twice would
///   break the bit-identity; rl_ppo_test checks all six).
///
/// Workers claim steps in reverse batch order. Each step runs in one slot
/// of a window of four slots per worker; a slot owns a PolicyNetwork clone
/// whose gradients hold that step's contribution until the calling thread
/// has added it in, so at most `pool.size()` tapes and 4 × `pool.size()`
/// gradient sets are alive at once, whatever the batch size.
class PPOUpdatePass {
 public:
  /// \param policy the trained network (borrowed; must outlive the pass).
  /// \param pool the workers (borrowed). Run must not be called from one of
  /// its threads.
  PPOUpdatePass(PolicyNetwork* policy, ThreadPool* pool);

  /// Streams one pass over `batch` (no-op when empty); see the class
  /// comment. Copies the policy's current weights into every clone first,
  /// so an optimiser step between passes is seen.
  void Run(const std::vector<PPOStep>& batch, double clip_epsilon, Rng* rng);

 private:
  struct Slot {
    explicit Slot(PolicyNetwork net)
        : network(std::move(net)), params(network.Parameters()) {}
    PolicyNetwork network;
    std::vector<nn::Var> params;
  };

  PolicyNetwork* policy_;
  std::vector<nn::Var> params_;  // policy_->Parameters()
  ThreadPool* pool_;
  std::vector<Slot> slots_;
};

/// \brief Proximal Policy Optimization trainer for the ordering policy.
///
/// Each epoch: snapshot the sampling policy π_θ', roll out one episode per
/// training query (actions sampled from the masked softmax), score each
/// completed order by running the shared enumeration engine and comparing
/// #enum against the cached RI-baseline order (Sec III-C's reward), then
/// run `ppo_epochs` clipped-surrogate updates (Eq. 6-7) with Adam. Rollouts
/// and rewards run on the calling thread; rollouts score each step on the
/// tape-free PolicyNetwork::ForwardInference over every row, then mask
/// with nn::MaskedLogSoftmaxInto, bit-identical to the eval-mode Forward.
/// Each update's gradient pass runs on a ThreadPool of
/// std::thread::hardware_concurrency() workers that lives for one Train
/// call (PPOUpdatePass), and the trained weights are the same bytes for
/// any worker count.
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
