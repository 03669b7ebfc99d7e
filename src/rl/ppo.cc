#include "rl/ppo.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/timer.h"
#include "matching/enumerator.h"
#include "matching/ordering.h"
#include "nn/inference.h"
#include "nn/optimizer.h"

namespace rlqvo {

namespace {

/// Step `step`'s share of the pass: its training forward under `dropout`
/// on the row plan of its action rows, then Backward from its
/// clipped-surrogate term scaled by `root_scale` (−1/N), accumulating into
/// `network`'s parameter gradients.
void AccumulateStepGradient(const PolicyNetwork& network, const PPOStep& step,
                            double clip_epsilon, double root_scale,
                            Rng* dropout) {
  PolicyNetwork::RowPlan plan(
      static_cast<size_t>(network.config().num_gnn_layers) + 1);
  network.PlanRows(*step.tensors, step.mask, plan);
  const PolicyNetwork::ForwardResult forward =
      network.Forward(*step.tensors, step.features, step.mask,
                      /*training=*/true, dropout, &plan);
  // The head computes the action rows only; the action is one of them.
  const std::vector<uint32_t>& actions = plan.back();
  const auto action_row =
      std::lower_bound(actions.begin(), actions.end(), step.action);
  RLQVO_CHECK(action_row != actions.end() && *action_row == step.action);
  const nn::Var log_prob = nn::Pick(
      forward.log_probs, static_cast<size_t>(action_row - actions.begin()), 0);
  const nn::Var ratio = nn::Exp(nn::AddScalar(log_prob, -step.old_log_prob));
  const nn::Var unclipped = nn::Scale(ratio, step.advantage);
  const nn::Var clipped = nn::Scale(
      nn::Clip(ratio, 1.0 - clip_epsilon, 1.0 + clip_epsilon),
      step.advantage);
  nn::Backward(nn::Scale(nn::Min(unclipped, clipped), root_scale));
}

/// Hand-off state of one PPOUpdatePass::Run. Position p (0-based) is step
/// N − 1 − p, computed in slot p % window; the calling thread consumes
/// positions in order.
struct PassWindow {
  Mutex mu;
  CondVar cv;  // a position claimed, a slot filled or freed, a worker done
  size_t next GUARDED_BY(mu) = 0;      // next unclaimed position
  size_t consumed GUARDED_BY(mu) = 0;  // positions added into the policy
  std::vector<char> ready GUARDED_BY(mu);  // per slot: holds a position
  uint32_t finished GUARDED_BY(mu) = 0;    // worker loops that returned
};

}  // namespace

PPOUpdatePass::PPOUpdatePass(PolicyNetwork* policy, ThreadPool* pool)
    : policy_(policy), pool_(pool) {
  RLQVO_CHECK(policy != nullptr);
  RLQVO_CHECK(pool != nullptr);
  params_ = policy_->Parameters();
  // Steps are added in order, so one slow step holds its slot and every
  // later one; four slots per worker let the others run ahead meanwhile
  // (two and eight measured in docs/BENCHMARKS.md, "Streamed PPO update").
  const size_t window = 4 * static_cast<size_t>(pool_->size());
  slots_.reserve(window);
  for (size_t i = 0; i < window; ++i) slots_.emplace_back(policy_->Clone());
}

void PPOUpdatePass::Run(const std::vector<PPOStep>& batch,
                        double clip_epsilon, Rng* rng) {
  RLQVO_CHECK(rng != nullptr);
  RLQVO_CHECK(ThreadPool::CurrentPool() != pool_)
      << "PPOUpdatePass::Run called from its own pool";
  const size_t n = batch.size();
  if (n == 0) return;
  // Dropout streams, taken in batch order: step s draws from the state the
  // one-tape pass reached when its forward of step s began.
  std::vector<Rng> streams;
  streams.reserve(n);
  for (const PPOStep& step : batch) {
    streams.push_back(*rng);
    rng->Discard(policy_->TrainingForwardDraws(step.features.rows()));
  }
  for (Slot& slot : slots_) slot.network.CopyWeightsFrom(*policy_);

  const double root_scale = -1.0 / static_cast<double>(n);
  const size_t window = slots_.size();
  const uint32_t workers = pool_->size();
  PassWindow w;
  {
    MutexLock lock(&w.mu);
    w.ready.assign(window, 0);
  }
  for (uint32_t t = 0; t < workers; ++t) {
    pool_->Submit([&] {
      for (;;) {
        size_t p = 0;
        {
          MutexLock lock(&w.mu);
          if (w.next == n) break;
          p = w.next++;
          // The slot still holds position p − window until it is consumed.
          while (p >= w.consumed + window) w.cv.Wait(&w.mu);
        }
        Slot& slot = slots_[p % window];
        for (nn::Var& param : slot.params) param.ZeroGrad();
        AccumulateStepGradient(slot.network, batch[n - 1 - p], clip_epsilon,
                               root_scale, &streams[n - 1 - p]);
        MutexLock lock(&w.mu);
        w.ready[p % window] = 1;
        w.cv.NotifyAll();
      }
      MutexLock lock(&w.mu);
      ++w.finished;
      w.cv.NotifyAll();
    });
  }
  // The ordered sum, on this thread: step N's gradients first.
  for (size_t p = 0; p < n; ++p) {
    const Slot& slot = slots_[p % window];
    {
      MutexLock lock(&w.mu);
      while (w.ready[p % window] == 0) w.cv.Wait(&w.mu);
    }
    for (size_t j = 0; j < params_.size(); ++j) {
      params_[j].AddToGrad(slot.params[j].grad());
    }
    MutexLock lock(&w.mu);
    w.ready[p % window] = 0;
    ++w.consumed;
    w.cv.NotifyAll();
  }
  // The loops touch `w` until they return.
  MutexLock lock(&w.mu);
  while (w.finished < workers) w.cv.Wait(&w.mu);
}

/// Per-query cached state: env (features + graph tensors), candidates, the
/// RI-baseline enumeration count, and a memo of already-scored orders.
struct PPOTrainer::QueryContext {
  QueryContext(const Graph* query, const Graph* data,
               const FeatureConfig& features)
      : env(query, data, features) {}

  OrderingEnv env;
  CandidateSet candidates;
  uint64_t baseline_enum = 0;
  std::map<std::vector<VertexId>, uint64_t> enum_memo;
};

PPOTrainer::PPOTrainer(PolicyNetwork* policy, const TrainConfig& config)
    : policy_(policy), config_(config) {
  RLQVO_CHECK(policy != nullptr);
}

Result<TrainStats> PPOTrainer::Train(const std::vector<Graph>& queries,
                                     const Graph& data) {
  if (queries.empty()) {
    return Status::InvalidArgument("no training queries");
  }
  Stopwatch train_watch;
  Rng rng(config_.seed);

  RLQVO_ASSIGN_OR_RETURN(std::shared_ptr<CandidateFilter> filter,
                         MakeFilter(config_.filter_name));
  EnumerateOptions enum_options;
  enum_options.match_limit = config_.train_match_limit;
  enum_options.time_limit_seconds = config_.train_time_limit_seconds;

  Enumerator enumerator;
  EnumeratorWorkspace enum_workspace;  // reused across all training rollouts
  RIOrdering baseline_ordering;

  // Build per-query contexts: candidates + RI baseline #enum.
  std::vector<std::unique_ptr<QueryContext>> contexts;
  contexts.reserve(queries.size());
  for (const Graph& q : queries) {
    auto ctx = std::make_unique<QueryContext>(&q, &data, config_.features);
    RLQVO_ASSIGN_OR_RETURN(ctx->candidates, filter->Filter(q, data));
    OrderingContext octx;
    octx.query = &q;
    octx.data = &data;
    octx.candidates = &ctx->candidates;
    RLQVO_ASSIGN_OR_RETURN(std::vector<VertexId> base_order,
                           baseline_ordering.MakeOrder(octx));
    RLQVO_ASSIGN_OR_RETURN(
        EnumerateResult base_result,
        enumerator.Run(q, data, ctx->candidates, base_order, enum_options,
                       &enum_workspace));
    ctx->baseline_enum = base_result.num_enumerations;
    contexts.push_back(std::move(ctx));
  }

  nn::Adam::Options adam_options;
  adam_options.learning_rate = config_.learning_rate;
  adam_options.max_grad_norm = config_.max_grad_norm;
  nn::Adam adam(policy_->Parameters(), adam_options);
  ThreadPool pool(/*num_threads=*/0);  // hardware_concurrency workers
  PPOUpdatePass update(policy_, &pool);
  // Rollout scoring: the tape-free forward's buffers and the masked
  // log-probabilities, reused across every rollout step.
  nn::InferenceWorkspace rollout_workspace;
  nn::Matrix log_probs;

  TrainStats stats;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    // Sampling policy π_θ' — frozen for this epoch (Sec III-E).
    PolicyNetwork sampling_policy = policy_->Clone();

    std::vector<PPOStep> batch;
    double epoch_enum_reward = 0.0;
    double epoch_return = 0.0;
    size_t episodes_this_epoch = 0;

    // Rolls out one episode for query `qi` under the frozen sampling policy,
    // appending its recorded steps to `batch`; `greedy` selects argmax
    // actions (the inference mode) instead of sampling from the masked
    // distribution.
    auto run_episode = [&](size_t qi, bool greedy) -> Status {
      QueryContext& qc = *contexts[qi];
      qc.env.Reset();
      const size_t first_step = batch.size();
      std::vector<double> step_rewards;
      const size_t n = qc.env.query().num_vertices();
      // The validity reward reads every row's raw score, so the tape-free
      // forward scores every row; the action mask applies afterwards.
      const std::vector<bool> every_row(n, true);

      while (!qc.env.Done()) {
        const VertexId sole = qc.env.SoleAction();
        if (sole != kInvalidVertex) {
          qc.env.Step(sole);
          continue;
        }
        PPOStep record;
        record.tensors = &qc.env.tensors();
        record.features = qc.env.Features();
        record.mask = qc.env.ActionMask();
        const PolicyNetwork::InferenceResult scored =
            sampling_policy.ForwardInference(&rollout_workspace,
                                             qc.env.tensors(), record.features,
                                             every_row);
        const nn::Matrix& raw = *scored.raw_scores;
        log_probs.ResizeForOverwrite(n, 1);
        nn::MaskedLogSoftmaxInto(raw, record.mask, &log_probs);
        std::vector<double> probs;
        std::vector<VertexId> actions;
        for (VertexId u = 0; u < n; ++u) {
          if (record.mask[u]) {
            probs.push_back(std::exp(log_probs.At(u, 0)));
            actions.push_back(u);
          }
        }
        VertexId action;
        if (greedy) {
          size_t best = 0;
          for (size_t i = 1; i < probs.size(); ++i) {
            if (probs[i] > probs[best]) best = i;
          }
          action = actions[best];
        } else {
          const size_t pick = rng.SampleDiscrete(probs);
          action = pick < actions.size() ? actions[pick] : actions[0];
        }
        record.action = action;
        record.old_log_prob = log_probs.At(action, 0);

        // Validity reward: is the *unmasked* argmax a legal action?
        size_t argmax = 0;
        for (size_t i = 1; i < raw.rows(); ++i) {
          if (raw.At(i, 0) > raw.At(argmax, 0)) argmax = i;
        }
        const bool valid = record.mask[argmax];
        const double entropy = Entropy(probs);
        // β-weighted validity + entropy portion of Eq. (1); the shared
        // enumeration reward is added once the episode completes.
        step_rewards.push_back(
            StepReward(config_.reward, /*enum_reward=*/0.0, valid, entropy));

        batch.push_back(std::move(record));
        qc.env.Step(action);
      }
      const std::vector<VertexId>& order = qc.env.order();

      // Enumeration reward: run (or recall) the enumeration for this order.
      uint64_t learned_enum = 0;
      auto memo = qc.enum_memo.find(order);
      if (memo != qc.enum_memo.end()) {
        learned_enum = memo->second;
      } else {
        RLQVO_ASSIGN_OR_RETURN(
            EnumerateResult run,
            enumerator.Run(queries[qi], data, qc.candidates, order,
                           enum_options, &enum_workspace));
        learned_enum = run.num_enumerations;
        qc.enum_memo[order] = learned_enum;
      }
      const double enum_reward =
          EnumerationReward(qc.baseline_enum, learned_enum);
      epoch_enum_reward += enum_reward;

      // Total step rewards (Eq. 1) and decayed returns-to-go (Eq. 2).
      for (double& r : step_rewards) r += enum_reward;
      const std::vector<double> returns =
          DiscountedReturns(config_.reward, step_rewards);
      for (size_t i = 0; i < returns.size(); ++i) {
        batch[first_step + i].advantage = returns[i];
      }
      epoch_return += returns.empty() ? 0.0 : returns[0];
      ++stats.episodes;
      ++episodes_this_epoch;
      return Status::OK();
    };

    for (size_t qi = 0; qi < contexts.size(); ++qi) {
      RLQVO_RETURN_NOT_OK(run_episode(qi, /*greedy=*/false));
      if (config_.include_greedy_episode) {
        RLQVO_RETURN_NOT_OK(run_episode(qi, /*greedy=*/true));
      }
    }

    stats.epoch_mean_enum_reward.push_back(
        epoch_enum_reward / static_cast<double>(episodes_this_epoch));
    stats.epoch_mean_return.push_back(
        epoch_return / static_cast<double>(episodes_this_epoch));

    // Advantage standardisation across the whole batch.
    if (config_.normalize_advantages && batch.size() > 1) {
      const double count = static_cast<double>(batch.size());
      double mean = 0.0;
      for (const PPOStep& s : batch) mean += s.advantage;
      mean /= count;
      double var = 0.0;
      for (const PPOStep& s : batch) {
        var += (s.advantage - mean) * (s.advantage - mean);
      }
      const double stddev = std::sqrt(var / count);
      for (PPOStep& s : batch) {
        s.advantage = (s.advantage - mean) / (stddev + 1e-8);
      }
    }

    // Clipped-surrogate updates (Eq. 6-7), `ppo_epochs` passes per batch.
    if (!batch.empty()) {
      for (int k = 0; k < config_.ppo_epochs; ++k) {
        adam.ZeroGrad();
        update.Run(batch, config_.clip_epsilon, &rng);
        adam.Step();
      }
    }

    stats.epochs_run = epoch + 1;
    if (config_.verbose) {
      RLQVO_LOG(Info) << "epoch " << epoch + 1 << "/" << config_.epochs
                      << " mean_enum_reward="
                      << stats.epoch_mean_enum_reward.back()
                      << " mean_return=" << stats.epoch_mean_return.back();
    }
    if (config_.max_train_seconds > 0.0 &&
        train_watch.ElapsedSeconds() >= config_.max_train_seconds) {
      break;
    }
  }
  stats.train_time_seconds = train_watch.ElapsedSeconds();
  return stats;
}

}  // namespace rlqvo
