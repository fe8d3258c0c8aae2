#include "rl/rollout.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

namespace atena {
namespace {

PpoFaultHook* FaultHook() {
  static PpoFaultHook hook;
  return &hook;
}

}  // namespace

void SetPpoFaultInjectionHookForTesting(PpoFaultHook hook) {
  *FaultHook() = std::move(hook);
}

void RolloutBuffer::Clear() {
  for (auto& stream : streams_) stream.clear();
}

std::vector<Sample> RolloutBuffer::ComputeGae(
    const std::vector<double>& bootstrap_values, double gamma,
    double lambda) const {
  std::vector<Sample> samples;
  for (size_t e = 0; e < streams_.size(); ++e) {
    const auto& stream = streams_[e];
    if (stream.empty()) continue;

    const bool last_done = stream.back().episode_end;
    const double last_value = last_done ? 0.0 : bootstrap_values[e];

    double gae = 0.0;
    double next_value = last_value;
    bool next_terminal = last_done;
    std::vector<double> advantages(stream.size());
    for (size_t i = stream.size(); i-- > 0;) {
      const Transition& t = stream[i];
      const double bootstrap = next_terminal ? 0.0 : next_value;
      const double delta = t.reward + gamma * bootstrap - t.value;
      gae = delta + (next_terminal ? 0.0 : gamma * lambda * gae);
      advantages[i] = gae;
      next_value = t.value;
      next_terminal = t.episode_end;
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      samples.push_back(
          Sample{&stream[i], advantages[i], advantages[i] + stream[i].value});
    }
  }
  return samples;
}

PpoUpdater::PpoUpdater(Policy* policy, Options options)
    : policy_(policy),
      options_(options),
      optimizer_(Adam::Options{.learning_rate = options.learning_rate,
                               .beta1 = 0.9,
                               .beta2 = 0.999,
                               .epsilon = 1e-8}) {}

void PpoUpdater::SetLearningRateScale(double scale) {
  optimizer_.set_learning_rate(options_.learning_rate * scale);
}

UpdateStats PpoUpdater::Update(std::vector<Sample> samples, Rng* rng) {
  UpdateStats stats;
  const GuardFault fault =
      *FaultHook() ? (*FaultHook())(update_calls_) : GuardFault::kNone;
  ++update_calls_;

  const size_t n = samples.size();
  if (n == 0) return stats;

  // Normalize advantages across the merged batch (standard PPO practice;
  // keeps gradient scale stable across the compound reward's calibration
  // regimes).
  double mean = 0.0;
  for (const auto& s : samples) mean += s.advantage;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const auto& s : samples) {
    var += (s.advantage - mean) * (s.advantage - mean);
  }
  const double stddev = std::sqrt(var / static_cast<double>(n)) + 1e-8;
  for (auto& s : samples) s.advantage = (s.advantage - mean) / stddev;

  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const int obs_dim =
      static_cast<int>(samples[0].transition->observation.size());

  Matrix observations;
  double loss_policy = 0.0;
  double loss_value = 0.0;
  double entropy_sum = 0.0;
  for (int epoch = 0; epoch < options_.epochs_per_update; ++epoch) {
    rng->Shuffle(order);
    for (size_t start = 0; start < n;
         start += static_cast<size_t>(options_.minibatch_size)) {
      const size_t end =
          std::min(n, start + static_cast<size_t>(options_.minibatch_size));
      const int batch = static_cast<int>(end - start);

      observations.Resize(batch, obs_dim);
      std::vector<ActionRecord> actions(static_cast<size_t>(batch));
      for (int b = 0; b < batch; ++b) {
        const Sample& s = samples[order[start + b]];
        std::copy(s.transition->observation.begin(),
                  s.transition->observation.end(), observations.RowPtr(b));
        actions[static_cast<size_t>(b)] = s.transition->action;
      }
      BatchEvaluation eval = policy_->ForwardBatch(observations, actions);

      std::vector<SampleGrad> grads(static_cast<size_t>(batch));
      const double inv_batch = 1.0 / static_cast<double>(batch);
      for (int b = 0; b < batch; ++b) {
        const Sample& s = samples[order[start + b]];
        const double ratio =
            std::exp(eval.log_probs[b] - s.transition->log_prob);
        const double clipped = std::clamp(
            ratio, 1.0 - options_.clip_epsilon, 1.0 + options_.clip_epsilon);
        // Surrogate L = min(r·A, clip(r)·A); we minimize -L.
        // d(-L)/dlogp = -r·A when the unclipped branch is active, else 0.
        const bool unclipped_active =
            ratio * s.advantage <= clipped * s.advantage + 1e-12;
        SampleGrad& g = grads[static_cast<size_t>(b)];
        g.d_log_prob =
            unclipped_active ? -ratio * s.advantage * inv_batch : 0.0;
        g.d_entropy = -options_.entropy_coef * inv_batch;
        g.d_value = options_.value_coef * 2.0 *
                    (eval.values[b] - s.target) * inv_batch;
        // Observation only: the losses the gradients above descend.
        loss_policy -= std::min(ratio * s.advantage, clipped * s.advantage);
        loss_value += (eval.values[b] - s.target) * (eval.values[b] - s.target);
        entropy_sum += eval.entropies[b];
      }
      ZeroGradients(policy_->Parameters());
      policy_->BackwardBatch(grads);
      if (fault == GuardFault::kInfGradient && stats.minibatches == 0 &&
          !policy_->Parameters().empty()) {
        policy_->Parameters()[0]->grad.data()[0] =
            std::numeric_limits<double>::infinity();
      }
      GradClipResult clip =
          ClipGradientsByNorm(policy_->Parameters(), options_.max_grad_norm);
      if (!std::isfinite(clip.pre_clip_norm)) {
        stats.grad_norm_max = clip.pre_clip_norm;
      } else if (std::isfinite(stats.grad_norm_max)) {
        stats.grad_norm_max = std::max(stats.grad_norm_max, clip.pre_clip_norm);
      }
      stats.nonfinite_grad_values += clip.nonfinite_count;
      optimizer_.Step(policy_->Parameters());
      ++stats.minibatches;
    }
  }
  const double inv_seen =
      1.0 / (static_cast<double>(options_.epochs_per_update) *
             static_cast<double>(n));
  stats.policy_loss = loss_policy * inv_seen;
  stats.value_loss = loss_value * inv_seen;
  stats.entropy = entropy_sum * inv_seen;
  if (fault == GuardFault::kNanLoss) {
    stats.policy_loss = std::numeric_limits<double>::quiet_NaN();
  } else if (fault == GuardFault::kEntropyCollapse) {
    stats.entropy = 0.0;
  }
  return stats;
}

EdaNotebook RolloutNotebook(EdaEnvironment* env, Policy* policy, Rng* rng,
                            std::string generator, double* total_reward,
                            bool greedy) {
  std::vector<double> observation = env->Reset();
  double total = 0.0;
  while (!env->done()) {
    PolicyStep step = greedy ? policy->ActGreedy(observation)
                             : policy->Act(observation, rng);
    StepOutcome outcome = TryApplyAction(env, step.action).value();
    total += outcome.reward;
    observation = std::move(outcome.observation);
  }
  if (total_reward != nullptr) *total_reward = total;
  return NotebookFromSession(*env, std::move(generator));
}

}  // namespace atena
