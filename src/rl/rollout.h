#ifndef ATENA_RL_ROLLOUT_H_
#define ATENA_RL_ROLLOUT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "eda/session.h"
#include "nn/optimizer.h"
#include "rl/guardrails.h"
#include "rl/policy.h"

namespace atena {

/// One recorded environment step — the unit of experience shared by the
/// single-env and multi-actor trainers.
struct Transition {
  std::vector<double> observation;
  ActionRecord action;
  double log_prob = 0.0;
  double value = 0.0;
  double reward = 0.0;
  bool episode_end = false;
};

/// A transition with its GAE(λ) advantage and discounted value target,
/// ready for the PPO epochs. `transition` borrows from the RolloutBuffer
/// that produced it and stays valid until the buffer's next Clear().
struct Sample {
  const Transition* transition = nullptr;
  double advantage = 0.0;
  double target = 0.0;
};

/// Experience storage for a fixed set of actor streams. Stream `e` holds a
/// contiguous slice of actor `e`'s trajectory (possibly spanning several
/// episode boundaries); the single-env trainer is simply the 1-stream case.
class RolloutBuffer {
 public:
  explicit RolloutBuffer(size_t num_streams) : streams_(num_streams) {}

  size_t num_streams() const { return streams_.size(); }
  const std::vector<Transition>& stream(size_t e) const { return streams_[e]; }

  /// Drops all transitions but keeps the stream count (and capacity).
  void Clear();

  void Add(size_t stream, Transition transition) {
    streams_[stream].push_back(std::move(transition));
  }

  /// True when stream `e` ends mid-episode, i.e. its GAE tail must be
  /// bootstrapped from the critic's value of the actor's next observation.
  bool StreamNeedsBootstrap(size_t e) const {
    return !streams_[e].empty() && !streams_[e].back().episode_end;
  }

  /// Runs GAE(λ) independently over each stream and returns the merged
  /// samples in stream order (empty streams are skipped).
  /// `bootstrap_values[e]` is the critic value used for stream `e`'s tail;
  /// it is ignored unless StreamNeedsBootstrap(e).
  std::vector<Sample> ComputeGae(const std::vector<double>& bootstrap_values,
                                 double gamma, double lambda) const;

 private:
  std::vector<std::vector<Transition>> streams_;
};

/// The PPO learning core of ParallelPpoTrainer: normalizes advantages
/// across the merged batch, then runs several shuffled clipped-surrogate
/// epochs, backpropagating through the policy and stepping the owned Adam
/// optimizer.
class PpoUpdater {
 public:
  struct Options {
    int minibatch_size = 64;
    int epochs_per_update = 4;
    double clip_epsilon = 0.2;
    double entropy_coef = 0.02;
    double value_coef = 0.5;
    double learning_rate = 3e-3;
    double max_grad_norm = 5.0;
  };

  PpoUpdater(Policy* policy, Options options);

  /// Runs one full PPO update over `samples`. `rng` drives the per-epoch
  /// shuffles (and nothing else). No-op on an empty batch. The returned
  /// statistics are pure observations of the update (rl/guardrails.h) —
  /// computing them changes no weight, gradient or Rng byte.
  UpdateStats Update(std::vector<Sample> samples, Rng* rng);

  /// Scales the effective Adam learning rate to `scale` times the
  /// configured Options::learning_rate. Used by training guardrails to
  /// back off after a rollback; idempotent (absolute, not cumulative).
  void SetLearningRateScale(double scale);

  /// The owned Adam optimizer — exposed so training checkpoints
  /// (rl/checkpoint.h) can capture and restore its moments/step, which a
  /// bare weight file silently loses.
  Adam* optimizer() { return &optimizer_; }
  const Adam* optimizer() const { return &optimizer_; }

 private:
  Policy* policy_;
  Options options_;
  Adam optimizer_;
  /// Raw Update-call counter fed to the fault-injection hook. Counts
  /// calls, not successful updates, so a retried update is a fresh index
  /// and a persistent fault must keep injecting to keep failing.
  int64_t update_calls_ = 0;
};

/// Fault-injection hook for guardrail tests. When set, it is consulted at
/// the start of every PpoUpdater::Update with the raw call index (0-based,
/// monotonic per updater) and the returned fault is injected into that
/// update: kNanLoss poisons the reported policy loss, kInfGradient writes
/// inf into one gradient slot before clipping (zeroing the whole step),
/// kEntropyCollapse forces the reported mean entropy to zero. Pass an
/// empty function to clear. Not thread-safe; tests only.
using PpoFaultHook = std::function<GuardFault(int64_t update_call)>;
void SetPpoFaultInjectionHookForTesting(PpoFaultHook hook);

/// Runs one full episode of `policy` on `env` (Boltzmann sampling, or
/// per-segment argmax when `greedy`), and returns the resulting notebook.
/// Used for evaluating trained policies without a trainer — e.g. after
/// loading transferred weights. The episode's cumulative reward is written
/// to `total_reward` when non-null.
EdaNotebook RolloutNotebook(EdaEnvironment* env, Policy* policy, Rng* rng,
                            std::string generator,
                            double* total_reward = nullptr,
                            bool greedy = false);

}  // namespace atena

#endif  // ATENA_RL_ROLLOUT_H_
