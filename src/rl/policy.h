#ifndef ATENA_RL_POLICY_H_
#define ATENA_RL_POLICY_H_

#include <vector>

#include "common/random.h"
#include "eda/environment.h"
#include "nn/layers.h"

namespace atena {

/// An action as recorded by a policy. Structured policies (ATENA's twofold
/// architecture, OTS-DRL-B) emit an EnvAction whose filter term the
/// environment resolves from a frequency bin; flat token-level policies
/// (OTS-DRL) emit a fully concrete operation. `flat_index` identifies the
/// action for flat policies' re-evaluation during PPO epochs.
struct ActionRecord {
  EnvAction structured;
  EdaOperation concrete;
  bool is_concrete = false;
  int flat_index = -1;
};

/// What a policy produces for one observation during rollout.
struct PolicyStep {
  ActionRecord action;
  double log_prob = 0.0;
  double entropy = 0.0;
  double value = 0.0;
};

/// Per-sample upstream gradients handed back to the policy during a PPO
/// update: dL/d(log π(a|s)), dL/dH(s), dL/dV(s).
struct SampleGrad {
  double d_log_prob = 0.0;
  double d_entropy = 0.0;
  double d_value = 0.0;
};

/// Result of re-evaluating a batch of stored actions under the current
/// network parameters (needed by PPO's importance ratios).
struct BatchEvaluation {
  std::vector<double> log_probs;
  std::vector<double> entropies;
  std::vector<double> values;
};

/// Abstract actor-critic policy over the EDA action space, with manual
/// backprop through whatever head architecture the concrete policy uses
/// (twofold multi-softmax for ATENA, single flat softmax for the
/// off-the-shelf baselines).
class Policy {
 public:
  virtual ~Policy() = default;

  /// Samples an action (Boltzmann exploration: directly from the softmax
  /// distribution, paper §5).
  virtual PolicyStep Act(const std::vector<double>& observation, Rng* rng) = 0;

  /// Deterministic argmax action, used when extracting the final notebook.
  virtual PolicyStep ActGreedy(const std::vector<double>& observation) = 0;

  /// Acts on a batch of observations (one per row) at once. Row i consumes
  /// `rng` exactly as a per-sample Act on row i would, in row order, so a
  /// batched call is bit-identical to the per-sample loop over the same Rng
  /// stream; a null `rng` selects the greedy action per row. Network-backed
  /// policies override this with a single batched forward pass — the hot
  /// path of multi-actor training; the base implementation just loops.
  virtual std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                           Rng* rng);

  /// Acts on a batch of observations where every row owns its own Rng
  /// stream: row i consumes `rngs[i]` exactly as a per-sample Act on row i
  /// would (a null entry selects the greedy action for that row). Because
  /// no row ever touches another row's stream, a row's action, log_prob
  /// and value are independent of the batch composition — the same
  /// observation + Rng state yields bit-identical results whether the row
  /// is batched with thousands of others or evaluated alone. Entropy, a
  /// training-only exploration diagnostic nothing on the serving path
  /// consumes, is NOT computed by this overload and reported as 0. This is
  /// the primitive behind cross-session batched serving (src/serve/): one
  /// forward pass amortized over many concurrent sessions, each with a
  /// private stream. `rngs.size()` must equal `observations.rows()`.
  /// Network-backed policies override this with a single batched forward
  /// pass; the base implementation loops per sample.
  virtual std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                           const std::vector<Rng*>& rngs);

  /// Forward pass over a batch; caches activations for BackwardBatch.
  /// `actions[i]` must have been produced by this policy type.
  virtual BatchEvaluation ForwardBatch(
      const Matrix& observations,
      const std::vector<ActionRecord>& actions) = 0;

  /// Backpropagates the per-sample upstream gradients through the cached
  /// forward pass, accumulating parameter gradients.
  virtual void BackwardBatch(const std::vector<SampleGrad>& grads) = 0;

  virtual std::vector<Parameter*> Parameters() = 0;

  /// Declares the parameters frozen and precomputes inference-only caches
  /// (see Layer::PrepareForServing). Serving snapshots call this once after
  /// loading weights; attempting to train a frozen policy is a fatal error.
  virtual void PrepareForServing() {}

  /// Number of scalar parameters (for reporting network sizes, paper §5's
  /// pre-output vs flat output comparison).
  int64_t NumParameters();
};

/// Applies a recorded action to the environment through its
/// TryStep/TryStepOperation, so an out-of-contract step surfaces as a
/// Status (the serving runtime quarantines one session on it) and leaves
/// the environment untouched. The training loop takes `.value()`, which
/// aborts on that programmer error.
Result<StepOutcome> TryApplyAction(EdaEnvironment* env,
                                   const ActionRecord& action);

}  // namespace atena

#endif  // ATENA_RL_POLICY_H_
