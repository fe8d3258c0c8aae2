#include "baselines/greedy.h"

#include "common/random.h"

namespace atena {

EdaNotebook RunGreedyEpisode(EdaEnvironment* env, const GreedyOptions& options,
                             std::string generator) {
  Rng rng(options.seed);
  env->Reset();
  while (!env->done()) {
    auto candidates = env->EnumerateOperations(options.tokens_per_column);
    if (static_cast<int>(candidates.size()) > options.max_candidates) {
      rng.Shuffle(candidates);
      candidates.resize(static_cast<size_t>(options.max_candidates));
    }
    EdaEnvironment::Snapshot snapshot = env->SaveSnapshot();
    double best_reward = -1e18;
    const EdaOperation* best = nullptr;
    for (const auto& candidate : candidates) {
      StepOutcome outcome = env->TryStepOperation(candidate).value();
      env->RestoreSnapshot(snapshot);
      if (outcome.valid && outcome.reward > best_reward) {
        best_reward = outcome.reward;
        best = &candidate;
      }
    }
    if (best == nullptr) {
      // Every candidate was a no-op (can only happen on degenerate data);
      // burn a step so the episode still terminates.
      env->TryStepOperation(EdaOperation::Back()).value();
      continue;
    }
    env->TryStepOperation(*best).value();
  }
  return NotebookFromSession(*env, std::move(generator));
}

}  // namespace atena
