#include "eval/traces.h"

#include "common/random.h"
#include "eval/gold.h"

namespace atena {

Result<std::vector<EdaNotebook>> SimulatedTraceNotebooks(
    const Dataset& dataset, const EnvConfig& env_config,
    const TraceOptions& options) {
  ATENA_ASSIGN_OR_RETURN(auto scripts, GoldOperationScripts(dataset));
  EdaEnvironment env(dataset, env_config);
  Rng rng(options.seed ^ 0xA7A7A7A7ULL);

  std::vector<EdaNotebook> notebooks;
  notebooks.reserve(static_cast<size_t>(options.num_traces));
  for (int trace = 0; trace < options.num_traces; ++trace) {
    env.Reset();
    const auto& script = scripts[rng.NextBounded(scripts.size())];
    size_t script_pos = 0;
    while (!env.done()) {
      const double roll = rng.NextDouble();
      if (roll < options.follow_gold_prob && script_pos < script.size()) {
        ATENA_RETURN_IF_ERROR(
            env.TryStepOperation(script[script_pos++]).status());
      } else if (roll < options.follow_gold_prob + options.explore_prob) {
        // An exploratory detour: a random concrete operation over the
        // current display's frequent tokens.
        auto candidates = env.EnumerateOperations(/*tokens_per_column=*/2);
        ATENA_RETURN_IF_ERROR(
            env.TryStepOperation(candidates[rng.NextBounded(candidates.size())])
                .status());
      } else if (rng.NextBool(0.6)) {
        ATENA_RETURN_IF_ERROR(
            env.TryStepOperation(EdaOperation::Back()).status());
      } else {
        ATENA_RETURN_IF_ERROR(
            env.TryStep(SampleRandomAction(env.action_space(), &rng)).status());
      }
    }
    notebooks.push_back(NotebookFromSession(env, "EDA-Traces"));
  }
  return notebooks;
}

Result<std::vector<EdaNotebook>> SimulatedTraceNotebooks(
    const Dataset& dataset, const EnvConfig& env_config) {
  return SimulatedTraceNotebooks(dataset, env_config, TraceOptions());
}

}  // namespace atena
