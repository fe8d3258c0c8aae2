#include "eda/session.h"

namespace atena {

EdaNotebook NotebookFromSession(const EdaEnvironment& env,
                                std::string generator) {
  EdaNotebook notebook;
  notebook.dataset_id = env.dataset().info.id;
  notebook.generator = std::move(generator);
  notebook.table = env.dataset().table;
  const auto& steps = env.steps();
  const auto& history = env.display_history();
  for (size_t i = 0; i < steps.size(); ++i) {
    if (!steps[i].valid) continue;
    NotebookEntry entry;
    entry.op = steps[i].op;
    // history[0] is the root display; step i produced history[i + 1].
    entry.display = history[i + 1];
    entry.description = steps[i].op.Describe(env.table());
    entry.reward = steps[i].reward;
    notebook.entries.push_back(std::move(entry));
  }
  return notebook;
}

EdaNotebook ReplayOperations(EdaEnvironment* env,
                             const std::vector<EdaOperation>& ops,
                             std::string generator, double* total_reward) {
  env->Reset();
  double total = 0.0;
  for (const auto& op : ops) {
    if (env->done()) break;
    StepOutcome outcome = env->TryStepOperation(op).value();
    total += outcome.reward;
  }
  if (total_reward != nullptr) *total_reward = total;
  return NotebookFromSession(*env, std::move(generator));
}

}  // namespace atena
