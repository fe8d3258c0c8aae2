#include "rl/policy.h"

#include "common/logging.h"

namespace atena {

std::vector<PolicyStep> Policy::ActBatch(const Matrix& observations,
                                         Rng* rng) {
  std::vector<PolicyStep> steps;
  steps.reserve(static_cast<size_t>(observations.rows()));
  std::vector<double> row(static_cast<size_t>(observations.cols()));
  for (int r = 0; r < observations.rows(); ++r) {
    const double* src = observations.RowPtr(r);
    row.assign(src, src + observations.cols());
    steps.push_back(rng != nullptr ? Act(row, rng) : ActGreedy(row));
  }
  return steps;
}

std::vector<PolicyStep> Policy::ActBatch(const Matrix& observations,
                                         const std::vector<Rng*>& rngs) {
  ATENA_CHECK(static_cast<int>(rngs.size()) == observations.rows())
      << "ActBatch needs one Rng slot per observation row ("
      << rngs.size() << " vs " << observations.rows() << ")";
  std::vector<PolicyStep> steps;
  steps.reserve(static_cast<size_t>(observations.rows()));
  std::vector<double> row(static_cast<size_t>(observations.cols()));
  for (int r = 0; r < observations.rows(); ++r) {
    const double* src = observations.RowPtr(r);
    row.assign(src, src + observations.cols());
    Rng* rng = rngs[static_cast<size_t>(r)];
    steps.push_back(rng != nullptr ? Act(row, rng) : ActGreedy(row));
    // Per the overload's contract, entropy is not part of the result.
    steps.back().entropy = 0.0;
  }
  return steps;
}

int64_t Policy::NumParameters() {
  int64_t total = 0;
  for (Parameter* p : Parameters()) {
    total += static_cast<int64_t>(p->value.size());
  }
  return total;
}

Result<StepOutcome> TryApplyAction(EdaEnvironment* env,
                                   const ActionRecord& action) {
  if (action.is_concrete) {
    return env->TryStepOperation(action.concrete);
  }
  return env->TryStep(action.structured);
}

}  // namespace atena
