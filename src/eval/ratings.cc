#include "eval/ratings.h"

#include "coherency/classifier.h"
#include "coherency/rules.h"
#include "common/math_utils.h"
#include "eval/metrics.h"
#include "reward/diversity.h"
#include "reward/interestingness.h"

namespace atena {

Result<NotebookQuality> AssessNotebook(const Dataset& dataset,
                                       const EdaNotebook& notebook,
                                       const std::vector<EdaNotebook>& gold,
                                       const EnvConfig& env_config) {
  NotebookQuality quality;

  // Replay the notebook's operations and accumulate component scores.
  EdaEnvironment env(dataset, env_config);
  CoherencyClassifier coherency(StandardRuleSet(dataset));
  ATENA_RETURN_IF_ERROR(coherency.Train(&env));
  env.Reset();
  int steps = 0;
  for (const auto& entry : notebook.entries) {
    if (env.done()) break;
    ATENA_ASSIGN_OR_RETURN(StepOutcome outcome, env.TryStepOperation(entry.op));
    RewardContext context;
    context.env = &env;
    context.op = &env.steps().back().op;
    context.valid = outcome.valid;
    quality.mean_interestingness += OperationInterestingness(context);
    quality.mean_diversity += DiversityReward(context);
    quality.mean_coherency += coherency.Score(context);
    ++steps;
  }
  if (steps > 0) {
    quality.mean_interestingness /= steps;
    quality.mean_diversity /= steps;
    quality.mean_coherency /= steps;
  }

  // Distance to the gold set, excluding the notebook itself when it is one
  // of the references.
  const auto candidate = NotebookSignatures(notebook);
  auto same_views = [&candidate](const std::vector<ViewSignature>& other) {
    if (candidate.size() != other.size()) return false;
    for (size_t i = 0; i < candidate.size(); ++i) {
      if (!(candidate[i] == other[i])) return false;
    }
    return true;
  };
  std::vector<std::vector<ViewSignature>> references;
  for (const auto& g : gold) {
    auto views = NotebookSignatures(g);
    if (same_views(views)) continue;
    references.push_back(std::move(views));
  }
  if (!references.empty()) {
    quality.eda_sim_to_gold = MaxEdaSim(candidate, references);
    quality.precision_to_gold = ViewPrecision(candidate, references);
  }
  return quality;
}

UserRatings ProxyRatings(const NotebookQuality& q) {
  auto to_scale = [](double score) { return 1.0 + 6.0 * Clamp(score, 0.0, 1.0); };
  UserRatings ratings;
  ratings.informativity =
      to_scale(0.45 * q.eda_sim_to_gold + 0.25 * q.precision_to_gold +
               0.30 * q.mean_interestingness);
  ratings.comprehensibility =
      to_scale(0.70 * q.mean_coherency + 0.30 * q.eda_sim_to_gold);
  ratings.expertise =
      to_scale(0.40 * q.eda_sim_to_gold + 0.35 * q.mean_coherency +
               0.25 * q.mean_interestingness);
  ratings.human_equivalence =
      to_scale(0.60 * q.eda_sim_to_gold + 0.40 * q.mean_coherency);
  return ratings;
}

}  // namespace atena
