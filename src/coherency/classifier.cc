#include "coherency/classifier.h"

#include "common/random.h"

namespace atena {

namespace {

/// Anchors the label model on the one rule that is right by construction
/// (no-op actions are never coherent), which keeps EM from flipping the
/// latent classes (see LabelModel::Options::anchor_lf).
LabelModel::Options WithAnchor(LabelModel::Options options,
                               const std::vector<LabelingFunctionPtr>& rules) {
  if (options.anchor_lf >= 0) return options;
  for (size_t j = 0; j < rules.size(); ++j) {
    if (rules[j]->name() == "invalid_noop") {
      options.anchor_lf = static_cast<int>(j);
      break;
    }
  }
  return options;
}

}  // namespace

CoherencyClassifier::CoherencyClassifier(
    std::vector<LabelingFunctionPtr> rules, Options options)
    : rules_(std::move(rules)),
      options_(options),
      model_(static_cast<int>(rules_.size()), WithAnchor(options.model, rules_)) {}

std::vector<LfVote> CoherencyClassifier::CollectVotes(
    const RewardContext& context) const {
  std::vector<LfVote> votes;
  votes.reserve(rules_.size());
  for (const auto& rule : rules_) {
    votes.push_back(rule->Vote(context));
  }
  return votes;
}

double CoherencyClassifier::Score(const RewardContext& context) const {
  std::vector<LfVote> votes = CollectVotes(context);
  if (model_.trained()) {
    return model_.PosteriorCoherent(votes);
  }
  int coherent = 0, incoherent = 0;
  for (LfVote v : votes) {
    if (v == LfVote::kCoherent) ++coherent;
    if (v == LfVote::kIncoherent) ++incoherent;
  }
  if (coherent + incoherent == 0) return 0.5;
  return static_cast<double>(coherent) /
         static_cast<double>(coherent + incoherent);
}

Status CoherencyClassifier::Train(EdaEnvironment* env) {
  if (rules_.empty()) {
    return Status::FailedPrecondition("coherency classifier has no rules");
  }
  // Warmup must not trigger the compound reward (which may itself call this
  // classifier); run reward-free random sessions.
  env->SetRewardSignal(nullptr);
  Rng rng(options_.seed);
  std::vector<std::vector<LfVote>> corpus;
  corpus.reserve(static_cast<size_t>(options_.warmup_episodes) *
                 static_cast<size_t>(env->config().episode_length));
  for (int episode = 0; episode < options_.warmup_episodes; ++episode) {
    env->Reset();
    while (!env->done()) {
      EnvAction action = SampleRandomAction(env->action_space(), &rng);
      ATENA_ASSIGN_OR_RETURN(StepOutcome outcome, env->TryStep(action));
      RewardContext context;
      context.env = env;
      context.op = &env->steps().back().op;
      context.valid = outcome.valid;
      corpus.push_back(CollectVotes(context));
    }
  }
  model_.Fit(corpus);
  env->Reset();
  return Status::OK();
}

}  // namespace atena
