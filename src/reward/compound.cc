#include "reward/compound.h"

#include <cmath>

#include "coherency/rules.h"
#include "common/logging.h"
#include "common/random.h"
#include "reward/diversity.h"
#include "reward/interestingness.h"

namespace atena {

CompoundReward::CompoundReward(std::shared_ptr<CoherencyClassifier> coherency,
                               Options options)
    : coherency_(std::move(coherency)), options_(options) {
  ATENA_CHECK(coherency_ != nullptr || !options_.enable_coherency)
      << "coherency component enabled without a classifier";
}

CompoundReward::Components CompoundReward::Measure(
    const RewardContext& context) const {
  Components c;
  if (options_.enable_interestingness) {
    c.interestingness = OperationInterestingness(context);
  }
  if (options_.enable_diversity && !degraded_) {
    c.diversity = DiversityReward(context);
  }
  if (options_.enable_coherency) {
    // Center the coherency confidence at 0 so incoherent operations are
    // penalized, not merely under-rewarded: [0,1] -> [-1,1].
    c.coherency = 2.0 * coherency_->Score(context) - 1.0;
  }
  return c;
}

double CompoundReward::Compute(const RewardContext& context) {
  last_ = Measure(context);
  return options_.weight_interestingness * last_.interestingness +
         options_.weight_diversity * last_.diversity +
         options_.weight_coherency * last_.coherency;
}

Status CompoundReward::Calibrate(EdaEnvironment* env) {
  env->SetRewardSignal(nullptr);
  Rng rng(options_.seed);
  double sum_i = 0.0, sum_d = 0.0, sum_c = 0.0;
  int64_t n = 0;
  for (int episode = 0; episode < options_.calibration_episodes; ++episode) {
    env->Reset();
    while (!env->done()) {
      EnvAction action = SampleRandomAction(env->action_space(), &rng);
      ATENA_ASSIGN_OR_RETURN(StepOutcome outcome, env->TryStep(action));
      RewardContext context;
      context.env = env;
      context.op = &env->steps().back().op;
      context.valid = outcome.valid;
      Components c = Measure(context);
      sum_i += std::fabs(c.interestingness);
      sum_d += std::fabs(c.diversity);
      sum_c += std::fabs(c.coherency);
      ++n;
    }
  }
  env->Reset();
  if (n == 0) {
    return Status::FailedPrecondition("calibration produced no steps");
  }
  // Scale each enabled component so its mean magnitude equals its target
  // share of 1 (shares renormalized over the enabled components). The mean
  // overall reward magnitude stays around 1 per step, so episode rewards
  // are comparable across datasets and the invalid-action penalty keeps
  // its bite.
  double share_total =
      (options_.enable_interestingness ? options_.share_interestingness : 0) +
      (options_.enable_diversity ? options_.share_diversity : 0) +
      (options_.enable_coherency ? options_.share_coherency : 0);
  if (share_total <= 0.0) share_total = 1.0;
  auto weight_for = [n, share_total](double sum, double share) {
    double mean = sum / static_cast<double>(n);
    double target = share / share_total;
    return mean > 1e-9 ? target / mean : 1.0;
  };
  if (options_.enable_interestingness) {
    options_.weight_interestingness =
        weight_for(sum_i, options_.share_interestingness);
  }
  if (options_.enable_diversity) {
    options_.weight_diversity = weight_for(sum_d, options_.share_diversity);
  }
  if (options_.enable_coherency) {
    options_.weight_coherency = weight_for(sum_c, options_.share_coherency);
  }
  ATENA_LOG(kInfo) << "reward calibration (" << env->dataset().info.id
                   << "): w_int=" << options_.weight_interestingness
                   << " w_div=" << options_.weight_diversity
                   << " w_coh=" << options_.weight_coherency;
  return Status::OK();
}

Result<std::shared_ptr<CompoundReward>> MakeStandardReward(
    EdaEnvironment* env, CompoundReward::Options options) {
  std::shared_ptr<CoherencyClassifier> coherency;
  if (options.enable_coherency) {
    coherency = std::make_shared<CoherencyClassifier>(
        StandardRuleSet(env->dataset()));
    ATENA_RETURN_IF_ERROR(coherency->Train(env));
  }
  auto reward = std::make_shared<CompoundReward>(std::move(coherency),
                                                 options);
  ATENA_RETURN_IF_ERROR(reward->Calibrate(env));
  return reward;
}

Result<std::shared_ptr<CompoundReward>> MakeStandardReward(
    EdaEnvironment* env) {
  return MakeStandardReward(env, CompoundReward::Options());
}

}  // namespace atena
