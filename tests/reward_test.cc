#include <gtest/gtest.h>

#include "coherency/rules.h"
#include "data/registry.h"
#include "reward/compound.h"
#include "reward/diversity.h"
#include "reward/interestingness.h"

namespace atena {
namespace {

Dataset SmallDataset() {
  auto d = MakeDataset("cyber2");
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig SmallConfig() {
  EnvConfig config;
  config.episode_length = 8;
  config.num_term_bins = 4;
  return config;
}

RewardContext StepContext(EdaEnvironment* env, const EdaOperation& op) {
  StepOutcome outcome = env->TryStepOperation(op).value();
  RewardContext context;
  context.env = env;
  context.op = &env->steps().back().op;
  context.valid = outcome.valid;
  return context;
}

// ----------------------------------------------- group interestingness

TEST(GroupInterestingnessTest, DegenerateGroupingsScoreLow) {
  // One group over everything: nothing was separated.
  EXPECT_LT(GroupInterestingness(1, 1, 1000), 0.15);
  // Singleton groups: nothing was summarized.
  EXPECT_LT(GroupInterestingness(1000, 1, 1000), 0.15);
  // Zero cases.
  EXPECT_DOUBLE_EQ(GroupInterestingness(0, 1, 100), 0.0);
  EXPECT_DOUBLE_EQ(GroupInterestingness(5, 1, 0), 0.0);
}

TEST(GroupInterestingnessTest, CompactCoveringGroupingScoresHigh) {
  EXPECT_GT(GroupInterestingness(8, 1, 1000), 0.7);
  EXPECT_GT(GroupInterestingness(5, 2, 500), 0.5);
}

TEST(GroupInterestingnessTest, DeepGroupingsArePenalized) {
  double shallow = GroupInterestingness(10, 1, 1000);
  double deep = GroupInterestingness(10, 5, 1000);
  EXPECT_GT(shallow, deep * 2);
}

TEST(GroupInterestingnessTest, BoundedToUnitInterval) {
  for (int64_t g : {1, 2, 10, 100, 10000}) {
    for (int a : {1, 2, 4, 6}) {
      double v = GroupInterestingness(g, a, 20000);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

// ---------------------------------------------- filter interestingness

TEST(FilterInterestingnessTest, SelectiveFilterBeatsNoOp) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int src = d.table->FindColumn("source_ip");
  // Selecting the attacker flips the distribution of method/uri/user_agent.
  auto strong = StepContext(&env, EdaOperation::Filter(
                                      src, CompareOp::kEq,
                                      Value(std::string("203.0.113.99"))));
  double strong_score = OperationInterestingness(strong);
  EXPECT_GT(strong_score, 0.5);

  env.Reset();
  int status = d.table->FindColumn("status");
  // status != 404 keeps ~94% of rows: barely any deviation.
  auto weak = StepContext(&env, EdaOperation::Filter(
                                    status, CompareOp::kNeq,
                                    Value(int64_t{404})));
  double weak_score = OperationInterestingness(weak);
  EXPECT_GT(strong_score, weak_score);
}

TEST(FilterInterestingnessTest, BackAndInvalidScoreZero) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  auto back = StepContext(&env, EdaOperation::Back());
  EXPECT_DOUBLE_EQ(OperationInterestingness(back), 0.0);
}

TEST(FilterInterestingnessTest, GroupedDisplayUsesAggregatedAttribute) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  int bytes = d.table->FindColumn("response_bytes");
  env.TryStepOperation(EdaOperation::Group(method, AggFunc::kAvg, bytes))
      .value();
  auto ctx = StepContext(&env, EdaOperation::Filter(
                                   method, CompareOp::kEq,
                                   Value(std::string("POST"))));
  double score = OperationInterestingness(ctx);
  EXPECT_GE(score, 0.0);
  EXPECT_LE(score, 1.0);
}

TEST(GroupOperationTest, GroupScoreMatchesDirectComputation) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  auto ctx = StepContext(&env, EdaOperation::Group(method, AggFunc::kCount,
                                                   -1));
  const Display& display = env.current_display();
  double expected = GroupInterestingness(
      static_cast<int64_t>(display.grouped->groups.size()),
      1, static_cast<int64_t>(display.rows.size()));
  EXPECT_DOUBLE_EQ(OperationInterestingness(ctx), expected);
}

// ------------------------------------------------------------ diversity

TEST(DiversityTest, FirstDisplayScoresZero) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  RewardContext ctx;
  ctx.env = &env;
  EXPECT_DOUBLE_EQ(DiversityReward(ctx), 0.0);
}

TEST(DiversityTest, DuplicateDisplayScoresZero) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  StepContext(&env, EdaOperation::Group(method, AggFunc::kCount, -1));
  // BACK returns to the root display, which is already in the history.
  auto ctx = StepContext(&env, EdaOperation::Back());
  EXPECT_DOUBLE_EQ(DiversityReward(ctx), 0.0);
}

TEST(DiversityTest, NovelDisplayScoresPositive) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int src = d.table->FindColumn("source_ip");
  auto ctx = StepContext(&env, EdaOperation::Filter(
                                   src, CompareOp::kEq,
                                   Value(std::string("203.0.113.99"))));
  EXPECT_GT(DiversityReward(ctx), 0.0);
  EXPECT_LE(DiversityReward(ctx), 1.0);
}

// ------------------------------------------------------------- compound

TEST(CompoundRewardTest, RequiresClassifierWhenCoherencyEnabled) {
  CompoundReward::Options options;
  options.enable_coherency = false;
  CompoundReward reward(nullptr, options);  // must not crash
  SUCCEED();
}

TEST(CompoundRewardTest, ComponentsAreSwitchable) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  CompoundReward::Options options;
  options.enable_diversity = false;
  options.enable_coherency = false;
  CompoundReward reward(nullptr, options);
  env.SetRewardSignal(&reward);
  env.Reset();
  int method = d.table->FindColumn("method");
  env.TryStepOperation(EdaOperation::Group(method, AggFunc::kCount, -1))
      .value();
  EXPECT_DOUBLE_EQ(reward.last_components().diversity, 0.0);
  EXPECT_DOUBLE_EQ(reward.last_components().coherency, 0.0);
  EXPECT_GT(reward.last_components().interestingness, 0.0);
}

TEST(CompoundRewardTest, CalibrationBalancesComponentShares) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());

  // Replay random sessions and accumulate weighted component magnitudes.
  Rng rng(31);
  double sum_i = 0, sum_d = 0, sum_c = 0;
  for (int episode = 0; episode < 10; ++episode) {
    env.Reset();
    while (!env.done()) {
      StepOutcome outcome =
          env.TryStep(SampleRandomAction(env.action_space(), &rng)).value();
      if (!outcome.valid) continue;
      const auto& c = reward.value()->last_components();
      const auto& o = reward.value()->options();
      sum_i += std::abs(o.weight_interestingness * c.interestingness);
      sum_d += std::abs(o.weight_diversity * c.diversity);
      sum_c += std::abs(o.weight_coherency * c.coherency);
    }
  }
  const double total = sum_i + sum_d + sum_c;
  ASSERT_GT(total, 0.0);
  // Paper §6.1: no component below 10% of the total reward mass.
  EXPECT_GT(sum_i / total, 0.10);
  EXPECT_GT(sum_d / total, 0.10);
  EXPECT_GT(sum_c / total, 0.10);
}

TEST(CompoundRewardTest, IncoherentOperationsArePenalized) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());
  env.Reset();
  int id_col = d.table->FindColumn("request_id");
  // Filtering on a row id: id-like + (usually) tiny effect.
  StepOutcome outcome = env.TryStepOperation(EdaOperation::Filter(
      id_col, CompareOp::kEq, Value(int64_t{17}))).value();
  ASSERT_TRUE(outcome.valid);
  EXPECT_LT(reward.value()->last_components().coherency, 0.0);
}

TEST(CompoundRewardTest, MakeStandardRewardLeavesEnvReset) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  EXPECT_EQ(env.step_count(), 0);
  EXPECT_EQ(env.display_history().size(), 1u);
}

}  // namespace
}  // namespace atena
