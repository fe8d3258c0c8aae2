#include <gtest/gtest.h>

#include <string>

#include "coherency/classifier.h"
#include "coherency/label_model.h"
#include "coherency/rules.h"
#include "common/random.h"
#include "data/registry.h"

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

/// Executes `op` on `env` and returns the context for the step (the op is
/// steps().back() per the environment contract).
RewardContext StepContext(EdaEnvironment* env, const EdaOperation& op) {
  StepOutcome outcome = env->TryStepOperation(op).value();
  RewardContext context;
  context.env = env;
  context.op = &env->steps().back().op;
  context.valid = outcome.valid;
  return context;
}

LfVote VoteOf(const std::vector<LabelingFunctionPtr>& rules,
              const std::string& name, const RewardContext& context) {
  for (const auto& rule : rules) {
    if (rule->name() == name) return rule->Vote(context);
  }
  ADD_FAILURE() << "no rule named " << name;
  return LfVote::kAbstain;
}

// ---------------------------------------------------------------- Rules

TEST(RulesTest, GroupOnIdLikeVotesIncoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int id_col = d.table->FindColumn("request_id");
  auto ctx = StepContext(&env, EdaOperation::Group(id_col, AggFunc::kCount,
                                                   -1));
  EXPECT_EQ(VoteOf(rules, "group_on_id_like", ctx), LfVote::kIncoherent);
}

TEST(RulesTest, GroupOnCategoricalAbstains) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  auto ctx = StepContext(&env, EdaOperation::Group(method, AggFunc::kCount,
                                                   -1));
  EXPECT_EQ(VoteOf(rules, "group_on_id_like", ctx), LfVote::kAbstain);
  EXPECT_EQ(VoteOf(rules, "group_on_continuous", ctx), LfVote::kAbstain);
  // A shallow grouping is positively coherent.
  EXPECT_EQ(VoteOf(rules, "group_too_deep", ctx), LfVote::kCoherent);
}

TEST(RulesTest, GroupOnContinuousNumericVotesIncoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int ts = d.table->FindColumn("timestamp");
  auto ctx = StepContext(&env, EdaOperation::Group(ts, AggFunc::kCount, -1));
  EXPECT_EQ(VoteOf(rules, "group_on_continuous", ctx), LfVote::kIncoherent);
}

TEST(RulesTest, FilterOnIdLikeVotesIncoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int id_col = d.table->FindColumn("request_id");
  auto ctx = StepContext(&env, EdaOperation::Filter(id_col, CompareOp::kEq,
                                                    Value(int64_t{5})));
  EXPECT_EQ(VoteOf(rules, "filter_on_id_like", ctx), LfVote::kIncoherent);
}

TEST(RulesTest, OpeningBackVotesIncoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  auto ctx = StepContext(&env, EdaOperation::Back());
  EXPECT_EQ(VoteOf(rules, "consecutive_back", ctx), LfVote::kIncoherent);
  EXPECT_EQ(VoteOf(rules, "invalid_noop", ctx), LfVote::kIncoherent);
}

TEST(RulesTest, RepeatedOperationVotesIncoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  EdaOperation group = EdaOperation::Group(method, AggFunc::kCount, -1);
  StepContext(&env, group);
  env.TryStepOperation(EdaOperation::Back()).value();
  auto ctx = StepContext(&env, group);
  EXPECT_EQ(VoteOf(rules, "repeated_operation", ctx), LfVote::kIncoherent);
}

TEST(RulesTest, DrillDownPatternVotesCoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int method = d.table->FindColumn("method");
  env.TryStepOperation(EdaOperation::Group(method, AggFunc::kCount, -1))
      .value();
  auto ctx = StepContext(&env, EdaOperation::Filter(
                                   method, CompareOp::kEq,
                                   Value(std::string("POST"))));
  EXPECT_EQ(VoteOf(rules, "drill_down_pattern", ctx), LfVote::kCoherent);
}

TEST(RulesTest, LongFilterChainVotesIncoherent) {
  Dataset d = SmallDataset();
  auto rules = GeneralCoherencyRules(d.table);
  EnvConfig config = SmallConfig();
  config.episode_length = 12;
  EdaEnvironment env(d, config);
  env.Reset();
  int bytes = d.table->FindColumn("response_bytes");
  RewardContext last;
  for (int i = 0; i < 4; ++i) {
    last = StepContext(&env, EdaOperation::Filter(
                                 bytes, CompareOp::kGt,
                                 Value(int64_t{400 + i * 200})));
  }
  EXPECT_EQ(VoteOf(rules, "filter_chain_too_long", last),
            LfVote::kIncoherent);
}

TEST(RulesTest, FocalAttributeRulesVoteCoherent) {
  Dataset d = SmallDataset();  // focal: source_ip, destination_ip
  auto rules = FocalAttributeRules(d);
  ASSERT_FALSE(rules.empty());
  EdaEnvironment env(d, SmallConfig());
  env.Reset();
  int src = d.table->FindColumn("source_ip");
  auto ctx = StepContext(&env, EdaOperation::Group(src, AggFunc::kCount, -1));
  EXPECT_EQ(VoteOf(rules, "focal_filter_or_group", ctx), LfVote::kCoherent);
}

TEST(RulesTest, StandardRuleSetCombinesBothKinds) {
  Dataset d = SmallDataset();
  auto general = GeneralCoherencyRules(d.table);
  auto focal = FocalAttributeRules(d);
  auto all = StandardRuleSet(d);
  EXPECT_EQ(all.size(), general.size() + focal.size());
}

// ----------------------------------------------------------- LabelModel

/// Builds a synthetic corpus: a latent truth per example; LF votes flipped
/// with per-LF error rates; some abstentions.
std::vector<std::vector<LfVote>> SyntheticCorpus(
    const std::vector<double>& accuracies, int n, Rng* rng) {
  std::vector<std::vector<LfVote>> corpus;
  for (int i = 0; i < n; ++i) {
    bool truth = rng->NextBool(0.5);
    std::vector<LfVote> votes;
    for (double acc : accuracies) {
      if (rng->NextBool(0.2)) {
        votes.push_back(LfVote::kAbstain);
        continue;
      }
      bool report = rng->NextBool(acc) ? truth : !truth;
      votes.push_back(report ? LfVote::kCoherent : LfVote::kIncoherent);
    }
    corpus.push_back(std::move(votes));
  }
  return corpus;
}

TEST(LabelModelTest, RecoversAccuracyOrdering) {
  Rng rng(4242);
  std::vector<double> true_acc = {0.95, 0.80, 0.60};
  auto corpus = SyntheticCorpus(true_acc, 3000, &rng);
  LabelModel model(3);
  int iters = model.Fit(corpus);
  EXPECT_GT(iters, 0);
  EXPECT_GT(model.accuracy(0), model.accuracy(1));
  EXPECT_GT(model.accuracy(1), model.accuracy(2));
}

TEST(LabelModelTest, PosteriorFollowsReliableVoters) {
  Rng rng(7);
  auto corpus = SyntheticCorpus({0.95, 0.95, 0.55}, 3000, &rng);
  LabelModel model(3);
  model.Fit(corpus);
  // Two reliable coherent votes vs one noisy incoherent vote.
  double p = model.PosteriorCoherent(
      {LfVote::kCoherent, LfVote::kCoherent, LfVote::kIncoherent});
  EXPECT_GT(p, 0.7);
  double q = model.PosteriorCoherent(
      {LfVote::kIncoherent, LfVote::kIncoherent, LfVote::kCoherent});
  EXPECT_LT(q, 0.3);
}

TEST(LabelModelTest, AllAbstainReturnsPrior) {
  LabelModel model(2);
  double p = model.PosteriorCoherent({LfVote::kAbstain, LfVote::kAbstain});
  EXPECT_DOUBLE_EQ(p, model.class_prior());
}

TEST(LabelModelTest, EmptyCorpusIsHandled) {
  LabelModel model(2);
  EXPECT_EQ(model.Fit({}), 0);
  EXPECT_TRUE(model.trained());
}

TEST(LabelModelTest, AccuraciesStayInConfiguredBand) {
  Rng rng(99);
  auto corpus = SyntheticCorpus({0.99, 0.50}, 2000, &rng);
  LabelModel::Options options;
  LabelModel model(2, options);
  model.Fit(corpus);
  for (int j = 0; j < 2; ++j) {
    EXPECT_GE(model.accuracy(j), options.min_accuracy);
    EXPECT_LE(model.accuracy(j), options.max_accuracy);
  }
}

// ----------------------------------------------------------- Classifier

TEST(ClassifierTest, TrainsOnRandomSessions) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  CoherencyClassifier classifier(StandardRuleSet(d));
  ASSERT_TRUE(classifier.Train(&env).ok());
  EXPECT_TRUE(classifier.trained());
  EXPECT_GT(classifier.num_rules(), 8);
}

TEST(ClassifierTest, ScoresIncoherentBelowCoherent) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  CoherencyClassifier classifier(StandardRuleSet(d));
  ASSERT_TRUE(classifier.Train(&env).ok());

  // Coherent: group by a categorical focal attribute.
  env.Reset();
  int src = d.table->FindColumn("source_ip");
  auto good = StepContext(&env, EdaOperation::Group(src, AggFunc::kCount,
                                                    -1));
  double good_score = classifier.Score(good);

  // Incoherent: BACK as the opening move (an invalid no-op too).
  env.Reset();
  auto bad = StepContext(&env, EdaOperation::Back());
  double bad_score = classifier.Score(bad);

  EXPECT_GT(good_score, bad_score);
  EXPECT_GE(good_score, 0.0);
  EXPECT_LE(good_score, 1.0);
}

TEST(ClassifierTest, RejectsEmptyRuleSet) {
  Dataset d = SmallDataset();
  EdaEnvironment env(d, SmallConfig());
  CoherencyClassifier classifier({});
  EXPECT_FALSE(classifier.Train(&env).ok());
}

}  // namespace
}  // namespace atena
