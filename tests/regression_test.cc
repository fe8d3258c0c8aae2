// Deeper cross-module regression tests: behaviours that earlier iterations
// of this codebase got wrong, pinned so they stay fixed.
#include <gtest/gtest.h>

#include "coherency/classifier.h"
#include "coherency/rules.h"
#include "data/registry.h"
#include "dataframe/csv.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "eval/view_signature.h"
#include "notebook/render.h"
#include "reward/compound.h"
#include "reward/interestingness.h"

namespace atena {
namespace {

EnvConfig Config() {
  EnvConfig config;
  config.episode_length = 12;
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

// Regression: range cuts on quasi-key numeric columns used to earn top
// interestingness because the KL ran over the filtered column itself and
// over exact continuous values. Junk must now earn clearly less than an
// expert drill-down.
TEST(RewardRegressionTest, RangeCutOnQuasiKeyEarnsLessThanExpertFilter) {
  auto dataset = MakeDataset("flights4");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment env(dataset.value(), Config());
  const Table& t = *dataset.value().table;

  env.Reset();
  auto expert = StepContext(
      &env, EdaOperation::Filter(t.FindColumn("month"), CompareOp::kEq,
                                 Value(std::string("June"))));
  double expert_score = OperationInterestingness(expert);

  env.Reset();
  auto junk = StepContext(
      &env, EdaOperation::Filter(t.FindColumn("flight_number"),
                                 CompareOp::kGe, Value(int64_t{170})));
  double junk_score = OperationInterestingness(junk);

  EXPECT_GT(expert_score, 2.0 * junk_score);
}

// Regression: on a COUNT-grouped display, a proportional shrink of every
// group used to register as a maximal distribution shift (exact group
// sizes were compared).
TEST(RewardRegressionTest, ProportionalShrinkIsNotMaximallyInteresting) {
  auto dataset = MakeDataset("flights4");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment env(dataset.value(), Config());
  const Table& t = *dataset.value().table;
  env.Reset();
  env.TryStepOperation(
         EdaOperation::Group(t.FindColumn("airline"), AggFunc::kCount, -1))
      .value();
  // flight_number is independent of airline: cutting it shrinks every
  // airline's count roughly proportionally.
  auto ctx = StepContext(
      &env, EdaOperation::Filter(t.FindColumn("flight_number"),
                                 CompareOp::kGe, Value(int64_t{1500})));
  EXPECT_LT(OperationInterestingness(ctx), 0.6);
}

// Regression: the EM label model used to flip classes on skewed warmup
// corpora, scoring id filters as ~1.0 coherent. With the anchored model an
// id filter must land clearly below a focal categorical group-by.
TEST(CoherencyRegressionTest, IdFilterScoresBelowFocalGroup) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment env(dataset.value(), Config());
  CoherencyClassifier classifier(StandardRuleSet(dataset.value()));
  ASSERT_TRUE(classifier.Train(&env).ok());
  const Table& t = *dataset.value().table;

  env.Reset();
  auto good = StepContext(&env, EdaOperation::Group(
                                    t.FindColumn("source_ip"),
                                    AggFunc::kCount, -1));
  double good_score = classifier.Score(good);

  env.Reset();
  auto bad = StepContext(
      &env, EdaOperation::Filter(t.FindColumn("request_id"), CompareOp::kEq,
                                 Value(int64_t{17})));
  double bad_score = classifier.Score(bad);

  EXPECT_GT(good_score, 0.6);
  EXPECT_LT(bad_score, 0.4);
}

// Regression: the reward signal's context used to be built before the step
// was pushed, so rules disagreed about whether ctx.op was in steps(); and
// the compound weights used to blow per-step rewards up to 10+. Pin the
// overall scale: an expert operation earns a bounded positive reward.
TEST(RewardRegressionTest, PerStepRewardScaleIsBounded) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaEnvironment env(dataset.value(), Config());
  auto reward = MakeStandardReward(&env);
  ASSERT_TRUE(reward.ok());
  env.SetRewardSignal(reward.value().get());
  env.Reset();
  const Table& t = *dataset.value().table;
  StepOutcome outcome = env.TryStepOperation(EdaOperation::Group(
      t.FindColumn("method"), AggFunc::kCount, -1)).value();
  EXPECT_GT(outcome.reward, 0.5);
  EXPECT_LT(outcome.reward, 8.0);
}

// Regression: ViewSimilarity must give partial credit for a shared column
// with a different operator (exact-string Jaccard gave 0), and must remain
// symmetric (a one-sided greedy matching was not).
TEST(MetricsRegressionTest, FilterPartialCreditAndSymmetry) {
  ViewSignature a, b;
  a.filters = {"month == June"};
  b.filters = {"month == July"};
  double sim = ViewSimilarity(a, b);
  EXPECT_GT(sim, 0.4 * 0.5);  // at least the shared-column credit
  EXPECT_LT(sim, 1.0);
  EXPECT_DOUBLE_EQ(sim, ViewSimilarity(b, a));

  ViewSignature c;
  c.filters = {"airline == AA"};
  EXPECT_LT(ViewSimilarity(a, c), sim);
}

// Regression: CSV nulls round-trip through empty fields even when a row
// ends with a null (trailing delimiter).
TEST(CsvRegressionTest, TrailingNullRoundTrip) {
  TableBuilder b("t");
  b.AddColumn("a", DataType::kInt64);
  b.AddColumn("b", DataType::kString);
  ASSERT_TRUE(b.AppendRow({Value(int64_t{1}), Value::Null()}).ok());
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  auto back = ReadCsvString(WriteCsvString(*t.value()), "t");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value()->column(1)->IsNull(0));
}

// Regression: notebooks whose episode ends immediately (all ops invalid)
// must still render.
TEST(RenderRegressionTest, EmptyNotebookRenders) {
  auto dataset = MakeDataset("cyber2");
  ASSERT_TRUE(dataset.ok());
  EdaNotebook notebook;
  notebook.dataset_id = "cyber2";
  notebook.generator = "empty";
  notebook.table = dataset.value().table;
  EXPECT_TRUE(RenderText(notebook).ok());
  EXPECT_TRUE(RenderMarkdown(notebook).ok());
  EXPECT_TRUE(RenderHtml(notebook).ok());
}

// Regression: gold notebooks must stay measurably closer to each other
// than to an arbitrary session — the reference set is what every Table-2
// metric leans on.
TEST(GoldRegressionTest, GoldSetIsInternallyConsistent) {
  for (const char* id : {"cyber1", "flights4"}) {
    auto dataset = MakeDataset(id);
    ASSERT_TRUE(dataset.ok());
    auto gold = GoldNotebooks(dataset.value(), Config());
    ASSERT_TRUE(gold.ok());
    std::vector<std::vector<ViewSignature>> views;
    for (const auto& g : gold.value()) {
      views.push_back(NotebookSignatures(g));
    }
    double loo = 0.0;
    for (size_t i = 0; i < views.size(); ++i) {
      std::vector<std::vector<ViewSignature>> others;
      for (size_t j = 0; j < views.size(); ++j) {
        if (j != i) others.push_back(views[j]);
      }
      loo += MaxEdaSim(views[i], others);
    }
    loo /= views.size();
    EXPECT_GT(loo, 0.25) << id;
    EXPECT_LT(loo, 1.0) << id;
  }
}

}  // namespace
}  // namespace atena
