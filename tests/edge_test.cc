// Edge-case tests: empty selections, degenerate inputs, boundary values.
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_utils.h"
#include "data/registry.h"
#include "dataframe/describe.h"
#include "dataframe/ops.h"
#include "dataframe/stats.h"
#include "eval/metrics.h"

namespace atena {
namespace {

TablePtr TinyTable() {
  TableBuilder b("tiny");
  b.AddColumn("k", DataType::kString);
  b.AddColumn("v", DataType::kInt64);
  EXPECT_TRUE(b.AppendRow({Value(std::string("a")), Value(int64_t{1})}).ok());
  return b.Finish().value();
}

TEST(EdgeTest, FilterOverEmptySelection) {
  auto t = TinyTable();
  auto out = FilterRows(*t, {}, 0, CompareOp::kEq, Value(std::string("a")));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST(EdgeTest, GroupOverEmptySelection) {
  auto t = TinyTable();
  GroupSpec spec;
  spec.group_columns = {0};
  auto out = GroupAggregate(*t, {}, spec);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().groups.empty());
  auto table = out.value().ToTable(*t);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), 0);
}

TEST(EdgeTest, StatsOverEmptySelection) {
  auto t = TinyTable();
  ColumnStats stats = ComputeColumnStats(*t->column(1), {});
  EXPECT_EQ(stats.count, 0);
  EXPECT_EQ(stats.distinct, 0);
  EXPECT_DOUBLE_EQ(stats.entropy, 0.0);
  EXPECT_TRUE(TokenFrequencies(*t->column(0), {}).empty());
}

TEST(EdgeTest, SingleRowTableOperations) {
  auto t = TinyTable();
  auto rows = AllRows(*t).value();
  GroupSpec spec;
  spec.group_columns = {0};
  spec.agg = AggFunc::kAvg;
  spec.agg_column = 1;
  auto grouped = GroupAggregate(*t, rows, spec);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped.value().groups.size(), 1u);
  EXPECT_DOUBLE_EQ(grouped.value().groups[0].aggregate, 1.0);
}

TEST(EdgeTest, AllNullAggregateIsInvalid) {
  TableBuilder b("nulls");
  b.AddColumn("k", DataType::kString);
  b.AddColumn("v", DataType::kFloat64);
  ASSERT_TRUE(b.AppendRow({Value(std::string("a")), Value::Null()}).ok());
  ASSERT_TRUE(b.AppendRow({Value(std::string("a")), Value::Null()}).ok());
  auto t = b.Finish().value();
  GroupSpec spec;
  spec.group_columns = {0};
  spec.agg = AggFunc::kSum;
  spec.agg_column = 1;
  auto grouped = GroupAggregate(*t, AllRows(*t).value(), spec);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped.value().groups.size(), 1u);
  EXPECT_FALSE(grouped.value().groups[0].agg_valid);
  // The materialized display shows a null aggregate.
  auto table = grouped.value().ToTable(*t);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(table.value()->column(1)->IsNull(0));
}

TEST(EdgeTest, DescribeOfAllNullColumn) {
  TableBuilder b("nulls");
  b.AddColumn("v", DataType::kFloat64);
  ASSERT_TRUE(b.AppendRow({Value::Null()}).ok());
  auto t = b.Finish().value();
  auto described = DescribeTable(*t);
  ASSERT_TRUE(described.ok());
  const Table& d = *described.value();
  EXPECT_TRUE(d.column(d.FindColumn("min"))->IsNull(0));
  EXPECT_TRUE(d.column(d.FindColumn("top_value"))->IsNull(0));
}

TEST(EdgeTest, MetricsWithEmptyGoldSet) {
  ViewSignature v;
  v.groups = {"g"};
  std::vector<std::vector<ViewSignature>> no_gold;
  EXPECT_DOUBLE_EQ(ViewPrecision({v}, no_gold), 0.0);
  EXPECT_DOUBLE_EQ(TBleu({v}, no_gold, 2), 0.0);
  EXPECT_DOUBLE_EQ(MaxEdaSim({v}, no_gold), 0.0);
}

TEST(EdgeTest, KlDivergenceWithOneEmptyHistogram) {
  std::unordered_map<int64_t, double> p = {{1, 10}};
  std::unordered_map<int64_t, double> empty;
  double kl = KlDivergence(p, empty);
  EXPECT_TRUE(std::isfinite(kl));
  EXPECT_GE(kl, 0.0);
}

TEST(EdgeTest, EnvironmentOnTinyDatasetSurvivesFullEpisode) {
  // Build a 3-row dataset and run a random episode: nothing should crash
  // and most actions should be no-ops without ever deadlocking.
  TableBuilder b("micro");
  b.AddColumn("k", DataType::kString);
  b.AddColumn("v", DataType::kInt64);
  ASSERT_TRUE(b.AppendRow({Value(std::string("a")), Value(int64_t{1})}).ok());
  ASSERT_TRUE(b.AppendRow({Value(std::string("b")), Value(int64_t{2})}).ok());
  ASSERT_TRUE(b.AppendRow({Value(std::string("a")), Value(int64_t{3})}).ok());
  Dataset dataset;
  dataset.table = b.Finish().value();
  dataset.info.id = "micro";

  EnvConfig config;
  config.episode_length = 10;
  config.num_term_bins = 4;
  EdaEnvironment env(dataset, config);
  Rng rng(1);
  env.Reset();
  while (!env.done()) {
    env.TryStep(SampleRandomAction(env.action_space(), &rng)).value();
  }
  EXPECT_EQ(env.steps().size(), 10u);
}

}  // namespace
}  // namespace atena
