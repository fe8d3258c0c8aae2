#include <gtest/gtest.h>

#include "data/registry.h"
#include "eda/environment.h"
#include "eda/session.h"
#include "notebook/render.h"
#include "viz/chart.h"
#include "viz/svg.h"

namespace atena {
namespace {

Dataset FlightsDataset() {
  auto d = MakeDataset("flights4");
  EXPECT_TRUE(d.ok());
  return d.value();
}

EnvConfig Config() {
  EnvConfig config;
  config.episode_length = 8;
  return config;
}

// -------------------------------------------------------- recommendation

TEST(ChartRecommendTest, CategoricalGroupingYieldsBarChart) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  env.Reset();
  int month = d.table->FindColumn("month");
  int delay = d.table->FindColumn("departure_delay");
  env.TryStepOperation(EdaOperation::Group(month, AggFunc::kAvg, delay))
      .value();
  auto chart = RecommendChart(*d.table, env.current_display());
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ(chart.value().kind, ChartKind::kBarChart);
  EXPECT_EQ(chart.value().points.size(), 12u);  // one bar per month
  EXPECT_EQ(chart.value().y_label, "AVG(departure_delay)");
  EXPECT_EQ(chart.value().x_label, "month");
}

TEST(ChartRecommendTest, NumericKeyYieldsLineChart) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  env.Reset();
  int dep = d.table->FindColumn("scheduled_departure");
  int delay = d.table->FindColumn("departure_delay");
  env.TryStepOperation(EdaOperation::Group(dep, AggFunc::kAvg, delay)).value();
  auto chart = RecommendChart(*d.table, env.current_display());
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ(chart.value().kind, ChartKind::kLineChart);
  EXPECT_GT(chart.value().points.size(), 10u);
}

TEST(ChartRecommendTest, UngroupedDisplayYieldsHistogram) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  env.Reset();
  int delay = d.table->FindColumn("departure_delay");
  env.TryStepOperation(EdaOperation::Filter(delay, CompareOp::kGt, Value(0.0)))
      .value();
  auto chart = RecommendChart(*d.table, env.current_display());
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ(chart.value().kind, ChartKind::kHistogram);
  EXPECT_EQ(chart.value().x_label, "departure_delay");
  ChartOptions options;
  EXPECT_EQ(chart.value().points.size(),
            static_cast<size_t>(options.histogram_bins));
  // Histogram counts sum to the selection's non-null count.
  double total = 0;
  for (const auto& p : chart.value().points) total += p.value;
  EXPECT_DOUBLE_EQ(total,
                   static_cast<double>(env.current_display().rows.size()));
}

TEST(ChartRecommendTest, SingleGroupIsNotWorthACharting) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  env.Reset();
  int airline = d.table->FindColumn("airline");
  // flights4 has several airlines; narrow to one, then group by airline.
  env.TryStepOperation(EdaOperation::Filter(airline, CompareOp::kEq,
                                            Value(std::string("AA"))))
      .value();
  env.TryStepOperation(EdaOperation::Group(airline, AggFunc::kCount, -1))
      .value();
  auto chart = RecommendChart(*d.table, env.current_display());
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ(chart.value().kind, ChartKind::kNone);
}

TEST(ChartRecommendTest, ManyCategoriesTruncateToTopBars) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  env.Reset();
  int flight_number = d.table->FindColumn("flight_number");
  int delay = d.table->FindColumn("departure_delay");
  env.TryStepOperation(
      EdaOperation::Group(flight_number, AggFunc::kAvg, delay)).value();
  // Numeric key -> line chart, not truncated. Force bar with two keys.
  int month = d.table->FindColumn("month");
  env.TryStepOperation(EdaOperation::Group(month, AggFunc::kAvg, delay))
      .value();
  ChartOptions options;
  options.max_bars = 10;
  auto chart = RecommendChart(*d.table, env.current_display(), options);
  ASSERT_TRUE(chart.ok());
  EXPECT_EQ(chart.value().kind, ChartKind::kBarChart);
  EXPECT_EQ(chart.value().points.size(), 10u);
  EXPECT_TRUE(chart.value().truncated);
}

TEST(ChartRecommendTest, DeterministicAcrossCalls) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  env.Reset();
  int month = d.table->FindColumn("month");
  env.TryStepOperation(EdaOperation::Group(month, AggFunc::kCount, -1)).value();
  auto a = RecommendChart(*d.table, env.current_display());
  auto b = RecommendChart(*d.table, env.current_display());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().points.size(), b.value().points.size());
  for (size_t i = 0; i < a.value().points.size(); ++i) {
    EXPECT_EQ(a.value().points[i].label, b.value().points[i].label);
    EXPECT_DOUBLE_EQ(a.value().points[i].value, b.value().points[i].value);
  }
}

// ----------------------------------------------------------------- SVG

ChartSpec SampleBarSpec() {
  ChartSpec spec;
  spec.kind = ChartKind::kBarChart;
  spec.title = "AVG(delay) by month";
  spec.x_label = "month";
  spec.y_label = "AVG(delay)";
  spec.points = {{"Jan", 4.0}, {"Feb", -2.0}, {"Mar", 9.5}};
  return spec;
}

TEST(SvgTest, BarChartContainsRectsAndLabels) {
  std::string svg = RenderChartSvg(SampleBarSpec());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // Three bars.
  size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect class=\"bar\"", pos)) != std::string::npos) {
    ++rects;
    ++pos;
  }
  EXPECT_EQ(rects, 3u);
  EXPECT_NE(svg.find("AVG(delay) by month"), std::string::npos);
  EXPECT_NE(svg.find("Jan"), std::string::npos);
}

TEST(SvgTest, LineChartContainsPolyline) {
  ChartSpec spec = SampleBarSpec();
  spec.kind = ChartKind::kLineChart;
  std::string svg = RenderChartSvg(spec);
  EXPECT_NE(svg.find("<polyline"), std::string::npos);
  EXPECT_EQ(svg.find("<rect class=\"bar\""), std::string::npos);
}

TEST(SvgTest, NoneSpecRendersEmpty) {
  ChartSpec spec;
  spec.kind = ChartKind::kNone;
  EXPECT_TRUE(RenderChartSvg(spec).empty());
}

TEST(SvgTest, EscapesMarkupInLabels) {
  ChartSpec spec = SampleBarSpec();
  spec.title = "a < b & c";
  spec.points[0].label = "<script>";
  std::string svg = RenderChartSvg(spec);
  EXPECT_EQ(svg.find("<script>"), std::string::npos);
  EXPECT_NE(svg.find("a &lt; b &amp; c"), std::string::npos);
}

TEST(SvgTest, NegativeValuesKeepZeroBaseline) {
  std::string svg = RenderChartSvg(SampleBarSpec());
  // The x axis is drawn at the zero line, which requires a y between the
  // min (-2) and max (9.5) mappings — just assert it renders and contains
  // an axis line.
  EXPECT_NE(svg.find("class=\"axis\""), std::string::npos);
}

TEST(HtmlIntegrationTest, NotebookEmbedsChartSvg) {
  Dataset d = FlightsDataset();
  EdaEnvironment env(d, Config());
  int month = d.table->FindColumn("month");
  int delay = d.table->FindColumn("departure_delay");
  std::vector<EdaOperation> ops = {
      EdaOperation::Group(month, AggFunc::kAvg, delay)};
  EdaNotebook notebook = ReplayOperations(&env, ops, "viz-test");
  auto html = RenderHtml(notebook);
  ASSERT_TRUE(html.ok());
  EXPECT_NE(html.value().find("<svg"), std::string::npos);
  EXPECT_NE(html.value().find("AVG(departure_delay) by month"),
            std::string::npos);
}

}  // namespace
}  // namespace atena
