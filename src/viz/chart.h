#ifndef ATENA_VIZ_CHART_H_
#define ATENA_VIZ_CHART_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "eda/display.h"

namespace atena {

/// Chart families the recommender can emit. The paper's environment
/// supports filter/group/aggregate and "can be extended to support, e.g.,
/// visualizations" (§3); this module is that extension: every display gets
/// a deterministic chart recommendation rendered into the HTML notebook.
enum class ChartKind {
  kNone,       // nothing worth plotting (e.g. a single group)
  kBarChart,   // categorical key -> aggregate value
  kLineChart,  // ordered numeric key -> aggregate value
  kHistogram,  // distribution of one numeric column of a raw display
};

/// One point of a chart: a label (category or bin) and its value.
struct ChartPoint {
  std::string label;
  double value = 0.0;
};

/// A renderable chart specification.
struct ChartSpec {
  ChartKind kind = ChartKind::kNone;
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<ChartPoint> points;
  /// True when `points` was truncated to the top values by magnitude.
  bool truncated = false;
};

struct ChartOptions {
  /// Maximum categories shown in a bar chart (largest |value| first when
  /// exceeded; axis order otherwise).
  int max_bars = 16;
  /// Histogram bin count for raw numeric columns.
  int histogram_bins = 12;
  /// Minimum groups/distinct values for a chart to be worth showing.
  int min_points = 2;
};

/// Recommends a chart for one display:
///  * grouped by a single numeric key         -> line chart (key ordered),
///  * grouped (any keys, last one categorical)-> bar chart of the aggregate
///    per (composite) group key,
///  * ungrouped                               -> histogram of the most
///    recently filtered numeric column, falling back to the first numeric
///    non-key-like column,
///  * single-group or empty displays          -> kNone.
///
/// Deterministic: the same display always yields the same chart.
Result<ChartSpec> RecommendChart(const Table& source, const Display& display,
                                 const ChartOptions& options = {});

}  // namespace atena

#endif  // ATENA_VIZ_CHART_H_
