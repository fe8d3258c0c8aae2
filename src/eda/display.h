#ifndef ATENA_EDA_DISPLAY_H_
#define ATENA_EDA_DISPLAY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dataframe/ops.h"
#include "dataframe/row_set.h"
#include "eda/operation.h"

namespace atena {

/// One applied filter predicate (part of a display's provenance).
struct FilterPred {
  int column = -1;
  CompareOp op = CompareOp::kEq;
  Value term;
};

/// A results display d_t (paper §4.1): the state reached after a chain of
/// EDA operations. A display is a row selection over the source table plus
/// the active grouping, if any. Consecutive GROUP operations compose into a
/// multi-attribute grouping (paper footnote 1).
struct Display {
  /// Filters applied so far, in application order.
  std::vector<FilterPred> filters;
  /// Selected rows of the source table after `filters`. Shared storage:
  /// copying a display (stack push, history entry, snapshot) shares the
  /// row buffer instead of duplicating it.
  RowSet rows;
  /// Canonical signature of the filter set that produced `rows` (see
  /// display_cache.h); keys the display-execution cache.
  uint64_t rows_signature = 0;
  /// Grouped attributes in application order; empty = ungrouped display.
  std::vector<int> group_columns;
  /// Aggregation shown for the groups (from the most recent GROUP).
  AggFunc agg = AggFunc::kCount;
  int agg_column = -1;
  /// Materialized grouping; null iff ungrouped.
  std::shared_ptr<const GroupedResult> grouped;

  bool is_grouped() const { return !group_columns.empty(); }

  /// The GroupSpec describing this display's grouping state.
  GroupSpec MakeGroupSpec() const;
};

}  // namespace atena

#endif  // ATENA_EDA_DISPLAY_H_
