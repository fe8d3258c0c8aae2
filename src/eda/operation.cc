#include "eda/operation.h"

namespace atena {

EdaOperation EdaOperation::Filter(int column, CompareOp op, Value term,
                                  int term_bin) {
  EdaOperation out;
  out.type = OpType::kFilter;
  out.filter = FilterParams{column, op, std::move(term), term_bin};
  return out;
}

EdaOperation EdaOperation::Group(int group_column, AggFunc agg,
                                 int agg_column) {
  EdaOperation out;
  out.type = OpType::kGroup;
  out.group = GroupParams{group_column, agg, agg_column};
  return out;
}

EdaOperation EdaOperation::Back() {
  EdaOperation out;
  out.type = OpType::kBack;
  return out;
}

std::string EdaOperation::Describe(const Table& table) const {
  switch (type) {
    case OpType::kFilter: {
      std::string column = (filter.column >= 0 &&
                            filter.column < table.num_columns())
                               ? table.column_name(filter.column)
                               : "?";
      std::string term = filter.term.is_string()
                             ? "'" + filter.term.ToString() + "'"
                             : filter.term.ToString();
      return "FILTER " + column + " " + CompareOpSymbol(filter.op) + " " +
             term;
    }
    case OpType::kGroup: {
      std::string key = (group.group_column >= 0 &&
                         group.group_column < table.num_columns())
                            ? table.column_name(group.group_column)
                            : "?";
      std::string agg;
      if (group.agg == AggFunc::kCount) {
        agg = "COUNT(*)";
      } else {
        std::string target = (group.agg_column >= 0 &&
                              group.agg_column < table.num_columns())
                                 ? table.column_name(group.agg_column)
                                 : "?";
        agg = std::string(AggFuncName(group.agg)) + "(" + target + ")";
      }
      return "GROUP-BY " + key + ", " + agg;
    }
    case OpType::kBack:
      return "BACK";
  }
  return "?";
}

}  // namespace atena
