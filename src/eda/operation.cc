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

namespace {

void WriteValue(TokenWriter& out, const Value& value) {
  if (value.is_null()) {
    out.Word("N");
  } else if (value.is_int()) {
    out.Word("I").Int(value.as_int());
  } else if (value.is_double()) {
    out.Word("D").F64(value.as_double());
  } else {
    out.Word("S").String(value.as_string());
  }
}

Status ReadValue(TokenReader& in, Value* value) {
  std::string_view tag;
  ATENA_RETURN_IF_ERROR(in.Token(&tag, "value tag"));
  if (tag == "N") {
    *value = Value::Null();
  } else if (tag == "I") {
    int64_t v = 0;
    ATENA_RETURN_IF_ERROR(in.Read(&v, "int value"));
    *value = Value(v);
  } else if (tag == "D") {
    double v = 0.0;
    ATENA_RETURN_IF_ERROR(in.ReadF64(&v, "double value"));
    *value = Value(v);
  } else if (tag == "S") {
    std::string s;
    ATENA_RETURN_IF_ERROR(in.ReadString(&s, "string value"));
    *value = Value(std::move(s));
  } else {
    return in.Fail("unknown value tag '" + std::string(tag) + "'");
  }
  return Status::OK();
}

}  // namespace

void WriteOperation(TokenWriter& out, const EdaOperation& op) {
  switch (op.type) {
    case OpType::kBack:
      out.Word("B");
      break;
    case OpType::kGroup:
      out.Word("G")
          .Int(op.group.group_column)
          .Int(static_cast<int>(op.group.agg))
          .Int(op.group.agg_column);
      break;
    case OpType::kFilter:
      out.Word("F")
          .Int(op.filter.column)
          .Int(static_cast<int>(op.filter.op))
          .Int(op.filter.term_bin);
      WriteValue(out, op.filter.term);
      break;
  }
}

Status ReadOperation(TokenReader& in, EdaOperation* op) {
  std::string_view tag;
  ATENA_RETURN_IF_ERROR(in.Token(&tag, "operation tag"));
  if (tag == "B") {
    *op = EdaOperation::Back();
  } else if (tag == "G") {
    int group_column = 0, agg = 0, agg_column = 0;
    ATENA_RETURN_IF_ERROR(in.Read(&group_column, "group column"));
    ATENA_RETURN_IF_ERROR(in.Read(&agg, "agg function"));
    ATENA_RETURN_IF_ERROR(in.Read(&agg_column, "agg column"));
    if (agg < 0 || agg >= kNumAggFuncs) {
      return in.Fail("agg function " + std::to_string(agg) + " out of range");
    }
    *op = EdaOperation::Group(group_column, static_cast<AggFunc>(agg),
                              agg_column);
  } else if (tag == "F") {
    int column = 0, cmp = 0, term_bin = 0;
    ATENA_RETURN_IF_ERROR(in.Read(&column, "filter column"));
    ATENA_RETURN_IF_ERROR(in.Read(&cmp, "filter operator"));
    ATENA_RETURN_IF_ERROR(in.Read(&term_bin, "filter term bin"));
    if (cmp < 0 || cmp >= kNumCompareOps) {
      return in.Fail("filter operator " + std::to_string(cmp) +
                     " out of range");
    }
    Value term;
    ATENA_RETURN_IF_ERROR(ReadValue(in, &term));
    *op = EdaOperation::Filter(column, static_cast<CompareOp>(cmp),
                               std::move(term), term_bin);
  } else {
    return in.Fail("unknown operation tag '" + std::string(tag) + "'");
  }
  return Status::OK();
}

}  // namespace atena
