#ifndef ATENA_EDA_OPERATION_H_
#define ATENA_EDA_OPERATION_H_

#include <string>

#include "common/status.h"
#include "common/token_codec.h"
#include "dataframe/ops.h"
#include "dataframe/table.h"

namespace atena {

/// EDA operation types (paper §4.1).
enum class OpType { kFilter, kGroup, kBack };
constexpr int kNumOpTypes = 3;

/// Concrete parameters of a FILTER(attr, op, term) operation. `term_bin`
/// records which frequency bin the term was sampled from (-1 when the term
/// was given explicitly, e.g. in gold-standard notebooks).
struct FilterParams {
  int column = -1;
  CompareOp op = CompareOp::kEq;
  Value term;
  int term_bin = -1;
};

/// Concrete parameters of a GROUP(g_attr, agg_func, agg_attr) operation.
/// `agg_column` is ignored when `agg == kCount`.
struct GroupParams {
  int group_column = -1;
  AggFunc agg = AggFunc::kCount;
  int agg_column = -1;
};

/// One concrete EDA operation as executed in a session.
struct EdaOperation {
  OpType type = OpType::kBack;
  FilterParams filter;  // meaningful iff type == kFilter
  GroupParams group;    // meaningful iff type == kGroup

  static EdaOperation Filter(int column, CompareOp op, Value term,
                             int term_bin = -1);
  static EdaOperation Group(int group_column, AggFunc agg, int agg_column);
  static EdaOperation Back();

  /// Human-readable description as shown in the notebook, e.g.
  /// "FILTER month == 'June'" or "GROUP-BY origin_airport, AVG(departure_delay)".
  std::string Describe(const Table& table) const;
};

/// Writes `op` as one TokenWriter phrase — `B`, `G <group> <agg> <agg-col>`
/// or `F <column> <cmp> <term-bin> <term>`, the term a tagged Value (`N`,
/// `I <int>`, `D <f64>`, `S <string>`) — the spelling every persisted
/// operation (checkpoint, serving journal) shares.
void WriteOperation(TokenWriter& out, const EdaOperation& op);

/// Reads a phrase written by WriteOperation. Enum fields are range-checked;
/// column indices are not (see OpExecutableOn in rl/checkpoint.h).
Status ReadOperation(TokenReader& in, EdaOperation* op);

}  // namespace atena

#endif  // ATENA_EDA_OPERATION_H_
