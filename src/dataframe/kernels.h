#ifndef ATENA_DATAFRAME_KERNELS_H_
#define ATENA_DATAFRAME_KERNELS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dataframe/ops.h"
#include "dataframe/table.h"

namespace atena {

/// Retained scalar reference for FilterRows: the pre-kernel per-row scan.
/// Kept (not just for tests) as the semantic baseline the kernel must match
/// bit-for-bit; benchmarks report kernel speedup against it.
Result<std::vector<int32_t>> ScalarFilterRows(const Table& table,
                                              const std::vector<int32_t>& rows,
                                              int column, CompareOp op,
                                              const Value& term);

/// Retained scalar reference for GroupAggregate (single-threaded
/// row-encounter-order hash group-by).
Result<GroupedResult> ScalarGroupAggregate(const Table& table,
                                           const std::vector<int32_t>& rows,
                                           const GroupSpec& spec);

}  // namespace atena

#endif  // ATENA_DATAFRAME_KERNELS_H_
