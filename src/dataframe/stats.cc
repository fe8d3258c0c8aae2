#include "dataframe/stats.h"

#include <algorithm>

#include "common/math_utils.h"
#include "dataframe/ops.h"

namespace atena {

ColumnStats ComputeColumnStats(const Column& column,
                               const std::vector<int32_t>& rows) {
  ColumnStats stats;
  stats.count = static_cast<int64_t>(rows.size());
  auto hist = ValueHistogram(column, rows);
  for (int32_t r : rows) {
    if (column.IsNull(r)) ++stats.nulls;
  }
  stats.distinct = static_cast<int64_t>(hist.size());
  std::vector<double> counts;
  counts.reserve(hist.size());
  for (const auto& [k, v] : hist) {
    (void)k;
    counts.push_back(v);
  }
  stats.entropy = Entropy(counts);
  stats.normalized_entropy = NormalizedEntropy(counts);
  return stats;
}

std::unordered_map<int64_t, double> ValueHistogram(
    const Column& column, const std::vector<int32_t>& rows) {
  std::unordered_map<int64_t, double> hist;
  for (int32_t r : rows) {
    if (column.IsNull(r)) continue;
    hist[column.CellKey(r)] += 1.0;
  }
  return hist;
}

std::vector<TokenFreq> TokenFrequencies(const Column& column,
                                        const std::vector<int32_t>& rows) {
  // Count by cell key, then box one representative Value per key.
  std::unordered_map<int64_t, TokenFreq> by_key;
  for (int32_t r : rows) {
    if (column.IsNull(r)) continue;
    auto [it, inserted] = by_key.try_emplace(column.CellKey(r));
    if (inserted) it->second.token = column.GetValue(r);
    ++it->second.count;
  }
  std::vector<TokenFreq> out;
  out.reserve(by_key.size());
  for (auto& [k, tf] : by_key) {
    (void)k;
    out.push_back(std::move(tf));
  }
  std::sort(out.begin(), out.end(), [](const TokenFreq& a, const TokenFreq& b) {
    if (a.count != b.count) return a.count > b.count;
    return ValueLess(a.token, b.token);
  });
  return out;
}

}  // namespace atena
