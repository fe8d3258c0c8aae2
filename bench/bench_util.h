#ifndef ATENA_BENCH_BENCH_UTIL_H_
#define ATENA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/string_utils.h"
#include "data/registry.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "eval/traces.h"

namespace atena {
namespace bench {

/// Shared experiment configuration. Scaled down from the paper's 2.5M-step
/// runs (DESIGN.md substitution #7); override the training budget with
/// ATENA_TRAIN_STEPS.
inline AtenaOptions ExperimentOptions() {
  AtenaOptions options;
  options.env.episode_length = 12;
  options.env.num_term_bins = 8;
  options.trainer.total_steps = 12000;
  options.trainer.rollout_length = 192;
  options.policy.hidden = {64, 64};
  ApplyTrainStepsFromEnv(&options);
  return options;
}

/// Gold reference views for a dataset.
inline Result<std::vector<std::vector<ViewSignature>>> GoldViews(
    const Dataset& dataset, const EnvConfig& env_config) {
  ATENA_ASSIGN_OR_RETURN(auto notebooks, GoldNotebooks(dataset, env_config));
  std::vector<std::vector<ViewSignature>> views;
  views.reserve(notebooks.size());
  for (const auto& notebook : notebooks) {
    views.push_back(NotebookSignatures(notebook));
  }
  return views;
}

/// Prints one row of a fixed-width table.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& cells, int width = 11) {
  std::printf("%-12s", label.c_str());
  for (double cell : cells) {
    std::printf("%*s", width, FormatDouble(cell, 3).c_str());
  }
  std::printf("\n");
}

inline void PrintHeader(const std::string& label,
                        const std::vector<std::string>& columns,
                        int width = 11) {
  std::printf("%-12s", label.c_str());
  for (const auto& column : columns) {
    std::printf("%*s", width, column.c_str());
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace atena

#endif  // ATENA_BENCH_BENCH_UTIL_H_
