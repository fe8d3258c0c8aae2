#ifndef ATENA_BENCH_BENCH_JSON_H_
#define ATENA_BENCH_BENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace atena {
namespace bench {

/// Console reporter that additionally records every iteration run and, at
/// Finalize, writes a compact machine-readable JSON summary (per-iteration
/// times, items/sec and all user counters). The substrate micro-bench
/// binaries write BENCH_dataframe.json / BENCH_nn.json / BENCH_index.json
/// into their working directory.
class JsonFileReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonFileReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type == Run::RT_Iteration && !run.error_occurred) {
        runs_.push_back(run);
      }
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(out, "{\n  \"benchmarks\": [\n");
    for (size_t i = 0; i < runs_.size(); ++i) {
      const Run& run = runs_[i];
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      std::fprintf(out,
                   "    {\"name\": \"%s\", \"iterations\": %lld, "
                   "\"real_time_sec\": %.9g, \"cpu_time_sec\": %.9g",
                   run.benchmark_name().c_str(),
                   static_cast<long long>(run.iterations),
                   run.real_accumulated_time / iters,
                   run.cpu_accumulated_time / iters);
      for (const auto& [name, counter] : run.counters) {
        std::fprintf(out, ", \"%s\": %.9g", name.c_str(),
                     static_cast<double>(counter));
      }
      std::fprintf(out, "}%s\n", i + 1 < runs_.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s (%zu benchmarks)\n", path_.c_str(), runs_.size());
  }

 private:
  std::string path_;
  std::vector<Run> runs_;
};

}  // namespace bench
}  // namespace atena

#endif  // ATENA_BENCH_BENCH_JSON_H_
