// ATENA end-to-end benchmark binary.
//
//   atena_perfbench --workload train|serve_cold|serve_durable --seed N
//                   --seconds S --trace 0|1 --workdir DIR
//
// Prints a machine record, per-workload detail lines, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when a correctness check fails. perfbench/README.md describes
// the workloads and metrics.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/logging.h"

namespace atena {
namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer", in order).
constexpr MetricSpec kEndToEnd[] = {
    {"steps_per_s", "steps/s", "higher"},
    {"step_p50_ms", "ms", "lower"},
    {"step_p99_ms", "ms", "lower"},
    {"notebook_p50_ms", "ms", "lower"},
    {"notebook_p99_ms", "ms", "lower"},
    {"setup_s", "s", "lower"},
    {"peak_rss_mb", "MiB", "lower"},
    {"reward_mean", "reward", "higher"},
    {"notebook_eda_sim", "score", "higher"},
};

constexpr MetricSpec kPerLayer[] = {
    {"nn.act_ms", "ms/kstep", "lower"},
    {"nn.act_calls", "count", "lower"},
    {"nn.act_rows_per_call", "rows", "higher"},
    {"nn.update_fwd_ms", "ms/kstep", "lower"},
    {"nn.update_bwd_ms", "ms/kstep", "lower"},
    {"rl.rollout_tick_ms", "ms/kstep", "lower"},
    {"rl.update_other_ms", "ms/kstep", "lower"},
    {"rl.updates", "count", "higher"},
    {"reward.compute_ms", "ms/kstep", "lower"},
    {"reward.compute_calls", "count", "higher"},
    {"eda.step_ms_p50", "ms", "lower"},
    {"eda.step_ms_p99", "ms", "lower"},
    {"eda.encode_ms", "ms/step", "lower"},
    {"eda.replayed_steps", "count", "higher"},
    {"dataframe.op_ms", "ms/step", "lower"},
    {"dataframe.column_stats_ms", "ms/step", "lower"},
    {"dataframe.token_freq_ms", "ms/step", "lower"},
    {"dataframe.rows_scanned", "rows/step", "lower"},
    {"reward.interestingness_ms", "ms/step", "lower"},
    {"reward.diversity_ms", "ms/step", "lower"},
    {"coherency.score_ms", "ms/step", "lower"},
    {"eda.cache_hit_rate", "ratio", "higher"},
    {"eda.cache_evictions", "count", "lower"},
    {"eda.cache_resident_mb", "MiB", "lower"},
    {"eda.valid_step_frac", "ratio", "higher"},
    {"serve.tick_ms_p50", "ms", "lower"},
    {"serve.tick_ms_p99", "ms", "lower"},
    {"serve.admit_ms_p50", "ms", "lower"},
    {"serve.admit_ms_p99", "ms", "lower"},
    {"serve.deliver_ms_p50", "ms", "lower"},
    {"serve.deliver_ms_p99", "ms", "lower"},
    {"serve.journal_appends", "count", "lower"},
    {"serve.journal_syncs", "count", "lower"},
    {"serve.journal_bytes", "bytes", "lower"},
    {"serve.journal_compactions", "count", "lower"},
    {"serve.journal_syncs_per_append", "ratio", "lower"},
    {"serve.recover_ms", "ms", "lower"},
    {"index.store_size", "count", "higher"},
    {"index.query_ms_p50", "ms", "lower"},
    {"index.query_ms_p99", "ms", "lower"},
    {"trace_overhead_pct", "%", "lower"},
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

void PrintMachineRecord(const RunOptions& options) {
  struct utsname uts;
  const std::string kernel =
      uname(&uts) == 0 ? std::string(uts.sysname) + " " + uts.release
                       : "unknown";
  std::printf(
      "machine {\"nproc\": %u, \"threads\": %d, \"cpu\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"kernel\": \"%s\", "
      "\"journal_fs\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), options.threads,
      JsonEscape(CpuModel()).c_str(), ATENA_PERFBENCH_COMPILER,
      ATENA_PERFBENCH_BUILD_TYPE, JsonEscape(kernel).c_str(),
      FilesystemType(options.workdir).c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
}

/// Prints the result line with every metric of `specs`. A missing
/// end-to-end metric fails the run; a missing per-layer metric is a layer
/// the workload does not exercise and reads 0.
template <size_t N>
bool PrintResult(const Report& report, const MetricSpec (&specs)[N],
                 bool missing_is_zero) {
  bool complete = true;
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = report.metrics().find(spec.name);
    if (it == report.metrics().end() && !missing_is_zero) {
      std::printf("CHECK FAILED: metric %s missing\n", spec.name);
      complete = false;
      continue;
    }
    const double value = it == report.metrics().end() ? 0.0 : it->second;
    std::printf("metric %-32s %16.6g %-9s %s is better\n", spec.name, value,
                spec.unit, spec.better);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  }
  for (const auto& [name, value] : report.metrics()) {
    bool known = false;
    for (const MetricSpec& spec : specs) known = known || name == spec.name;
    if (!known) {
      std::printf("CHECK FAILED: unexpected metric %s\n", name.c_str());
      complete = false;
    }
  }
  const bool correct = report.correct() && complete;
  std::printf("checks: %lld run, %s\n", static_cast<long long>(report.checks()),
              correct ? "all passed" : "FAILED");
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()), metrics.c_str());
  return correct;
}

int Usage() {
  std::fprintf(stderr,
               "usage: atena_perfbench --workload train|serve_cold|"
               "serve_durable --seed N --seconds S --trace 0|1 "
               "--workdir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.workdir.empty() || options.seconds <= 0.0) {
    return Usage();
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  options.threads = static_cast<int>(hardware == 0 ? 1 : std::min(4u, hardware));
  SetLogLevel(LogLevel::kWarning);

  std::error_code error;
  std::filesystem::remove_all(options.workdir, error);
  std::filesystem::create_directories(options.workdir, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s\n", options.workdir.c_str());
    return 2;
  }
  PrintMachineRecord(options);

  Report report;
  if (options.workload == "train") {
    RunTrain(options, &report);
  } else if (options.workload == "serve_cold") {
    RunServeCold(options, &report);
  } else if (options.workload == "serve_durable") {
    RunServeDurable(options, &report);
  } else {
    return Usage();
  }
  std::filesystem::remove_all(options.workdir, error);
  if (!options.trace) report.Metric("peak_rss_mb", PeakRssMb());
  const bool correct = options.trace ? PrintResult(report, kPerLayer, true)
                                     : PrintResult(report, kEndToEnd, false);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace atena

int main(int argc, char** argv) { return atena::perfbench::Main(argc, argv); }
