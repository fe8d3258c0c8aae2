// Shared pieces of the end-to-end benchmark: clocks, latency samples, the
// metric/correctness report, the workload shapes, and the probes that time
// calls into each layer's public functions from outside src/.
#ifndef ATENA_PERFBENCH_BENCH_H_
#define ATENA_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/atena.h"
#include "eda/reward_interface.h"
#include "eda/session.h"
#include "eval/view_signature.h"
#include "reward/compound.h"
#include "rl/policy.h"
#include "serve/session_manager.h"

namespace atena {
namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Deterministic 64-bit mix of a seed and a tag (SplitMix64 finalizer), so
/// every sub-stream a workload derives from --seed is reproducible.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Latency samples with optional integer weights (a tick that executed n
/// steps is one sample of weight n). Percentiles are nearest-rank on the
/// weighted distribution.
class Samples {
 public:
  void Add(double value, int64_t weight = 1) {
    if (weight > 0) values_.push_back({value, weight});
  }
  void Merge(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  int64_t count() const;
  double Percentile(double p) const;

 private:
  std::vector<std::pair<double, int64_t>> values_;
};

/// Median of a list (0 when empty).
double Median(std::vector<double> values);

/// Metric values plus operation and correctness accounting. main.cc owns
/// the metric names and units (the same lists BENCHMARK.json declares) and
/// prints the result line from this report.
class Report {
 public:
  /// Sets a metric; a non-finite value fails the run.
  void Metric(const std::string& name, double value);
  /// Records one correctness check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  /// Operation accounting: `attempted` operations of which `failed` did not
  /// succeed (quarantined, shed, deadline-retired or hard-stopped
  /// sessions, journal failures, a guard abort).
  void Count(int64_t attempted, int64_t failed, const std::string& what);

  bool correct() const { return checks_failed_ == 0; }
  int64_t checks() const { return checks_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::map<std::string, double> metrics_;
  int64_t checks_ = 0;
  int64_t checks_failed_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the journal and snapshot files.
  std::string workdir;
  /// Stepping threads, caller included (min(4, nproc)).
  int threads = 4;
};

/// The paper-path training shape (bench/bench_util.h ExperimentOptions:
/// episode 12, 8 term bins, hidden {64,64}, rollout 192) with 4 actors and
/// no checkpointing. `seed` drives the environment, trainer and policy
/// streams; the reward calibration seed stays at its default.
AtenaOptions TrainShape(uint64_t seed, int total_steps, int threads);

/// Busy-time accumulator shared by concurrently stepped decorators.
struct BusyCounter {
  std::atomic<int64_t> ns{0};
  std::atomic<int64_t> calls{0};
  void Add(int64_t elapsed_ns) {
    ns.fetch_add(elapsed_ns, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
};

/// RewardSignal decorator timing every Compute into a shared counter.
class TimedReward final : public RewardSignal {
 public:
  TimedReward(std::shared_ptr<RewardSignal> inner, BusyCounter* counter)
      : inner_(std::move(inner)), counter_(counter) {}
  double Compute(const RewardContext& context) override;
  void SetDegradedMode(bool degraded) override {
    inner_->SetDegradedMode(degraded);
  }

 private:
  std::shared_ptr<RewardSignal> inner_;
  BusyCounter* counter_;
};

/// A fresh CompoundReward sharing `reward`'s trained coherency classifier
/// and calibrated weights (Compute is stateful, so every environment or
/// session needs its own).
std::shared_ptr<CompoundReward> CloneReward(const CompoundReward& reward);

/// What RunAtena builds before training, for `options` over `dataset`: one
/// environment per actor (seeded env.seed + e), the compound reward trained
/// and calibrated on the first and cloned for the others, and a fresh
/// TwofoldPolicy. With a `reward_counter`, every actor's reward signal is
/// wrapped in a TimedReward.
struct TrainingRig {
  std::vector<std::unique_ptr<EdaEnvironment>> envs;
  std::shared_ptr<CompoundReward> reward;
  std::vector<std::shared_ptr<RewardSignal>> signals;
  std::unique_ptr<TwofoldPolicy> policy;

  std::vector<EdaEnvironment*> env_ptrs() const;
};
TrainingRig BuildTrainingRig(const Dataset& dataset,
                             const AtenaOptions& options,
                             BusyCounter* reward_counter);

/// Layer totals a traced ClockedPolicy accumulates.
struct PolicyTimes {
  int64_t act_ns = 0, act_calls = 0, act_rows = 0;
  int64_t fwd_ns = 0, bwd_ns = 0;
  /// Rollout ticks minus their batched act: parallel env steps + commit.
  int64_t tick_gap_ns = 0;
  /// Update windows minus forward and backward.
  int64_t update_other_ns = 0;
  int64_t updates = 0;
  void Add(const PolicyTimes& other);
};

/// Policy decorator handed to ParallelPpoTrainer. Always records the
/// lockstep tick boundaries (one clock read per batched act), which give
/// the train workload's step and notebook latencies; when `traced` it also
/// times ActBatch, ForwardBatch and BackwardBatch and splits each update
/// into forward, backward and everything else.
class ClockedPolicy final : public Policy {
 public:
  ClockedPolicy(Policy* inner, bool traced, int episode_length)
      : inner_(inner), traced_(traced), episode_length_(episode_length) {}

  PolicyStep Act(const std::vector<double>& observation, Rng* rng) override {
    return inner_->Act(observation, rng);
  }
  PolicyStep ActGreedy(const std::vector<double>& observation) override {
    return inner_->ActGreedy(observation);
  }
  std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                   Rng* rng) override;
  std::vector<PolicyStep> ActBatch(const Matrix& observations,
                                   const std::vector<Rng*>& rngs) override {
    return inner_->ActBatch(observations, rngs);
  }
  BatchEvaluation ForwardBatch(
      const Matrix& observations,
      const std::vector<ActionRecord>& actions) override;
  void BackwardBatch(const std::vector<SampleGrad>& grads) override;
  std::vector<Parameter*> Parameters() override {
    return inner_->Parameters();
  }

  /// Progress-callback hook: the update that just finished ends here.
  void OnUpdateDone();

  /// Lockstep tick durations (one sample per tick, weight = rows) and the
  /// duration of each group of `episode_length` ticks — the episodes all
  /// actors run concurrently, which always start at a rollout boundary.
  const Samples& ticks() const { return ticks_; }
  const Samples& episodes() const { return episodes_; }
  const PolicyTimes& times() const { return times_; }

 private:
  void CloseTick(int64_t now);

  Policy* inner_;
  bool traced_;
  int episode_length_;
  bool in_rollout_ = false;
  int64_t tick_start_ = 0;
  int tick_rows_ = 0;
  int64_t act_end_ = 0;
  int ticks_in_episode_ = 0;
  double episode_ms_ = 0.0;
  int64_t update_start_ = 0;
  int64_t update_nn_ns_ = 0;
  Samples ticks_;
  Samples episodes_;
  PolicyTimes times_;
};

/// Per-step costs of the display pipeline, measured by replaying recorded
/// operation sequences on a private, cache-less environment and calling
/// each layer's public functions on every replayed display.
struct ReplayProbe {
  Samples step_ms;
  int64_t steps = 0;
  int64_t encode_ns = 0, op_ns = 0, column_stats_ns = 0, token_freq_ns = 0;
  int64_t rows_scanned = 0;
  int64_t interestingness_ns = 0, diversity_ns = 0, coherency_ns = 0;

  /// Replays `ops` from a fresh episode of a new environment over
  /// `dataset` (episode boundaries reset the environment, like a served
  /// session) with `reward` attached, timing each step and each layer
  /// call. Fills the replayed per-step rewards, validity and display
  /// signatures for comparison against the recorded trace.
  void Replay(const Dataset& dataset, const EnvConfig& config,
              const std::vector<EdaOperation>& ops,
              const std::shared_ptr<CompoundReward>& reward,
              std::vector<ServedStep>* replayed);
  void AddMetrics(Report* report) const;
};

/// Field-by-field equality of two served step sequences (bit-exact
/// rewards).
bool SameSteps(const std::vector<ServedStep>& a,
               const std::vector<ServedStep>& b);
bool SameBits(double a, double b);

/// Maximum EDA-Sim of a notebook against the gold notebooks of `dataset`.
class GoldScorer {
 public:
  GoldScorer(const Dataset& dataset, const EnvConfig& config);
  /// Scores the first episode of `ops` replayed on a fresh environment.
  double Score(const std::vector<EdaOperation>& ops) const;
  double ScoreNotebook(const EdaNotebook& notebook) const;

 private:
  Dataset dataset_;
  EnvConfig config_;
  std::vector<std::vector<ViewSignature>> gold_;
};

/// Process high-water mark in MiB.
double PeakRssMb();
/// Filesystem type name of `path` (statfs magic), e.g. "tmpfs" or "ext4".
std::string FilesystemType(const std::string& path);

/// The workloads. Each fills `report` with the end-to-end metrics of an
/// untraced pass, or — with options.trace — with the per-layer metrics of
/// a traced pass over the same work plus the tracing overhead.
void RunTrain(const RunOptions& options, Report* report);
void RunServeCold(const RunOptions& options, Report* report);
void RunServeDurable(const RunOptions& options, Report* report);

/// Adds the display-cache counters of one or more caches: the hit rate over
/// all their lookups, total evictions, and mean resident MiB per cache.
void AddCacheMetrics(const std::vector<DisplayCacheStats>& caches,
                     Report* report);

}  // namespace perfbench
}  // namespace atena

#endif  // ATENA_PERFBENCH_BENCH_H_
