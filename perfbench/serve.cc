// The serving workloads. Both are closed loops: a retired session is
// replaced before the next tick, so each analyst waits for their notebook
// before opening the next.
//
//   serve_cold     fresh policies, 64 sessions, all 8 registry datasets in
//                  turn, no journal: display statistics dominate.
//   serve_durable  a policy trained during set-up, 256 sessions on
//                  flights4, write-ahead journal + NotebookStore with one
//                  top-k query per delivered notebook.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "data/registry.h"
#include "nn/serialization.h"
#include "rl/parallel_trainer.h"
#include "serve/snapshot.h"

namespace atena {
namespace perfbench {
namespace {

constexpr int kSessionSteps = 24;
constexpr int kColdConcurrency = 64;
/// Sessions served per dataset per round of serve_cold, and rounds (all 8
/// datasets, about 6.5 s on a 4-CPU Xeon) per second of --seconds.
constexpr int kColdSessionsPerDataset = 128;
constexpr double kColdRoundsPerSecond = 0.15;
constexpr int kDurableConcurrency = 256;
/// serve_durable rounds per second of --seconds. A round is a fresh
/// runtime warmed up for kDurableWarmupTicks unmeasured ticks, then measured
/// for kDurableRoundTicks (about 2.5 s in all on a 4-CPU Xeon).
constexpr double kDurableRoundsPerSecond = 0.4;
constexpr int64_t kDurableWarmupTicks = 2 * kSessionSteps;
constexpr int64_t kDurableRoundTicks = 110;
/// Training budget of serve_durable's snapshot (16 updates).
constexpr int kSnapshotTrainSteps = 3072;
/// The served policies are part of the system under test, not of the
/// workload: their seeds are fixed, and --seed drives the sessions. (Seeded
/// from --seed, policies differ so much that throughput and rewards spread
/// far beyond the benchmark's bounds across seeds.)
constexpr uint64_t kPolicySeed = 20200614;
/// Every k-th delivered session is re-served serially and compared bit for
/// bit, scored against the gold notebooks, and replayed by the probe.
constexpr int kSampleEvery = 32;
constexpr int kQueryTopK = 5;
constexpr int kSetupRepeats = 3;
constexpr int kActProbeRepeats = 25;

SnapshotOptions ServeSnapshotOptions(uint64_t policy_seed) {
  SnapshotOptions options;
  options.env.episode_length = 12;
  options.env.num_term_bins = 8;
  options.policy.hidden = {64, 64};
  options.policy.seed = policy_seed;
  return options;
}

std::function<std::shared_ptr<RewardSignal>()> RewardFactory(
    std::shared_ptr<CompoundReward> reward, BusyCounter* counter) {
  return [reward, counter]() -> std::shared_ptr<RewardSignal> {
    std::shared_ptr<RewardSignal> signal = CloneReward(*reward);
    if (counter != nullptr) {
      signal = std::make_shared<TimedReward>(std::move(signal), counter);
    }
    return signal;
  };
}

/// Live sessions wanted before tick `tick`: the serving workloads reach
/// full concurrency over one session length, so sessions retire (and are
/// replaced, and journal barriers fall) evenly across ticks instead of in
/// lockstep waves.
int RampTarget(int64_t tick, int concurrency) {
  return static_cast<int>(std::min<int64_t>(
      concurrency, (tick + 1) * concurrency / kSessionSteps));
}

/// Everything one dataset's serving needs besides the manager.
struct DatasetServing {
  Dataset dataset;
  std::shared_ptr<const PolicySnapshot> snapshot;
  std::shared_ptr<CompoundReward> reward;
};

/// Builds the calibrated compound reward for `dataset` (coherency
/// classifier training + weight calibration).
std::shared_ptr<CompoundReward> BuildReward(const Dataset& dataset,
                                            const EnvConfig& config) {
  EdaEnvironment env(dataset, config);
  return MakeStandardReward(&env, CompoundReward::Options()).value();
}

std::vector<EdaOperation> TraceOps(const SessionTrace& trace) {
  std::vector<EdaOperation> ops;
  for (const ServedStep& step : trace.steps) ops.push_back(step.op);
  return ops;
}

/// A delivered session kept for the post-run checks.
struct Sampled {
  SessionConfig config;
  SessionTrace trace;
  size_t dataset = 0;
};

/// Measurements of one closed-loop serving pass.
struct LoopStats {
  int64_t steps = 0;
  int64_t ticks = 0;
  int64_t valid_steps = 0;
  int64_t refused = 0;
  int64_t failed = 0;
  /// Every delivered session, and the measured ones among them.
  int64_t sessions = 0;
  int64_t delivered = 0;
  double seconds = 0.0;
  Samples step_ms;      // tick duration, weighted by the steps it executed
  Samples notebook_ms;  // Admit -> delivery by TakeCompleted
  /// The same per dataset (serve_cold).
  std::vector<Samples> dataset_step_ms, dataset_notebook_ms;
  Samples tick_ms, admit_ms, deliver_ms, query_ms;
  int64_t query_failures = 0;
  /// Order-sensitive hash of every delivery (id, steps, total reward bits);
  /// equal across two passes over the same work.
  uint64_t fingerprint = 0;
  double reward_sum = 0.0;
  std::vector<Sampled> sampled;
  std::vector<int64_t> ticks_per_dataset;
  std::vector<DisplayCacheStats> caches;
};

/// Drives one SessionManager in a closed loop. Sessions are numbered in
/// admission order; session i's seed is SubSeed(seed_base, i). Ticks and
/// sessions admitted while measuring is off (a warm-up) are served and
/// checked like the rest but enter no metric.
class ClosedLoop {
 public:
  ClosedLoop(SessionManager* manager, uint64_t seed_base, size_t dataset,
             LoopStats* stats)
      : manager_(manager), seed_base_(seed_base), dataset_(dataset),
        stats_(stats) {}

  void set_measuring(bool measuring) { measuring_ = measuring; }

  /// Admits sessions until `target` are live or `limit` were admitted.
  void FillTo(int target, int64_t limit) {
    while (manager_->active_sessions() < target && next_index_ < limit) {
      SessionConfig config;
      config.seed = SubSeed(seed_base_, static_cast<uint64_t>(next_index_));
      config.max_steps = kSessionSteps;
      const int64_t start = NowNs();
      Result<uint64_t> id = manager_->Admit(config);
      const int64_t end = NowNs();
      if (measuring_) stats_->admit_ms.Add(NsToMs(end - start));
      ++next_index_;
      if (!id.ok()) {
        ++stats_->refused;
        ++stats_->failed;
        return;
      }
      inflight_[id.value()] = Inflight{start, config, measuring_};
    }
  }

  /// One tick plus delivery; `store` enables the per-notebook retrieval
  /// query.
  void TickAndDeliver(const NotebookStore* store) {
    const int64_t start = NowNs();
    const int steps = manager_->Tick();
    const int64_t tick_end = NowNs();
    const double tick_ms = NsToMs(tick_end - start);
    if (measuring_) {
      stats_->tick_ms.Add(tick_ms);
      stats_->step_ms.Add(tick_ms, steps);
      stats_->dataset_step_ms[dataset_].Add(tick_ms, steps);
      stats_->steps += steps;
      ++stats_->ticks;
    }
    if (store != nullptr) IndexNewNotebooks(*store);

    std::vector<SessionOutcome> outcomes = manager_->TakeCompleted();
    const int64_t delivered_at = NowNs();
    if (measuring_ && !outcomes.empty()) {
      stats_->deliver_ms.Add(NsToMs(delivered_at - tick_end));
    }
    for (SessionOutcome& outcome : outcomes) {
      const auto it = inflight_.find(outcome.trace.id);
      if (it == inflight_.end()) continue;
      const Inflight session = it->second;
      inflight_.erase(it);
      const bool ok = outcome.reason == RetireReason::kCompleted &&
                      outcome.status.ok();
      if (!ok) ++stats_->failed;
      ++stats_->sessions;
      const uint64_t id = outcome.trace.id;
      uint64_t reward_bits = 0;
      std::memcpy(&reward_bits, &outcome.trace.total_reward, sizeof reward_bits);
      stats_->fingerprint = SubSeed(stats_->fingerprint ^ reward_bits,
                                    id * 131 + outcome.trace.steps.size());
      if (session.measured) {
        const double notebook_ms = NsToMs(delivered_at - session.admit_ns);
        stats_->notebook_ms.Add(notebook_ms);
        stats_->dataset_notebook_ms[dataset_].Add(notebook_ms);
        for (const ServedStep& step : outcome.trace.steps) {
          stats_->valid_steps += step.valid ? 1 : 0;
        }
        stats_->reward_sum += outcome.trace.total_reward;
        if (stats_->delivered % kSampleEvery == 0) {
          stats_->sampled.push_back(
              Sampled{session.config, std::move(outcome.trace), dataset_});
        }
        ++stats_->delivered;
      }
      if (store != nullptr) Query(id);
    }
  }

  /// Configs of the sessions still live, by id.
  std::unordered_map<uint64_t, SessionConfig> LiveConfigs() const {
    std::unordered_map<uint64_t, SessionConfig> live;
    for (const auto& [id, session] : inflight_) live[id] = session.config;
    return live;
  }

 private:
  struct Inflight {
    int64_t admit_ns = 0;
    SessionConfig config;
    bool measured = true;
  };

  void IndexNewNotebooks(const NotebookStore& store) {
    for (; indexed_ < store.size(); ++indexed_) {
      latest_notebook_[store.entry(indexed_).session_id] = indexed_;
    }
  }

  /// The analyst's retrieval on delivery: the notebooks most similar to
  /// the one just delivered. The store holds the notebook itself, so the
  /// nearest match must be at distance 0.
  void Query(uint64_t session_id) {
    const auto it = latest_notebook_.find(session_id);
    if (it == latest_notebook_.end()) {
      ++stats_->query_failures;
      return;
    }
    const NotebookStore& store = *manager_->notebook_store();
    const std::vector<std::vector<double>> sequence = store.sequence(it->second);
    latest_notebook_.erase(it);
    const int64_t start = NowNs();
    const std::vector<NotebookStore::Match> matches =
        manager_->QuerySimilarNotebooks(sequence, kQueryTopK);
    if (measuring_) stats_->query_ms.Add(NsToMs(NowNs() - start));
    if (matches.empty() || matches.front().distance != 0.0) {
      ++stats_->query_failures;
    }
  }

  SessionManager* manager_;
  uint64_t seed_base_;
  size_t dataset_;
  LoopStats* stats_;
  int64_t next_index_ = 0;
  bool measuring_ = true;
  std::unordered_map<uint64_t, Inflight> inflight_;
  size_t indexed_ = 0;
  std::unordered_map<uint64_t, uint64_t> latest_notebook_;
};

/// Median wall time of ActBatch on the policy of `serving` at `rows` reset
/// observations with per-row Rng streams — the serving act shape.
double ActProbeMs(const DatasetServing& serving, int rows) {
  EdaEnvironment env(serving.dataset, serving.snapshot->options().env);
  const std::vector<double> reset = env.Reset();
  Matrix observations(rows, static_cast<int>(reset.size()));
  std::vector<Rng> streams;
  for (int r = 0; r < rows; ++r) {
    std::copy(reset.begin(), reset.end(), observations.RowPtr(r));
    streams.emplace_back(static_cast<uint64_t>(r) + 1);
  }
  std::vector<Rng*> rngs;
  for (Rng& stream : streams) rngs.push_back(&stream);
  std::vector<double> times;
  for (int rep = 0; rep < kActProbeRepeats; ++rep) {
    const int64_t start = NowNs();
    const auto steps = serving.snapshot->policy()->ActBatch(observations, rngs);
    times.push_back(NsToMs(NowNs() - start));
    (void)steps;
  }
  return Median(times);
}

/// Re-serves each sampled session serially and compares it bit for bit.
void CheckSampledSessions(const std::vector<DatasetServing>& servings,
                          const std::vector<Sampled>& sampled,
                          Report* report) {
  int mismatches = 0;
  for (const Sampled& s : sampled) {
    const DatasetServing& serving = servings[s.dataset];
    auto reward = RewardFactory(serving.reward, nullptr)();
    const SessionTrace serial =
        ServeSingleSessionSerial(*serving.snapshot, s.config, reward.get());
    const bool same = SameBits(serial.total_reward, s.trace.total_reward) &&
                      SameSteps(serial.steps, s.trace.steps);
    mismatches += same ? 0 : 1;
  }
  report->Check(!sampled.empty() && mismatches == 0,
                std::to_string(sampled.size()) +
                    " sampled sessions equal ServeSingleSessionSerial (" +
                    std::to_string(mismatches) + " mismatches)");
}

double MeanEdaSim(const std::vector<GoldScorer>& gold,
                  const std::vector<Sampled>& sampled) {
  double sum = 0.0;
  for (const Sampled& s : sampled) sum += gold[s.dataset].Score(TraceOps(s.trace));
  return sampled.empty() ? 0.0 : sum / static_cast<double>(sampled.size());
}

/// Replays the sampled traces through the probe and checks that every
/// replayed step reproduces the recorded one.
void ReplaySampled(const std::vector<DatasetServing>& servings,
                   const std::vector<Sampled>& sampled, ReplayProbe* probe,
                   Report* report) {
  int mismatches = 0;
  for (const Sampled& s : sampled) {
    const DatasetServing& serving = servings[s.dataset];
    std::vector<ServedStep> replayed;
    probe->Replay(serving.dataset, serving.snapshot->options().env,
                  TraceOps(s.trace), CloneReward(*serving.reward), &replayed);
    mismatches += SameSteps(replayed, s.trace.steps) ? 0 : 1;
  }
  report->Check(mismatches == 0,
                "replayed display signatures and rewards equal the trace (" +
                    std::to_string(mismatches) + " mismatches)");
}

/// The geometric mean of the medians of `per_dataset` (the median itself
/// for a single dataset).
double GeometricMeanOfMedians(const std::vector<Samples>& per_dataset) {
  if (per_dataset.size() == 1) return per_dataset[0].Percentile(50);
  double log_sum = 0.0;
  for (const Samples& samples : per_dataset) {
    log_sum += std::log(samples.Percentile(50));
  }
  return std::exp(log_sum / static_cast<double>(per_dataset.size()));
}

void AddEndToEnd(const LoopStats& loop, const std::vector<double>& setups,
                 double eda_sim, Report* report) {
  report->Metric("steps_per_s", static_cast<double>(loop.steps) / loop.seconds);
  // Over several datasets the latencies cluster by dataset, and a pooled
  // median jumps between the two middle clusters from run to run. The p50s
  // are therefore the geometric mean of the per-dataset medians. The pooled
  // p99 lies inside the slowest dataset's cluster.
  report->Metric("step_p50_ms", GeometricMeanOfMedians(loop.dataset_step_ms));
  report->Metric("step_p99_ms", loop.step_ms.Percentile(99));
  report->Metric("notebook_p50_ms",
                 GeometricMeanOfMedians(loop.dataset_notebook_ms));
  report->Metric("notebook_p99_ms", loop.notebook_ms.Percentile(99));
  report->Metric("setup_s", Median(setups));
  report->Metric("reward_mean",
                 loop.reward_sum /
                     static_cast<double>(std::max<int64_t>(1, loop.delivered)));
  report->Metric("notebook_eda_sim", eda_sim);
}

/// Per-layer metrics shared by both serving workloads. `act_probe_ms` is
/// the per-call ActBatch time at the workload's batch shape, weighted per
/// dataset by that dataset's ticks.
void AddServeLayers(const LoopStats& loop, double act_ms_total,
                    const BusyCounter& reward_counter, double untraced_steps_per_s,
                    Report* report) {
  const double ksteps = static_cast<double>(loop.steps) / 1000.0;
  report->Metric("nn.act_ms", act_ms_total / ksteps);
  report->Metric("nn.act_calls", static_cast<double>(loop.ticks));
  report->Metric("nn.act_rows_per_call",
                 static_cast<double>(loop.steps) / static_cast<double>(loop.ticks));
  report->Metric("reward.compute_ms", NsToMs(reward_counter.ns.load()) / ksteps);
  report->Metric("reward.compute_calls",
                 static_cast<double>(reward_counter.calls.load()));
  report->Metric("eda.valid_step_frac",
                 static_cast<double>(loop.valid_steps) /
                     static_cast<double>(loop.steps));
  AddCacheMetrics(loop.caches, report);
  report->Metric("serve.tick_ms_p50", loop.tick_ms.Percentile(50));
  report->Metric("serve.tick_ms_p99", loop.tick_ms.Percentile(99));
  report->Metric("serve.admit_ms_p50", loop.admit_ms.Percentile(50));
  report->Metric("serve.admit_ms_p99", loop.admit_ms.Percentile(99));
  report->Metric("serve.deliver_ms_p50", loop.deliver_ms.Percentile(50));
  report->Metric("serve.deliver_ms_p99", loop.deliver_ms.Percentile(99));
  report->Metric("index.query_ms_p50", loop.query_ms.Percentile(50));
  report->Metric("index.query_ms_p99", loop.query_ms.Percentile(99));
  const double traced = static_cast<double>(loop.steps) / loop.seconds;
  report->Metric("trace_overhead_pct", (untraced_steps_per_s / traced - 1.0) * 100.0);
}

void AddJournalLayers(const ServeStats& stats, double recover_ms,
                      int64_t store_size, Report* report) {
  report->Metric("serve.journal_appends", static_cast<double>(stats.journal_appends));
  report->Metric("serve.journal_syncs", static_cast<double>(stats.journal_syncs));
  report->Metric("serve.journal_bytes", static_cast<double>(stats.journal_bytes));
  report->Metric("serve.journal_compactions",
                 static_cast<double>(stats.journal_compactions));
  report->Metric("serve.journal_syncs_per_append",
                 stats.journal_appends == 0
                     ? 0.0
                     : static_cast<double>(stats.journal_syncs) /
                           static_cast<double>(stats.journal_appends));
  report->Metric("serve.recover_ms", recover_ms);
  report->Metric("index.store_size", static_cast<double>(store_size));
}

void PrintLoop(const char* label, const LoopStats& loop) {
  std::printf("%s: %lld steps in %.3fs (%.0f steps/s), %lld ticks, "
              "%lld sessions delivered; samples: %lld steps, %lld notebooks\n",
              label, static_cast<long long>(loop.steps), loop.seconds,
              static_cast<double>(loop.steps) / loop.seconds,
              static_cast<long long>(loop.ticks),
              static_cast<long long>(loop.delivered),
              static_cast<long long>(loop.step_ms.count()),
              static_cast<long long>(loop.notebook_ms.count()));
}

// ---------------------------------------------------------------- cold ---

/// One serve_cold round: every dataset in turn, each on its own fresh
/// manager (and so a cold display cache) serving kColdSessionsPerDataset
/// sessions at kColdConcurrency.
void ColdRound(const std::vector<DatasetServing>& servings, uint64_t seed,
               uint64_t round, int threads, BusyCounter* reward_counter,
               LoopStats* loop) {
  for (size_t d = 0; d < servings.size(); ++d) {
    ServeOptions options;
    options.num_threads = threads;
    options.reward_factory = RewardFactory(servings[d].reward, reward_counter);
    SessionManager manager(servings[d].snapshot, options);
    ClosedLoop clients(&manager, SubSeed(seed, 1000 + round * 64 + d), d, loop);
    const int64_t steps_before = loop->steps;
    const int64_t ticks_before = loop->ticks;
    const int64_t start = NowNs();
    for (int64_t tick = 0;; ++tick) {
      clients.FillTo(RampTarget(tick, kColdConcurrency),
                     kColdSessionsPerDataset);
      if (manager.active_sessions() == 0) break;
      clients.TickAndDeliver(nullptr);
    }
    const double seconds = NsToMs(NowNs() - start) * 1e-3;
    loop->seconds += seconds;
    loop->ticks_per_dataset[d] += loop->ticks - ticks_before;
    const DisplayCacheStats cache = manager.display_cache()->stats();
    loop->caches.push_back(cache);
    const int64_t steps = loop->steps - steps_before;
    std::printf("  round %llu %-9s %6d rows %6lld steps %.3fs %8.0f steps/s "
                "hit_rate %.3f\n",
                static_cast<unsigned long long>(round),
                servings[d].dataset.info.id.c_str(),
                static_cast<int>(servings[d].dataset.table->num_rows()),
                static_cast<long long>(steps), seconds,
                static_cast<double>(steps) / seconds, cache.hit_rate());
  }
}

}  // namespace

void RunServeCold(const RunOptions& run, Report* report) {
  const std::vector<std::string> ids = ExperimentalDatasetIds();
  std::vector<DatasetServing> servings;
  std::vector<double> setups;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    servings.clear();
    const int64_t start = NowNs();
    for (size_t d = 0; d < ids.size(); ++d) {
      DatasetServing serving;
      serving.dataset = MakeDataset(ids[d]).value();
      const SnapshotOptions snapshot_options =
          ServeSnapshotOptions(SubSeed(kPolicySeed, d));
      serving.snapshot = std::make_shared<const PolicySnapshot>(
          serving.dataset, snapshot_options);
      serving.reward = BuildReward(serving.dataset, snapshot_options.env);
      ServeOptions options;
      options.num_threads = run.threads;
      options.reward_factory = RewardFactory(serving.reward, nullptr);
      // Manager construction belongs to set-up; every round then builds
      // its own managers, one per dataset.
      SessionManager manager(serving.snapshot, options);
      servings.push_back(std::move(serving));
    }
    setups.push_back(NsToMs(NowNs() - start) * 1e-3);
  }
  std::vector<GoldScorer> gold;
  for (const DatasetServing& serving : servings) {
    gold.emplace_back(serving.dataset, serving.snapshot->options().env);
  }

  const uint64_t rounds = static_cast<uint64_t>(
      std::max(1L, std::lround(run.seconds * kColdRoundsPerSecond)));
  auto pass = [&](BusyCounter* counter) {
    LoopStats loop;
    loop.ticks_per_dataset.assign(servings.size(), 0);
    loop.dataset_step_ms.resize(servings.size());
    loop.dataset_notebook_ms.resize(servings.size());
    for (uint64_t round = 0; round < rounds; ++round) {
      ColdRound(servings, run.seed, round, run.threads, counter, &loop);
    }
    return loop;
  };

  const LoopStats untraced = pass(nullptr);
  PrintLoop("serve_cold", untraced);
  report->Count(untraced.sessions + untraced.refused, untraced.failed,
                "sessions delivered");
  CheckSampledSessions(servings, untraced.sampled, report);
  if (!run.trace) {
    AddEndToEnd(untraced, setups, MeanEdaSim(gold, untraced.sampled), report);
    return;
  }

  BusyCounter reward_counter;
  const LoopStats traced = pass(&reward_counter);
  PrintLoop("serve_cold traced", traced);
  report->Check(traced.fingerprint == untraced.fingerprint,
                "traced pass delivers the same sessions as the untraced pass");
  double act_ms_total = 0.0;
  for (size_t d = 0; d < servings.size(); ++d) {
    act_ms_total += ActProbeMs(servings[d], kColdConcurrency) *
                    static_cast<double>(traced.ticks_per_dataset[d]);
  }
  AddServeLayers(traced, act_ms_total, reward_counter,
                 static_cast<double>(untraced.steps) / untraced.seconds, report);
  ReplayProbe probe;
  ReplaySampled(servings, traced.sampled, &probe, report);
  probe.AddMetrics(report);
}

// ------------------------------------------------------------- durable ---

namespace {

struct DurableServing {
  DatasetServing serving;
  std::string snapshot_bytes;
};

/// serve_durable's set-up: dataset, calibrated reward, a policy trained
/// with the train shape at a short budget, written out and loaded back as
/// a serving snapshot.
DurableServing BuildDurable(const RunOptions& run, const std::string& path) {
  DurableServing out;
  DatasetServing& serving = out.serving;
  serving.dataset = MakeDataset("flights4").value();
  const AtenaOptions options =
      TrainShape(kPolicySeed, kSnapshotTrainSteps, run.threads);
  TrainingRig rig = BuildTrainingRig(serving.dataset, options, nullptr);
  serving.reward = rig.reward;
  ParallelPpoTrainer(rig.env_ptrs(), rig.policy.get(), options.trainer).Train();
  const Status saved = SaveParameters(rig.policy->Parameters(), path);
  if (!saved.ok()) return out;
  SnapshotOptions snapshot_options;
  snapshot_options.env = options.env;
  snapshot_options.policy = options.policy;
  auto loaded = LoadPolicySnapshot(serving.dataset, snapshot_options, path);
  if (!loaded.ok()) return out;
  serving.snapshot = std::move(loaded).value();
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  out.snapshot_bytes = bytes.str();
  return out;
}

ServeOptions DurableOptions(const DatasetServing& serving, int threads,
                            const std::string& journal_path,
                            BusyCounter* reward_counter) {
  ServeOptions options;
  options.num_threads = threads;
  options.reward_factory = RewardFactory(serving.reward, reward_counter);
  options.journal_path = journal_path;
  // Compact about every 0.5 s (several times per measured window). At the
  // defaults (1 MiB floor, 8x the snapshot) a window held zero to two
  // compactions, and step_p99_ms flipped between ordinary and compacting
  // ticks from run to run.
  options.journal_compact_bytes = 256 << 10;
  options.journal_compact_snap_factor = 2;
  options.notebook_store = std::make_shared<NotebookStore>();
  return options;
}

/// Recovers the journal into a fresh manager, drains it, and compares a
/// sample of the recovered sessions with the serial reference. Returns the
/// recovery time in ms.
double CheckRecovery(const DatasetServing& serving, int threads,
                     const std::string& journal_path,
                     const std::unordered_map<uint64_t, SessionConfig>& live,
                     Report* report) {
  SessionManager recovered(serving.snapshot,
                           DurableOptions(serving, threads, journal_path, nullptr));
  SessionManager::RecoveryInfo info;
  const int64_t start = NowNs();
  const Status status = recovered.RecoverFromJournal(journal_path, &info);
  const double recover_ms = NsToMs(NowNs() - start);
  report->Check(status.ok() && info.sessions_restored ==
                                   static_cast<int>(live.size()),
                "journal recovers every live session (" +
                    std::to_string(info.sessions_restored) + " of " +
                    std::to_string(live.size()) + "): " + status.ToString());
  if (!status.ok()) return recover_ms;
  recovered.Drain();
  std::vector<Sampled> sampled;
  for (SessionOutcome& outcome : recovered.TakeCompleted()) {
    const auto it = live.find(outcome.trace.id);
    if (it != live.end() && outcome.trace.id % 8 == 0) {
      sampled.push_back(Sampled{it->second, std::move(outcome.trace), 0});
    }
  }
  CheckSampledSessions({serving}, sampled, report);
  report->Check(recovered.stats().journal_failures == 0,
                "recovered manager journals without failures");
  return recover_ms;
}

/// Journal and store totals of a serve_durable pass.
struct DurableTotals {
  ServeStats journal;
  int64_t store_size = 0;
  double recover_ms = 0.0;
};

/// Serves `rounds` rounds. Each round is a fresh runtime — manager,
/// journal and store — that ramps up to kDurableConcurrency sessions, warms
/// its display cache for kDurableWarmupTicks unmeasured ticks, and is then
/// measured for kDurableRoundTicks ticks. (In one long-lived runtime the
/// store grows without bound and each compaction rewrites all of it, so
/// the notebook tail would track how long the run lasted.) After the last
/// round, its journal is recovered into another fresh manager and checked.
DurableTotals DurablePass(const DatasetServing& serving, const RunOptions& run,
                          int64_t rounds, BusyCounter* reward_counter,
                          LoopStats* loop, Report* report) {
  loop->dataset_step_ms.resize(1);
  loop->dataset_notebook_ms.resize(1);
  const std::string journal_dir = run.workdir + "/journal";
  const std::string journal_path = journal_dir + "/serve.jnl";
  DurableTotals totals;
  for (int64_t round = 0; round < rounds; ++round) {
    std::filesystem::remove_all(journal_dir);
    std::filesystem::create_directories(journal_dir);
    SessionManager manager(
        serving.snapshot,
        DurableOptions(serving, run.threads, journal_path, reward_counter));
    ClosedLoop clients(&manager, SubSeed(run.seed, 2000 + round), 0, loop);
    const NotebookStore* store = manager.notebook_store().get();
    int64_t start = 0;
    for (int64_t tick = 0; tick < kDurableWarmupTicks + kDurableRoundTicks;
         ++tick) {
      if (tick == kDurableWarmupTicks) {
        clients.set_measuring(true);
        start = NowNs();
      } else if (tick == 0) {
        clients.set_measuring(false);
      }
      clients.FillTo(RampTarget(tick, kDurableConcurrency), INT64_MAX);
      clients.TickAndDeliver(store);
    }
    loop->seconds += NsToMs(NowNs() - start) * 1e-3;
    loop->caches.push_back(manager.display_cache()->stats());
    const ServeStats& stats = manager.stats();
    totals.journal.journal_appends += stats.journal_appends;
    totals.journal.journal_syncs += stats.journal_syncs;
    totals.journal.journal_bytes += stats.journal_bytes;
    totals.journal.journal_compactions += stats.journal_compactions;
    totals.journal.journal_failures += stats.journal_failures;
    totals.store_size += static_cast<int64_t>(store->size());
    if (round + 1 == rounds) {
      totals.recover_ms = CheckRecovery(serving, run.threads, journal_path,
                                        clients.LiveConfigs(), report);
    }
  }
  totals.store_size /= std::max<int64_t>(1, rounds);
  std::printf("journal: %lld appends, %lld syncs, %lld bytes, %lld "
              "compactions, %lld failures; store %lld notebooks per round\n",
              static_cast<long long>(totals.journal.journal_appends),
              static_cast<long long>(totals.journal.journal_syncs),
              static_cast<long long>(totals.journal.journal_bytes),
              static_cast<long long>(totals.journal.journal_compactions),
              static_cast<long long>(totals.journal.journal_failures),
              static_cast<long long>(totals.store_size));
  return totals;
}

}  // namespace

void RunServeDurable(const RunOptions& run, Report* report) {
  std::vector<double> setups;
  DurableServing durable;
  std::string first_bytes;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const int64_t start = NowNs();
    durable = BuildDurable(
        run, run.workdir + "/snapshot" + std::to_string(repeat) + ".nn");
    if (durable.serving.snapshot == nullptr) break;
    {
      const std::string journal_path = run.workdir + "/setup.jnl";
      SessionManager manager(durable.serving.snapshot,
                             DurableOptions(durable.serving, run.threads,
                                            journal_path, nullptr));
    }
    setups.push_back(NsToMs(NowNs() - start) * 1e-3);
    if (repeat == 0) first_bytes = durable.snapshot_bytes;
    report->Check(durable.snapshot_bytes == first_bytes,
                  "snapshot training is deterministic across set-ups");
  }
  report->Check(durable.serving.snapshot != nullptr,
                "snapshot trains, saves and loads");
  if (durable.serving.snapshot == nullptr) return;
  const DatasetServing& serving = durable.serving;
  const GoldScorer gold(serving.dataset, serving.snapshot->options().env);
  const int64_t rounds = std::max(
      1L, std::lround(run.seconds * kDurableRoundsPerSecond));

  LoopStats untraced;
  const DurableTotals totals =
      DurablePass(serving, run, rounds, nullptr, &untraced, report);
  PrintLoop("serve_durable", untraced);
  report->Count(untraced.sessions + untraced.refused, untraced.failed,
                "sessions delivered");
  report->Count(totals.journal.journal_appends,
                totals.journal.journal_failures, "journal appends");
  report->Count(untraced.sessions, untraced.query_failures,
                "similarity queries");
  report->Check(untraced.query_failures == 0,
                "every delivered notebook retrieves itself at distance 0");
  CheckSampledSessions({serving}, untraced.sampled, report);
  if (!run.trace) {
    AddEndToEnd(untraced, setups, MeanEdaSim({gold}, untraced.sampled), report);
    return;
  }

  // Traced pass: the same rounds on fresh managers, journals and stores.
  BusyCounter reward_counter;
  LoopStats traced;
  const DurableTotals traced_totals =
      DurablePass(serving, run, rounds, &reward_counter, &traced, report);
  PrintLoop("serve_durable traced", traced);
  report->Check(traced.fingerprint == untraced.fingerprint,
                "traced pass delivers the same sessions as the untraced pass");
  report->Check(traced.query_failures == 0,
                "traced pass: every notebook retrieves itself");
  const double act_ms_total =
      ActProbeMs(serving, kDurableConcurrency) * static_cast<double>(traced.ticks);
  AddServeLayers(traced, act_ms_total, reward_counter,
                 static_cast<double>(untraced.steps) / untraced.seconds, report);
  AddJournalLayers(traced_totals.journal, traced_totals.recover_ms,
                   traced_totals.store_size, report);
  ReplayProbe probe;
  ReplaySampled({serving}, traced.sampled, &probe, report);
  probe.AddMetrics(report);
}

}  // namespace perfbench
}  // namespace atena
