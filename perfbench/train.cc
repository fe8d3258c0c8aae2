// The `train` workload: the paper's path (RunAtena on flights4), rebuilt
// from public pieces so Train() can be timed apart from set-up and the
// policy and reward signals can be decorated.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "data/registry.h"
#include "rl/parallel_trainer.h"

namespace atena {
namespace perfbench {
namespace {

constexpr const char* kDataset = "flights4";
/// Steps per training round: 24 updates of 192 steps (4 actors x 48 ticks).
constexpr int kTrainSteps = 4608;
/// Training rounds per second of --seconds (about 1 s each on a 4-CPU
/// Xeon). Each round trains from its own sub-seed of --seed; averaging the
/// quality metrics over a dozen rounds keeps them steady across seeds.
constexpr double kRoundsPerSecond = 1.2;

std::string Hex(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

/// Every output RunAtena hands back, rendered bit-exactly.
std::string Fingerprint(const TrainingResult& training,
                        const EdaNotebook& notebook, const Table& table) {
  std::string out = Hex(training.best_episode_reward) + " " +
                    Hex(training.final_mean_reward) + " " +
                    std::to_string(training.episodes) + "\n";
  for (const CurvePoint& point : training.curve) {
    out += std::to_string(point.step) + ":" + Hex(point.mean_episode_reward) + " ";
  }
  out += "\n";
  for (const EdaOperation& op : training.best_episode_ops) {
    out += op.Describe(table) + " bin=" + std::to_string(op.filter.term_bin) + "\n";
  }
  for (const NotebookEntry& entry : notebook.entries) {
    out += entry.description + " " + Hex(entry.reward) + " " +
           std::to_string(entry.display.rows.size()) + "\n";
  }
  return out;
}

/// A display cache configured as EdaEnvironment configures its own.
std::shared_ptr<DisplayCache> NewCache(const EnvConfig& config) {
  DisplayCache::Options options;
  options.capacity = config.display_cache_capacity;
  options.max_bytes = config.display_cache_max_bytes;
  options.shards = config.display_cache_shards;
  return std::make_shared<DisplayCache>(options);
}

struct Round {
  TrainingResult training;
  std::string fingerprint;
  double setup_s = 0.0;
  double train_s = 0.0;
  int64_t env_steps = 0;
  double eda_sim = 0.0;
  bool weights_finite = true;
  DisplayCacheStats cache;
  Samples ticks;
  Samples episodes;
  // Traced-only layer totals.
  PolicyTimes policy;
  int64_t reward_ns = 0, reward_calls = 0;
  bool replay_matches = true;
};

/// One RunAtena, rebuilt: the same environments, reward, policy and trainer
/// RunAtena builds, with the policy wrapped in `clocked` and — when traced —
/// every actor's reward signal wrapped in a TimedReward.
Round RunRound(const AtenaOptions& options, bool traced,
               const std::shared_ptr<DisplayCache>& cache,
               const GoldScorer& gold, ReplayProbe* probe) {
  Round round;
  const int64_t setup_start = NowNs();
  const Dataset dataset = MakeDataset(kDataset).value();
  BusyCounter reward_counter;
  TrainingRig rig =
      BuildTrainingRig(dataset, options, traced ? &reward_counter : nullptr);
  // The trainer hands the first actor's cache to every actor.
  rig.envs[0]->SetDisplayCache(cache);
  ClockedPolicy clocked(rig.policy.get(), traced, options.env.episode_length);
  ParallelPpoTrainer trainer(rig.env_ptrs(), &clocked, options.trainer);
  trainer.SetProgressCallback(
      [&clocked](const CurvePoint&) { clocked.OnUpdateDone(); });
  round.setup_s = NsToMs(NowNs() - setup_start) * 1e-3;

  const int64_t train_start = NowNs();
  round.training = trainer.Train();
  round.train_s = NsToMs(NowNs() - train_start) * 1e-3;
  round.env_steps = options.trainer.total_steps +
                    options.trainer.final_eval_episodes *
                        options.env.episode_length;
  round.ticks = clocked.ticks();
  round.episodes = clocked.episodes();
  round.policy = clocked.times();
  round.reward_ns = reward_counter.ns.load();
  round.reward_calls = reward_counter.calls.load();
  round.cache = cache->stats();

  const EdaNotebook notebook = ReplayOperations(
      rig.envs[0].get(), round.training.best_episode_ops, "ATENA");
  round.fingerprint = Fingerprint(round.training, notebook, *dataset.table);
  round.eda_sim = gold.ScoreNotebook(notebook);
  for (Parameter* p : rig.policy->Parameters()) {
    for (double v : p->value.data()) {
      round.weights_finite = round.weights_finite && std::isfinite(v);
    }
  }
  if (probe != nullptr) {
    std::vector<ServedStep> replayed;
    probe->Replay(dataset, options.env, round.training.best_episode_ops,
                  CloneReward(*rig.reward), &replayed);
    double total = 0.0;
    for (const ServedStep& step : replayed) total += step.reward;
    round.replay_matches =
        SameBits(total, round.training.best_episode_reward);
  }
  return round;
}

}  // namespace

void RunTrain(const RunOptions& run, Report* report) {
  const Dataset dataset = MakeDataset(kDataset).value();
  const GoldScorer gold(dataset, TrainShape(0, kTrainSteps, 1).env);

  // Reference: RunAtena itself on round 0's options. Round 0 of every pass
  // must reproduce it bit for bit.
  const AtenaOptions options0 =
      TrainShape(SubSeed(run.seed, 0), kTrainSteps, run.threads);
  const AtenaResult reference = RunAtena(dataset, options0).value();
  const std::string reference_fp =
      Fingerprint(reference.training, reference.notebook, *dataset.table);

  // Untraced pass. All rounds of a pass share one display cache, as
  // repeated trainings over one dataset in one process would; a hit is
  // bit-identical to a recompute, so outputs do not depend on it.
  const int num_rounds =
      std::max(1, static_cast<int>(std::lround(run.seconds * kRoundsPerSecond)));
  std::vector<Round> rounds;
  const std::shared_ptr<DisplayCache> cache = NewCache(options0.env);
  for (int i = 0; i < num_rounds; ++i) {
    const uint64_t r = rounds.size();
    rounds.push_back(RunRound(
        TrainShape(SubSeed(run.seed, r), kTrainSteps, run.threads), false,
        cache, gold, nullptr));
    const Round& round = rounds.back();
    std::printf("train round %llu: setup %.3fs train %.3fs %.0f steps/s "
                "final_mean_reward %.6f best %.6f eda_sim %.4f cumulative hit_rate %.3f\n",
                static_cast<unsigned long long>(r), round.setup_s,
                round.train_s, round.env_steps / round.train_s,
                round.training.final_mean_reward,
                round.training.best_episode_reward, round.eda_sim,
                round.cache.hit_rate());
  }
  report->Check(rounds[0].fingerprint == reference_fp,
                "train round 0 equals RunAtena bit for bit");

  int64_t failed = 0;
  int64_t steps = 0;
  double train_s = 0.0;
  Samples ticks, episodes;
  std::vector<double> setups;
  double reward_sum = 0.0, sim_sum = 0.0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    const bool ok = round.training.guard_status.ok() &&
                    !round.training.interrupted && round.weights_finite;
    failed += ok ? 0 : 1;
    report->Check(round.weights_finite, "final weights finite");
    steps += round.env_steps;
    train_s += round.train_s;
    setups.push_back(round.setup_s);
    ticks.Merge(round.ticks);
    episodes.Merge(round.episodes);
    reward_sum += round.training.final_mean_reward;
    sim_sum += round.eda_sim;
  }
  report->Count(static_cast<int64_t>(rounds.size()), failed, "training rounds");
  const double steps_per_s = static_cast<double>(steps) / train_s;
  std::printf("samples: %lld steps (tick latency), %lld notebooks\n",
              static_cast<long long>(ticks.count()),
              static_cast<long long>(episodes.count()));

  if (!run.trace) {
    report->Metric("steps_per_s", steps_per_s);
    report->Metric("step_p50_ms", ticks.Percentile(50));
    report->Metric("step_p99_ms", ticks.Percentile(99));
    report->Metric("notebook_p50_ms", episodes.Percentile(50));
    report->Metric("notebook_p99_ms", episodes.Percentile(99));
    report->Metric("setup_s", Median(setups));
    report->Metric("reward_mean", reward_sum / num_rounds);
    report->Metric("notebook_eda_sim", sim_sum / num_rounds);
    return;
  }

  // Traced pass over the same rounds: identical outputs, timed layers.
  ReplayProbe probe;
  PolicyTimes policy;
  int64_t reward_ns = 0, reward_calls = 0;
  int64_t traced_steps = 0;
  double traced_s = 0.0;
  const std::shared_ptr<DisplayCache> traced_cache = NewCache(options0.env);
  for (size_t r = 0; r < rounds.size(); ++r) {
    const Round round = RunRound(
        TrainShape(SubSeed(run.seed, r), kTrainSteps, run.threads), true,
        traced_cache, gold, &probe);
    report->Check(round.fingerprint == rounds[r].fingerprint,
                  "traced train round equals untraced round");
    report->Check(round.replay_matches,
                  "replayed best episode reproduces its reward");
    traced_steps += round.env_steps;
    traced_s += round.train_s;
    policy.Add(round.policy);
    reward_ns += round.reward_ns;
    reward_calls += round.reward_calls;
  }
  const double ksteps = static_cast<double>(traced_steps) / 1000.0;
  report->Metric("nn.act_ms", NsToMs(policy.act_ns) / ksteps);
  report->Metric("nn.act_calls", static_cast<double>(policy.act_calls));
  report->Metric("nn.act_rows_per_call",
                 static_cast<double>(policy.act_rows) /
                     static_cast<double>(std::max<int64_t>(1, policy.act_calls)));
  report->Metric("nn.update_fwd_ms", NsToMs(policy.fwd_ns) / ksteps);
  report->Metric("nn.update_bwd_ms", NsToMs(policy.bwd_ns) / ksteps);
  report->Metric("rl.rollout_tick_ms", NsToMs(policy.tick_gap_ns) / ksteps);
  report->Metric("rl.update_other_ms", NsToMs(policy.update_other_ns) / ksteps);
  report->Metric("rl.updates", static_cast<double>(policy.updates));
  report->Metric("reward.compute_ms", NsToMs(reward_ns) / ksteps);
  report->Metric("reward.compute_calls", static_cast<double>(reward_calls));
  // The environment calls the reward signal for valid steps only.
  report->Metric("eda.valid_step_frac",
                 static_cast<double>(reward_calls) /
                     static_cast<double>(traced_steps));
  probe.AddMetrics(report);
  AddCacheMetrics({traced_cache->stats()}, report);
  const double traced_steps_per_s = static_cast<double>(traced_steps) / traced_s;
  report->Metric("trace_overhead_pct",
                 (steps_per_s / traced_steps_per_s - 1.0) * 100.0);
}

}  // namespace perfbench
}  // namespace atena
