#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "dataframe/stats.h"
#include "eval/gold.h"
#include "eval/metrics.h"
#include "reward/diversity.h"
#include "reward/interestingness.h"

namespace atena {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

int64_t Samples::count() const {
  int64_t total = 0;
  for (const auto& [value, weight] : values_) total += weight;
  return total;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<std::pair<double, int64_t>> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const int64_t total = count();
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(total))));
  int64_t seen = 0;
  for (const auto& [value, weight] : sorted) {
    seen += weight;
    if (seen >= rank) return value;
  }
  return sorted.back().first;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::Metric(const std::string& name, double value) {
  Check(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = std::isfinite(value) ? value : 0.0;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Count(int64_t attempted, int64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  std::printf("ops %-28s attempted=%lld succeeded=%lld failed=%lld\n",
              what.c_str(), static_cast<long long>(attempted),
              static_cast<long long>(attempted - failed),
              static_cast<long long>(failed));
}

AtenaOptions TrainShape(uint64_t seed, int total_steps, int threads) {
  AtenaOptions options;
  options.env.episode_length = 12;
  options.env.num_term_bins = 8;
  options.env.seed = SubSeed(seed, 1);
  options.trainer.total_steps = total_steps;
  options.trainer.rollout_length = 192;
  options.trainer.seed = SubSeed(seed, 2);
  options.trainer.num_threads = threads;
  options.policy.hidden = {64, 64};
  options.policy.seed = SubSeed(seed, 3);
  options.num_actors = 4;
  return options;
}

double TimedReward::Compute(const RewardContext& context) {
  const int64_t start = NowNs();
  const double reward = inner_->Compute(context);
  counter_->Add(NowNs() - start);
  return reward;
}

std::shared_ptr<CompoundReward> CloneReward(const CompoundReward& reward) {
  return std::make_shared<CompoundReward>(reward.coherency(), reward.options());
}

std::vector<EdaEnvironment*> TrainingRig::env_ptrs() const {
  std::vector<EdaEnvironment*> out;
  for (const auto& env : envs) out.push_back(env.get());
  return out;
}

TrainingRig BuildTrainingRig(const Dataset& dataset,
                             const AtenaOptions& options,
                             BusyCounter* reward_counter) {
  TrainingRig rig;
  for (int e = 0; e < options.num_actors; ++e) {
    EnvConfig config = options.env;
    config.seed = options.env.seed + static_cast<uint64_t>(e);
    rig.envs.push_back(std::make_unique<EdaEnvironment>(dataset, config));
  }
  rig.reward = MakeStandardReward(rig.envs[0].get(), options.reward).value();
  for (size_t e = 0; e < rig.envs.size(); ++e) {
    std::shared_ptr<RewardSignal> signal =
        e == 0 ? std::shared_ptr<RewardSignal>(rig.reward)
               : CloneReward(*rig.reward);
    if (reward_counter != nullptr) {
      signal = std::make_shared<TimedReward>(std::move(signal), reward_counter);
    }
    rig.envs[e]->SetRewardSignal(signal.get());
    rig.signals.push_back(std::move(signal));
  }
  rig.policy = std::make_unique<TwofoldPolicy>(
      rig.envs[0]->observation_dim(), rig.envs[0]->action_space(),
      options.policy);
  return rig;
}

void PolicyTimes::Add(const PolicyTimes& other) {
  act_ns += other.act_ns;
  act_calls += other.act_calls;
  act_rows += other.act_rows;
  fwd_ns += other.fwd_ns;
  bwd_ns += other.bwd_ns;
  tick_gap_ns += other.tick_gap_ns;
  update_other_ns += other.update_other_ns;
  updates += other.updates;
}

std::vector<PolicyStep> ClockedPolicy::ActBatch(const Matrix& observations,
                                                Rng* rng) {
  const int64_t start = NowNs();
  if (in_rollout_) CloseTick(start);
  if (rng != nullptr) {
    // A sampled batched act opens a lockstep rollout tick; the greedy
    // bootstrap probe before an update does not.
    in_rollout_ = true;
    tick_start_ = start;
    tick_rows_ = observations.rows();
  }
  std::vector<PolicyStep> steps = inner_->ActBatch(observations, rng);
  if (traced_) {
    act_end_ = NowNs();
    times_.act_ns += act_end_ - start;
    ++times_.act_calls;
    times_.act_rows += observations.rows();
  }
  return steps;
}

void ClockedPolicy::CloseTick(int64_t now) {
  in_rollout_ = false;
  const double ms = NsToMs(now - tick_start_);
  ticks_.Add(ms, tick_rows_);
  if (traced_) times_.tick_gap_ns += now - act_end_;
  episode_ms_ += ms;
  if (++ticks_in_episode_ == episode_length_) {
    episodes_.Add(episode_ms_, tick_rows_);
    ticks_in_episode_ = 0;
    episode_ms_ = 0.0;
  }
}

BatchEvaluation ClockedPolicy::ForwardBatch(
    const Matrix& observations, const std::vector<ActionRecord>& actions) {
  const int64_t start = NowNs();
  if (in_rollout_) CloseTick(start);
  if (traced_ && update_start_ == 0) {
    update_start_ = start;
    update_nn_ns_ = 0;
  }
  BatchEvaluation evaluation = inner_->ForwardBatch(observations, actions);
  if (traced_) {
    const int64_t elapsed = NowNs() - start;
    times_.fwd_ns += elapsed;
    update_nn_ns_ += elapsed;
  }
  return evaluation;
}

void ClockedPolicy::BackwardBatch(const std::vector<SampleGrad>& grads) {
  const int64_t start = NowNs();
  inner_->BackwardBatch(grads);
  if (traced_) {
    const int64_t elapsed = NowNs() - start;
    times_.bwd_ns += elapsed;
    update_nn_ns_ += elapsed;
  }
}

void ClockedPolicy::OnUpdateDone() {
  ++times_.updates;
  if (!traced_ || update_start_ == 0) return;
  times_.update_other_ns += (NowNs() - update_start_) - update_nn_ns_;
  update_start_ = 0;
}

void ReplayProbe::Replay(const Dataset& dataset, const EnvConfig& config,
                         const std::vector<EdaOperation>& ops,
                         const std::shared_ptr<CompoundReward>& reward,
                         std::vector<ServedStep>* replayed) {
  EnvConfig env_config = config;
  env_config.display_cache_enabled = false;
  EdaEnvironment env(dataset, env_config);
  env.SetRewardSignal(reward.get());
  env.Reset();
  const Table& table = env.table();
  replayed->clear();
  for (const EdaOperation& op : ops) {
    if (env.done()) env.Reset();
    const Display parent = env.current_display();
    const int64_t start = NowNs();
    Result<StepOutcome> stepped = env.TryStepOperation(op);
    step_ms.Add(NsToMs(NowNs() - start));
    ++steps;
    if (!stepped.ok()) {
      replayed->push_back(ServedStep{});
      continue;
    }
    const StepOutcome& outcome = stepped.value();
    const Display& display = env.current_display();
    replayed->push_back(ServedStep{
        outcome.op, outcome.valid, outcome.reward,
        DisplayVectorKey(display, env_config.stats_row_cap)});

    int64_t t = NowNs();
    const std::vector<double> encoded = env.encoder().EncodeDisplay(display);
    encode_ns += NowNs() - t;

    t = NowNs();
    if (op.type == OpType::kFilter) {
      const auto rows = FilterRows(table, parent.rows.vec(), op.filter.column,
                                   op.filter.op, op.filter.term);
      (void)rows;
      rows_scanned += static_cast<int64_t>(parent.rows.size());
    } else if (op.type == OpType::kGroup && outcome.valid &&
               display.is_grouped()) {
      const auto grouped =
          GroupAggregate(table, parent.rows.vec(), display.MakeGroupSpec());
      (void)grouped;
      rows_scanned += static_cast<int64_t>(parent.rows.size());
    }
    op_ns += NowNs() - t;

    const RowSet capped = env.CappedRows(display);
    t = NowNs();
    for (int c = 0; c < table.num_columns(); ++c) {
      const ColumnStats stats = ComputeColumnStats(*table.column(c), capped);
      (void)stats;
    }
    column_stats_ns += NowNs() - t;
    t = NowNs();
    for (int c = 0; c < table.num_columns(); ++c) {
      const auto tokens = TokenFrequencies(*table.column(c), capped);
      (void)tokens;
    }
    token_freq_ns += NowNs() - t;
    rows_scanned += 2 * static_cast<int64_t>(capped.size()) * table.num_columns();

    if (outcome.valid) {
      RewardContext context;
      context.env = &env;
      context.op = &env.steps().back().op;
      context.valid = true;
      t = NowNs();
      const double interesting = OperationInterestingness(context);
      interestingness_ns += NowNs() - t;
      t = NowNs();
      const double diverse = DiversityReward(context);
      diversity_ns += NowNs() - t;
      t = NowNs();
      const double coherent = reward->coherency()->Score(context);
      coherency_ns += NowNs() - t;
      (void)interesting;
      (void)diverse;
      (void)coherent;
    }
  }
}

void ReplayProbe::AddMetrics(Report* report) const {
  const double n = std::max<int64_t>(1, steps);
  report->Metric("eda.step_ms_p50", step_ms.Percentile(50));
  report->Metric("eda.step_ms_p99", step_ms.Percentile(99));
  report->Metric("eda.encode_ms", NsToMs(encode_ns) / n);
  report->Metric("eda.replayed_steps", static_cast<double>(steps));
  report->Metric("dataframe.op_ms", NsToMs(op_ns) / n);
  report->Metric("dataframe.column_stats_ms", NsToMs(column_stats_ns) / n);
  report->Metric("dataframe.token_freq_ms", NsToMs(token_freq_ns) / n);
  report->Metric("dataframe.rows_scanned", static_cast<double>(rows_scanned) / n);
  report->Metric("reward.interestingness_ms", NsToMs(interestingness_ns) / n);
  report->Metric("reward.diversity_ms", NsToMs(diversity_ns) / n);
  report->Metric("coherency.score_ms", NsToMs(coherency_ns) / n);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

namespace {

bool SameOp(const EdaOperation& a, const EdaOperation& b) {
  if (a.type != b.type) return false;
  if (a.type == OpType::kFilter) {
    return a.filter.column == b.filter.column && a.filter.op == b.filter.op &&
           a.filter.term == b.filter.term &&
           a.filter.term_bin == b.filter.term_bin;
  }
  if (a.type == OpType::kGroup) {
    return a.group.group_column == b.group.group_column &&
           a.group.agg == b.group.agg &&
           a.group.agg_column == b.group.agg_column;
  }
  return true;
}

bool SameStep(const ServedStep& a, const ServedStep& b) {
  return SameOp(a.op, b.op) && a.valid == b.valid &&
         SameBits(a.reward, b.reward) &&
         a.display_signature == b.display_signature;
}

}  // namespace

bool SameSteps(const std::vector<ServedStep>& a,
               const std::vector<ServedStep>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameStep(a[i], b[i])) return false;
  }
  return true;
}

GoldScorer::GoldScorer(const Dataset& dataset, const EnvConfig& config)
    : dataset_(dataset), config_(config) {
  const std::vector<EdaNotebook> notebooks =
      GoldNotebooks(dataset, config).value();
  for (const EdaNotebook& notebook : notebooks) {
    gold_.push_back(NotebookSignatures(notebook));
  }
}

double GoldScorer::Score(const std::vector<EdaOperation>& ops) const {
  EdaEnvironment env(dataset_, config_);
  return ScoreNotebook(ReplayOperations(&env, ops, "served"));
}

double GoldScorer::ScoreNotebook(const EdaNotebook& notebook) const {
  return MaxEdaSim(NotebookSignatures(notebook), gold_);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof usage);
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%llx",
                    static_cast<unsigned long long>(info.f_type));
      return hex;
    }
  }
}

void AddCacheMetrics(const std::vector<DisplayCacheStats>& caches,
                     Report* report) {
  DisplayCacheStats total;
  for (const DisplayCacheStats& s : caches) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.resident_bytes += s.resident_bytes;
  }
  report->Metric("eda.cache_hit_rate", total.hit_rate());
  report->Metric("eda.cache_evictions", static_cast<double>(total.evictions));
  report->Metric("eda.cache_resident_mb",
                 static_cast<double>(total.resident_bytes) / (1024.0 * 1024.0) /
                     static_cast<double>(std::max<size_t>(1, caches.size())));
}

}  // namespace perfbench
}  // namespace atena
