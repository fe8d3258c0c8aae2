// Multi-session policy-serving demo (src/serve/): one immutable policy
// snapshot shared by N concurrent EDA sessions, stepped in lockstep ticks
// with one batched forward per tick (DESIGN.md §11), each session wrapped
// in its own fault domain (DESIGN.md §13).
//
//   ./serve_sessions [--sessions N] [--threads T] [--ckpt PATH]
//                    [--dataset ID] [--steps S] [--greedy]
//                    [--max-sessions M] [--step-deadline-ms D]
//                    [--reload K] [--health-log PATH]
//
//   --sessions N         concurrent sessions to keep admitted (default 16)
//   --threads T          environment-stepping worker threads (default: cores)
//   --ckpt PATH          trained weights: a bare ATENA-NN parameter file or
//                        a full ATENA-CKPT training checkpoint. Without it,
//                        the demo serves a freshly initialized policy.
//   --dataset ID         registry dataset to explore (default flights4)
//   --steps S            environment steps per session (default 24 — two
//                        episodes at the default episode length of 12)
//   --total M            total sessions to serve before exiting (default
//                        4 x sessions; 0 = keep serving until Ctrl-C)
//   --greedy             argmax acting instead of Boltzmann sampling
//   --max-sessions M     admission cap: Admit refuses (load shed) instead
//                        of letting tick latency collapse (0 = uncapped)
//   --step-deadline-ms D per-step deadline; overrunning sessions degrade
//                        in stages and are retired past the last stage
//   --reload K           re-validate and hot-swap --ckpt every K completed
//                        sessions; a corrupt file keeps the last-good
//                        snapshot and serving continues (0 = never)
//   --health-log PATH    JSONL fault-domain event log (quarantines, sheds,
//                        degradations, reloads), one durable append per event
//   --journal PATH       write-ahead session journal (DESIGN.md §15). When
//                        the file (or its .prev) already exists the runtime
//                        first recovers from it — every restored session
//                        resumes mid-trace, bit-identical to an
//                        uninterrupted run — then keeps journaling. Try it:
//                        kill -9 the process mid-run and start it again.
//
// SIGINT (Ctrl-C) triggers a graceful drain: no new sessions are admitted,
// in-flight sessions finish their remaining steps, then the runtime
// reports totals and exits. A second SIGINT hard-stops: every live session
// is retired immediately with its partial notebook flagged — journaled, so
// a restart recovers a cleanly stopped runtime. A third exits without
// cleanup.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/file_io.h"
#include "data/registry.h"
#include "serve/session_manager.h"
#include "serve/snapshot.h"

namespace {

// Written by the signal handler, polled between ticks by the serving loop:
// 1 = graceful drain, 2 = hard stop.
volatile std::sig_atomic_t g_stop_requests = 0;

void HandleSigint(int) {
  if (g_stop_requests >= 2) std::_Exit(130);  // Third Ctrl-C: hard exit.
  g_stop_requests = g_stop_requests + 1;
}

struct Args {
  int sessions = 16;
  int threads = 0;
  int steps = 24;
  long total = -1;  // -1 = default (4 x sessions); 0 = until Ctrl-C.
  bool greedy = false;
  int max_sessions = 0;
  double step_deadline_ms = 0.0;
  long reload_every = 0;
  std::string health_log;
  std::string journal;
  std::string ckpt;
  std::string dataset = "flights4";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--sessions") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      args->sessions = std::atoi(v);
    } else if (flag == "--threads") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      args->threads = std::atoi(v);
    } else if (flag == "--steps") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) <= 0) return false;
      args->steps = std::atoi(v);
    } else if (flag == "--total") {
      const char* v = next();
      if (v == nullptr || std::atol(v) < 0) return false;
      args->total = std::atol(v);
    } else if (flag == "--max-sessions") {
      const char* v = next();
      if (v == nullptr || std::atoi(v) < 0) return false;
      args->max_sessions = std::atoi(v);
    } else if (flag == "--step-deadline-ms") {
      const char* v = next();
      if (v == nullptr || std::atof(v) < 0) return false;
      args->step_deadline_ms = std::atof(v);
    } else if (flag == "--reload") {
      const char* v = next();
      if (v == nullptr || std::atol(v) < 0) return false;
      args->reload_every = std::atol(v);
    } else if (flag == "--health-log") {
      const char* v = next();
      if (v == nullptr) return false;
      args->health_log = v;
    } else if (flag == "--journal") {
      const char* v = next();
      if (v == nullptr) return false;
      args->journal = v;
    } else if (flag == "--ckpt") {
      const char* v = next();
      if (v == nullptr) return false;
      args->ckpt = v;
    } else if (flag == "--dataset") {
      const char* v = next();
      if (v == nullptr) return false;
      args->dataset = v;
    } else if (flag == "--greedy") {
      args->greedy = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->reload_every > 0 && args->ckpt.empty()) {
    std::fprintf(stderr, "--reload requires --ckpt\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace atena;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s [--sessions N] [--threads T] [--ckpt PATH] "
                 "[--dataset ID] [--steps S] [--greedy] [--max-sessions M] "
                 "[--step-deadline-ms D] [--reload K] [--health-log PATH] "
                 "[--journal PATH]\n",
                 argv[0]);
    return 1;
  }

  auto dataset = MakeDataset(args.dataset);
  if (!dataset.ok()) {
    std::fprintf(stderr, "unknown dataset '%s': %s\n", args.dataset.c_str(),
                 dataset.status().message().c_str());
    return 1;
  }

  SnapshotOptions options;
  std::shared_ptr<const PolicySnapshot> snapshot;
  if (!args.ckpt.empty()) {
    auto loaded =
        LoadPolicySnapshot(std::move(dataset).value(), options, args.ckpt);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load '%s': %s\n", args.ckpt.c_str(),
                   loaded.status().message().c_str());
      return 1;
    }
    snapshot = std::move(loaded).value();
    std::printf("serving trained policy from %s\n", args.ckpt.c_str());
  } else {
    snapshot = std::make_shared<PolicySnapshot>(std::move(dataset).value(),
                                                options);
    std::printf(
        "serving a freshly initialized policy (pass --ckpt for trained "
        "weights)\n");
  }

  std::signal(SIGINT, HandleSigint);

  ServeOptions serve_options;
  serve_options.num_threads = args.threads;
  serve_options.max_sessions = args.max_sessions;
  serve_options.step_deadline_nanos =
      static_cast<int64_t>(args.step_deadline_ms * 1e6);
  serve_options.health_log_path = args.health_log;
  serve_options.journal_path = args.journal;
  SessionManager manager(snapshot, serve_options);

  uint64_t recovered_finished = 0;
  if (!args.journal.empty() &&
      (FileExists(args.journal) || FileExists(args.journal + ".prev"))) {
    SessionManager::RecoveryInfo info;
    Status recovered = manager.RecoverFromJournal(args.journal, &info);
    if (!recovered.ok()) {
      // A journal that cannot be recovered is an operator problem, not
      // something to silently overwrite — move it aside to start fresh.
      std::fprintf(stderr, "cannot recover journal '%s': %s\n",
                   args.journal.c_str(), recovered.message().c_str());
      return 1;
    }
    // Retirements since the last compaction are re-delivered
    // (at-least-once); this demo's per-process counters just restart.
    recovered_finished = manager.TakeCompleted().size();
    std::printf(
        "recovered %d live sessions from %s (%lld ticks, %lld steps "
        "replayed%s%s); %llu finished outcomes re-delivered\n",
        info.sessions_restored, args.journal.c_str(),
        static_cast<long long>(info.ticks_replayed),
        static_cast<long long>(info.steps_replayed),
        info.used_prev_fallback ? ", via .prev fallback" : "",
        info.torn_tail ? ", torn tail dropped" : "",
        static_cast<unsigned long long>(recovered_finished));
  }

  const uint64_t total_sessions =
      args.total < 0 ? static_cast<uint64_t>(args.sessions) * 4
                     : static_cast<uint64_t>(args.total);
  // Seeds continue after whatever the journal replayed, so a recovered
  // runtime never re-serves a seed it already finished.
  uint64_t admitted = static_cast<uint64_t>(manager.stats().admitted);
  uint64_t refused = 0;
  auto admit_one = [&]() {
    SessionConfig config;
    config.seed = 1000 + admitted + refused;
    config.max_steps = args.steps;
    config.greedy = args.greedy;
    Result<uint64_t> id = manager.Admit(config);
    if (!id.ok()) {
      // Structured refusal (cap or watermark shed): the session is simply
      // not served; live sessions are untouched.
      ++refused;
      return;
    }
    ++admitted;
  };
  auto may_admit = [&]() {
    return total_sessions == 0 || admitted < total_sessions;
  };
  // Top up to the target concurrency (recovery may have restored some).
  for (int i = manager.active_sessions(); i < args.sessions && may_admit();
       ++i) {
    admit_one();
  }

  std::printf(
      "%d concurrent sessions on %s, %d steps each — Ctrl-C drains "
      "gracefully, twice hard-stops\n",
      args.sessions, args.dataset.c_str(), args.steps);

  uint64_t finished = 0;
  uint64_t faulted = 0;
  double total_reward = 0.0;
  bool drain_announced = false;
  bool hard_stopped = false;
  auto consume_outcomes = [&]() {
    for (const SessionOutcome& outcome : manager.TakeCompleted()) {
      ++finished;
      total_reward += outcome.trace.total_reward;
      if (outcome.reason != RetireReason::kCompleted) ++faulted;
      if (finished <= 3 || outcome.reason != RetireReason::kCompleted) {
        std::printf("session %llu (seed %llu): %zu steps, reward %.3f [%s]%s%s\n",
                    static_cast<unsigned long long>(outcome.trace.id),
                    static_cast<unsigned long long>(outcome.trace.seed),
                    outcome.trace.steps.size(), outcome.trace.total_reward,
                    RetireReasonName(outcome.reason),
                    outcome.status.ok() ? "" : ": ",
                    outcome.status.ok() ? ""
                                        : outcome.status.message().c_str());
      } else if (finished == 4) {
        std::printf("...\n");
      }
      // Steady state: every departure admits a replacement — until the
      // workload is exhausted or a drain is requested, after which
      // in-flight sessions just finish.
      if (g_stop_requests == 0 && may_admit()) admit_one();
    }
  };
  while (manager.active_sessions() > 0) {
    if (g_stop_requests >= 2 && !hard_stopped) {
      hard_stopped = true;
      std::printf("\nhard stop: retiring %d live sessions with partial "
                  "notebooks\n",
                  manager.active_sessions());
      manager.HardStop();
      consume_outcomes();
      break;
    }
    manager.Tick();
    consume_outcomes();
    if (args.reload_every > 0 && finished > 0 &&
        finished % static_cast<uint64_t>(args.reload_every) == 0) {
      Status reloaded = manager.ReloadSnapshot(args.ckpt);
      if (!reloaded.ok()) {
        std::fprintf(stderr,
                     "reload failed, serving last-good snapshot: %s\n",
                     reloaded.message().c_str());
      }
    }
    if (g_stop_requests >= 1 && manager.active_sessions() > 0 &&
        !drain_announced) {
      drain_announced = true;
      std::printf("\ndraining %d in-flight sessions (Ctrl-C again to hard "
                  "stop)...\n",
                  manager.active_sessions());
    }
  }
  consume_outcomes();

  const ServeStats& stats = manager.stats();
  const DisplayCacheStats cache_stats = manager.display_cache()->stats();
  std::printf(
      "\nserved %llu sessions (%lld steps total), cache hit rate %.3f\n",
      static_cast<unsigned long long>(finished),
      static_cast<long long>(manager.steps_served()),
      cache_stats.hit_rate());
  std::printf(
      "fault domains: %lld shed, %lld quarantined, %lld deadline-retired, "
      "%lld hard-stopped, %lld degraded steps, %lld/%lld reloads ok\n",
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.quarantined),
      static_cast<long long>(stats.deadline_retired),
      static_cast<long long>(stats.hard_stopped),
      static_cast<long long>(stats.degraded_steps),
      static_cast<long long>(stats.reload_successes),
      static_cast<long long>(stats.reload_successes + stats.reload_failures));
  return faulted > 0 && finished == faulted ? 1 : 0;
}
