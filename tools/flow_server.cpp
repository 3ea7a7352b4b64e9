// Batch job server for place -> replicate -> route runs, plus the ECO
// serving mode (long-lived incremental sessions, DESIGN.md §11).
//
// Reads one JSON object per line. Lines WITHOUT an "op" key are batch job
// specs (see examples/flow_jobs.jsonl): they run over a thread pool with
// per-stage timeouts, bounded retry and stage-boundary checkpointing. Lines
// WITH an "op" key are session ops (see examples/eco_session.jsonl):
// open_session / apply_delta / query / close_session against long-lived
// incremental sessions. The two kinds interleave freely — pending batch jobs
// are flushed before each session op, and the output has one result line per
// input line, in input order. A failing job or a rejected delta is reported
// in its result line; the process still exits 0 as long as the batch ran.
//
//   flow_server --jobs batch.jsonl --out results.jsonl \
//               --checkpoint-dir ckpt --threads 4 --job-timeout 60
//   flow_server --jobs batch.jsonl --out results.jsonl --resume ckpt
//   flow_server --jobs session.jsonl --out results.jsonl --sessions-dir eco
//
// SIGINT/SIGTERM shut down gracefully: in-flight jobs unwind at their next
// cancellation point (CHECKPOINTED; their snapshots are on disk), open
// sessions are persisted, results produced so far are flushed, exit 0.
//
// Exit codes: 0 batch ran (per-job status is in the output), 2 bad usage or
// unreadable job file, 42 simulated crash (--crash-after-checkpoints /
// --crash-after-deltas, CI resume tests).

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "eco/session_manager.h"
#include "serve/jsonl.h"
#include "serve/service.h"
#include "util/log.h"
#include "util/socket.h"

using namespace repro;

namespace {

std::atomic<bool> g_shutdown{false};

void handle_signal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

struct Args {
  std::string jobs;  // "" or "-" = stdin
  std::string out;   // "" or "-" = stdout
  std::string checkpoint_dir;
  std::string sessions_dir;
  bool resume = false;
  int threads = 1;
  int engine_threads = 1;
  double job_timeout = 0;
  int max_retries = 0;
  bool stable = false;
  bool quiet = false;
  bool eco_cold_audit = false;
  int crash_after_checkpoints = 0;
  int crash_after_deltas = 0;
  std::string audit;   // "" = leave to REPRO_AUDIT / config default
  std::string placer;  // "" = leave to REPRO_PLACER / config default

  // Distributed mode (src/dist): coordinator side.
  int workers = -1;     // >= 0 = coordinator mode, spawning N workers
  std::string listen;   // "" = default unix socket under /tmp
  std::vector<std::string> chaos;  // "SLOT:FAULTSPEC" per spawned worker
  double heartbeat_timeout = 1.5;
  double degrade_grace = 0.75;
  int respawn_budget = 4;
  // Worker side.
  bool worker_mode = false;
  std::string connect;
  std::string fault;
};

int usage() {
  std::fprintf(stderr,
               "usage: flow_server [options]\n"
               "  --jobs FILE          JSONL job/session-op file (default: stdin)\n"
               "  --out FILE           JSONL results file (default: stdout)\n"
               "  --checkpoint-dir D   write stage-boundary snapshots into D\n"
               "  --resume D           resume from snapshots in D (implies\n"
               "                       --checkpoint-dir D)\n"
               "  --sessions-dir D     persist ECO sessions into D as .ecs files;\n"
               "                       an open_session whose id has a file there\n"
               "                       resumes it mid-stream\n"
               "  --threads N          concurrent jobs (0 = hardware, default 1)\n"
               "  --engine-threads N   embedder join threads per job (default 1)\n"
               "  --job-timeout S      per-stage wall-clock timeout in seconds\n"
               "  --max-retries N      retries for failed (not timed-out) jobs\n"
               "  --stable             omit wall-clock fields from results so\n"
               "                       resumed and straight runs compare equal\n"
               "  --placer BACKEND     default placement backend for jobs that\n"
               "                       don't set one: annealer | analytic |\n"
               "                       hybrid (or REPRO_PLACER)\n"
               "  --audit LEVEL        invariant auditing after every stage and\n"
               "                       every applied delta: off | stage |\n"
               "                       paranoid (default off); audit-failing\n"
               "                       jobs are quarantined\n"
               "  --eco-cold-audit     on close_session, replay the full delta\n"
               "                       journal against a cold rebuild and fail\n"
               "                       the close on any disagreement\n"
               "  --workers N          distributed mode: spawn N worker\n"
               "                       processes and run batch jobs through\n"
               "                       the dist coordinator (0 = listen for\n"
               "                       externally started workers only)\n"
               "  --listen ADDR        coordinator endpoint, unix:<path> or\n"
               "                       tcp:<port> (default: a unix socket\n"
               "                       under /tmp; tcp:0 = ephemeral port)\n"
               "  --chaos SLOT:SPEC    fault-injection plan for spawned worker\n"
               "                       SLOT (repeatable; see --fault)\n"
               "  --heartbeat-timeout S  declare a silent worker dead after S\n"
               "                       seconds (default 1.5)\n"
               "  --degrade-grace S    with zero workers, wait S seconds then\n"
               "                       run jobs in-process (default 0.75)\n"
               "  --respawn-budget N   replacement workers to spawn after\n"
               "                       deaths (default 4)\n"
               "  --worker             run as a worker process instead of a\n"
               "                       server; requires --connect\n"
               "  --connect ADDR       coordinator endpoint to join\n"
               "  --fault SPEC         worker fault injection, comma-separated\n"
               "                       hooks: drop_connection_after_frames=N,\n"
               "                       corrupt_frame=N, hang_worker=STAGE[:k],\n"
               "                       kill_worker_at_stage=STAGE[:k]\n"
               "  --quiet              no stats summary on stderr\n"
               "  --crash-after-checkpoints N\n"
               "                       CI hook: stop after N checkpoints and\n"
               "                       exit 42 without writing results\n"
               "  --crash-after-deltas N\n"
               "                       CI hook: exit 42 after N applied deltas\n"
               "                       have been persisted, without writing\n"
               "                       results\n"
               "Env: REPRO_SERVE_THREADS, REPRO_SERVE_JOB_TIMEOUT,\n"
               "     REPRO_SERVE_MAX_RETRIES, REPRO_AUDIT (flags win).\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "flow_server: missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (!std::strcmp(arg, "--jobs")) {
      if (!(v = need(arg))) return false;
      a.jobs = v;
    } else if (!std::strcmp(arg, "--out")) {
      if (!(v = need(arg))) return false;
      a.out = v;
    } else if (!std::strcmp(arg, "--checkpoint-dir")) {
      if (!(v = need(arg))) return false;
      a.checkpoint_dir = v;
    } else if (!std::strcmp(arg, "--resume")) {
      if (!(v = need(arg))) return false;
      a.checkpoint_dir = v;
      a.resume = true;
    } else if (!std::strcmp(arg, "--sessions-dir")) {
      if (!(v = need(arg))) return false;
      a.sessions_dir = v;
    } else if (!std::strcmp(arg, "--threads")) {
      if (!(v = need(arg))) return false;
      a.threads = std::atoi(v);
    } else if (!std::strcmp(arg, "--engine-threads")) {
      if (!(v = need(arg))) return false;
      a.engine_threads = std::atoi(v);
    } else if (!std::strcmp(arg, "--job-timeout")) {
      if (!(v = need(arg))) return false;
      a.job_timeout = std::atof(v);
    } else if (!std::strcmp(arg, "--max-retries")) {
      if (!(v = need(arg))) return false;
      a.max_retries = std::atoi(v);
    } else if (!std::strcmp(arg, "--placer")) {
      if (!(v = need(arg))) return false;
      a.placer = v;
    } else if (!std::strcmp(arg, "--audit")) {
      if (!(v = need(arg))) return false;
      a.audit = v;
    } else if (!std::strcmp(arg, "--stable")) {
      a.stable = true;
    } else if (!std::strcmp(arg, "--quiet")) {
      a.quiet = true;
    } else if (!std::strcmp(arg, "--eco-cold-audit")) {
      a.eco_cold_audit = true;
    } else if (!std::strcmp(arg, "--workers")) {
      if (!(v = need(arg))) return false;
      a.workers = std::atoi(v);
    } else if (!std::strcmp(arg, "--listen")) {
      if (!(v = need(arg))) return false;
      a.listen = v;
    } else if (!std::strcmp(arg, "--chaos")) {
      if (!(v = need(arg))) return false;
      a.chaos.push_back(v);
    } else if (!std::strcmp(arg, "--heartbeat-timeout")) {
      if (!(v = need(arg))) return false;
      a.heartbeat_timeout = std::atof(v);
    } else if (!std::strcmp(arg, "--degrade-grace")) {
      if (!(v = need(arg))) return false;
      a.degrade_grace = std::atof(v);
    } else if (!std::strcmp(arg, "--respawn-budget")) {
      if (!(v = need(arg))) return false;
      a.respawn_budget = std::atoi(v);
    } else if (!std::strcmp(arg, "--worker")) {
      a.worker_mode = true;
    } else if (!std::strcmp(arg, "--connect")) {
      if (!(v = need(arg))) return false;
      a.connect = v;
    } else if (!std::strcmp(arg, "--fault")) {
      if (!(v = need(arg))) return false;
      a.fault = v;
    } else if (!std::strcmp(arg, "--crash-after-checkpoints")) {
      if (!(v = need(arg))) return false;
      a.crash_after_checkpoints = std::atoi(v);
    } else if (!std::strcmp(arg, "--crash-after-deltas")) {
      if (!(v = need(arg))) return false;
      a.crash_after_deltas = std::atoi(v);
    } else {
      std::fprintf(stderr, "flow_server: unknown option '%s'\n", arg);
      return false;
    }
  }
  return true;
}

/// One classified input line: a batch job spec or a raw session-op line
/// (session ops are validated when handled — a bad op is an error result
/// line, not a dead server).
struct InputLine {
  bool is_op = false;
  JobSpec spec;
  std::string raw;
};

/// Service options shared by every mode. Worker processes rebuild these
/// from the same environment + forwarded flags as the coordinator, which is
/// what keeps remote attempts bit-identical to local ones.
int build_service_options(const Args& args, ServiceOptions& sopt) {
  sopt = service_options_from_env();
  sopt.base = config_from_env();
  if (!args.audit.empty() && !parse_audit_level(args.audit, &sopt.base.audit)) {
    std::fprintf(stderr, "flow_server: bad --audit level '%s'\n",
                 args.audit.c_str());
    return usage();
  }
  if (!args.placer.empty() &&
      !parse_placer_backend(args.placer, &sopt.base.placer)) {
    std::fprintf(stderr, "flow_server: bad --placer backend '%s'\n",
                 args.placer.c_str());
    return usage();
  }
  if (args.threads >= 0) sopt.threads = args.threads;
  sopt.engine_threads = args.engine_threads;
  if (args.job_timeout > 0) sopt.job_timeout_seconds = args.job_timeout;
  if (args.max_retries > 0) sopt.max_retries = args.max_retries;
  sopt.checkpoint_dir = args.checkpoint_dir;
  sopt.resume = args.resume;
  sopt.stop_after_checkpoints = args.crash_after_checkpoints;
  return 0;
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

int run_worker_mode(const Args& args) {
  if (args.connect.empty()) {
    std::fprintf(stderr, "flow_server: --worker requires --connect\n");
    return usage();
  }
  WorkerOptions wopt;
  if (const int rc = build_service_options(args, wopt.service)) return rc;
  // A worker never touches disk: checkpoints stream to the coordinator.
  wopt.service.checkpoint_dir.clear();
  wopt.service.resume = false;
  std::string err;
  if (!SocketAddr::parse(args.connect, &wopt.connect, &err)) {
    std::fprintf(stderr, "flow_server: bad --connect: %s\n", err.c_str());
    return usage();
  }
  if (!args.fault.empty() &&
      !parse_fault_plan(args.fault, &wopt.fault, &err)) {
    std::fprintf(stderr, "flow_server: bad --fault: %s\n", err.c_str());
    return usage();
  }
  wopt.process_mode = true;
  return run_worker(wopt, &g_shutdown);
}

/// Builds the coordinator for --workers/--listen mode. Returns nullptr +
/// nonzero *rc on a bad flag.
std::unique_ptr<Coordinator> make_coordinator(const Args& args,
                                              const ServiceOptions& sopt,
                                              const char* argv0, int* rc) {
  CoordinatorOptions copt;
  copt.service = sopt;
  const std::string listen_str =
      args.listen.empty()
          ? "unix:/tmp/flow_server." + std::to_string(::getpid()) + ".sock"
          : args.listen;
  std::string err;
  if (!SocketAddr::parse(listen_str, &copt.listen, &err)) {
    std::fprintf(stderr, "flow_server: bad --listen: %s\n", err.c_str());
    *rc = usage();
    return nullptr;
  }
  copt.spawn_workers = std::max(args.workers, 0);
  copt.worker_exe = self_exe_path(argv0);
  copt.heartbeat_timeout_s = args.heartbeat_timeout;
  copt.degrade_grace_s = args.degrade_grace;
  copt.respawn_budget = args.respawn_budget;
  // Forward every flag that changes results so spawned workers compute the
  // same bits (environment variables are inherited via exec).
  if (!args.audit.empty()) {
    copt.worker_args.push_back("--audit");
    copt.worker_args.push_back(args.audit);
  }
  if (!args.placer.empty()) {
    copt.worker_args.push_back("--placer");
    copt.worker_args.push_back(args.placer);
  }
  copt.worker_args.push_back("--engine-threads");
  copt.worker_args.push_back(std::to_string(args.engine_threads));
  if (args.job_timeout > 0) {
    copt.worker_args.push_back("--job-timeout");
    copt.worker_args.push_back(std::to_string(args.job_timeout));
  }
  copt.worker_faults.resize(static_cast<std::size_t>(copt.spawn_workers));
  for (const std::string& c : args.chaos) {
    const std::size_t colon = c.find(':');
    const int slot = colon == std::string::npos ? -1
                                                : std::atoi(c.substr(0, colon).c_str());
    if (colon == std::string::npos || slot < 0 ||
        slot >= copt.spawn_workers) {
      std::fprintf(stderr,
                   "flow_server: bad --chaos '%s' (want SLOT:FAULTSPEC with "
                   "SLOT < --workers)\n",
                   c.c_str());
      *rc = usage();
      return nullptr;
    }
    FaultPlan check;
    const std::string spec = c.substr(colon + 1);
    if (!parse_fault_plan(spec, &check, &err)) {
      std::fprintf(stderr, "flow_server: bad --chaos '%s': %s\n", c.c_str(),
                   err.c_str());
      *rc = usage();
      return nullptr;
    }
    copt.worker_faults[static_cast<std::size_t>(slot)] = spec;
  }
  *rc = 0;
  return std::make_unique<Coordinator>(copt);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // A consumer closing the result pipe (head, a dying coordinator) must be
  // a clean shutdown with a diagnostic, not a silent SIGPIPE death.
  std::signal(SIGPIPE, SIG_IGN);

  if (args.worker_mode) return run_worker_mode(args);

  try {
    // ---- read and classify the input ----------------------------------------
    std::vector<InputLine> lines;
    {
      std::ifstream file;
      const bool use_stdin = args.jobs.empty() || args.jobs == "-";
      if (!use_stdin) {
        file.open(args.jobs);
        if (!file) {
          std::fprintf(stderr, "flow_server: cannot read job file %s\n",
                       args.jobs.c_str());
          return 2;
        }
      }
      std::istream& in = use_stdin ? std::cin : file;
      std::string line;
      int lineno = 0;
      while (std::getline(in, line)) {
        ++lineno;
        // Blank lines and #-comments are allowed between jobs.
        const auto pos = line.find_first_not_of(" \t\r");
        if (pos == std::string::npos || line[pos] == '#') continue;
        InputLine l;
        if (is_session_op_line(line)) {
          l.is_op = true;
          l.raw = line;
        } else {
          try {
            l.spec = parse_job_line(line);
          } catch (const JsonlError& e) {
            std::fprintf(stderr, "flow_server: %s line %d: %s\n",
                         use_stdin ? "<stdin>" : args.jobs.c_str(), lineno,
                         e.what());
            return 2;
          }
        }
        lines.push_back(std::move(l));
      }
    }
    if (lines.empty()) {
      std::fprintf(stderr, "flow_server: no jobs\n");
      return 2;
    }

    // ---- options -----------------------------------------------------------
    ServiceOptions sopt;
    if (const int rc = build_service_options(args, sopt)) return rc;

    SessionManagerOptions mopt;
    mopt.sessions_dir = args.sessions_dir;
    mopt.audit = sopt.base.audit;
    mopt.cold_audit = args.eco_cold_audit;
    mopt.base = sopt.base;
    mopt.crash_after_deltas = args.crash_after_deltas;
    mopt.kill_flag = &g_shutdown;

    FlowService service(sopt);
    SessionManager sessions(mopt);

    // Distributed mode: batch jobs go through the coordinator + worker
    // processes instead of the in-process service (session ops stay local).
    std::unique_ptr<Coordinator> coordinator;
    if (args.workers >= 0 || !args.listen.empty()) {
      int rc = 0;
      coordinator = make_coordinator(args, sopt, argv[0], &rc);
      if (!coordinator) return rc;
      const SocketAddr bound = coordinator->start();
      if (!args.quiet)
        std::fprintf(stderr, "flow_server: coordinator on %s, %d worker(s)\n",
                     bound.to_string().c_str(), std::max(args.workers, 0));
    }

    // Signals must not call into the service (handlers can only touch the
    // atomic); a watcher thread relays the flag to the batch scheduler so
    // in-flight jobs unwind at their next cancellation point.
    std::atomic<bool> watcher_done{false};
    std::thread watcher([&] {
      while (!watcher_done.load(std::memory_order_relaxed)) {
        if (g_shutdown.load(std::memory_order_relaxed)) {
          service.request_shutdown();
          if (coordinator) coordinator->request_shutdown();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    // ---- run ----------------------------------------------------------------
    std::vector<std::string> out_lines;
    std::vector<JobSpec> pending;
    bool crashed = false;
    std::string crash_msg;

    auto batch_stats = [&] {
      return coordinator ? coordinator->stats() : service.stats();
    };
    auto flush_batch = [&] {
      if (pending.empty()) return;
      const std::vector<JobResult> results =
          coordinator ? coordinator->run_batch(pending)
                      : service.run_batch(pending);
      pending.clear();
      for (const JobResult& r : results) {
        out_lines.push_back(format_result_line(r, args.stable));
        // Quarantined jobs: findings go to stderr as JSONL so the result
        // stream stays one line per input line.
        if (r.error_code == kJobAuditFailed && !r.audit_jsonl.empty())
          std::fprintf(stderr, "%s\n", r.audit_jsonl.c_str());
      }
      if (args.crash_after_checkpoints > 0 &&
          batch_stats().checkpoints_written >=
              static_cast<std::uint64_t>(args.crash_after_checkpoints)) {
        crashed = true;
        crash_msg = "simulated crash after " +
                    std::to_string(batch_stats().checkpoints_written) +
                    " checkpoints";
      }
    };

    for (InputLine& l : lines) {
      if (crashed || g_shutdown.load(std::memory_order_relaxed)) break;
      if (!l.is_op) {
        pending.push_back(std::move(l.spec));
        continue;
      }
      // Session ops see the results of every batch job submitted above them
      // (e.g. open_session from a checkpoint the batch just wrote).
      flush_batch();
      if (crashed) break;
      out_lines.push_back(sessions.handle_line(l.raw));
      if (sessions.crash_requested()) {
        crashed = true;
        crash_msg = "simulated crash after " +
                    std::to_string(sessions.deltas_persisted()) +
                    " applied deltas";
      }
    }
    if (!crashed && !g_shutdown.load(std::memory_order_relaxed)) flush_batch();

    watcher_done.store(true, std::memory_order_relaxed);
    watcher.join();

    if (crashed) {
      // Simulated crash: the snapshots/sessions are on disk, the results
      // are not.
      std::fprintf(stderr, "flow_server: %s\n", crash_msg.c_str());
      return 42;
    }

    // Graceful shutdown and normal exit share this path: persist every open
    // session, then flush the results produced so far.
    sessions.checkpoint_all();
    if (coordinator) coordinator->stop();

    // ---- write results ------------------------------------------------------
    {
      std::ofstream file;
      const bool use_stdout = args.out.empty() || args.out == "-";
      if (!use_stdout) {
        file.open(args.out);
        if (!file) {
          std::fprintf(stderr, "flow_server: cannot write %s\n",
                       args.out.c_str());
          return 2;
        }
      }
      std::ostream& out = use_stdout ? std::cout : file;
      bool write_failed = false;
      for (const std::string& line : out_lines) {
        if (!(out << line << '\n')) {
          write_failed = true;
          break;
        }
      }
      if (!write_failed) {
        out.flush();
        write_failed = !out;
      }
      if (write_failed) {
        // EPIPE or a short write on the result stream (SIGPIPE is ignored):
        // the consumer is gone, so shut down cleanly with one diagnostic —
        // everything durable (checkpoints, sessions) is already on disk.
        std::fprintf(stderr,
                     "flow_server: result stream closed early (EPIPE/short "
                     "write); shutting down cleanly\n");
        return 0;
      }
    }

    if (!args.quiet) {
      std::fprintf(stderr, "flow_server: %s\n",
                   batch_stats().summary().c_str());
      if (coordinator)
        std::fprintf(stderr, "flow_server: dist: %s\n",
                     coordinator->dist_stats().summary().c_str());
      if (sessions.open_sessions() > 0 || sessions.deltas_persisted() > 0)
        std::fprintf(stderr,
                     "flow_server: eco: %zu open session(s), %llu deltas "
                     "persisted, %zu cached results\n",
                     sessions.open_sessions(),
                     static_cast<unsigned long long>(
                         sessions.deltas_persisted()),
                     sessions.cache().size());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "flow_server: %s\n", e.what());
    return 2;
  }
}
