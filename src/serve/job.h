#pragma once

#include <cstdint>
#include <string>

#include "flow/experiment.h"
#include "serve/snapshot.h"

namespace repro {

/// Lifecycle of one job in the flow service.
///
///   QUEUED -> RUNNING -> DONE
///                     -> FAILED        (exception; retries exhausted)
///                     -> TIMED_OUT     (stage deadline expired)
///                     -> CHECKPOINTED  (service shut down mid-job; the last
///                                       stage-boundary snapshot is on disk
///                                       and --resume picks it up)
enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kCheckpointed = 2,
  kDone = 3,
  kFailed = 4,
  kTimedOut = 5,
};

const char* job_state_name(JobState s);

/// How one job attempt ended, from what it threw (run_attempt in
/// serve/service.h). The in-process service, the dist coordinator and the
/// dist worker share this one classification; the worker sends it in its
/// Result frame as one byte, so the values are wire format.
enum class AttemptOutcome : std::uint8_t {
  kDone = 0,      ///< completed
  kDeadline = 1,  ///< FlowCancelled, stage deadline -> TIMED_OUT, no retry
  kKilled = 2,    ///< FlowCancelled, cooperative kill -> CHECKPOINTED
  kAudit = 3,     ///< AuditError -> quarantined, no retry
  kError = 4,     ///< any other std::exception -> retry while budget lasts
};

/// Per-job result codes recorded in the output JSONL.
enum JobErrorCode {
  kJobOk = 0,
  kJobFailed = 1,       ///< a stage threw; retries exhausted
  kJobTimedOut = 2,     ///< a stage deadline expired
  kJobInvalidSpec = 3,  ///< rejected before running (unknown circuit, ...)
  kJobInterrupted = 4,  ///< service shut down before the job finished
  kJobAuditFailed = 5,  ///< a stage audit found an invariant violation;
                        ///< deterministic, so quarantined without retry
};

/// One place -> replicate -> route job, parsed from a JSONL batch line.
struct JobSpec {
  std::string id;               ///< unique within the batch
  std::string circuit = "apex2";  ///< MCNC suite entry to generate
  double scale = 0.15;
  std::uint64_t seed = 7;
  std::string variant = "lex3";  ///< rt|lex2|lex3|lex4|lex5|mc|none
  std::string placer;  ///< annealer|analytic|hybrid; "" = service default
  bool route = true;             ///< evaluate routed metrics (W_inf / W_ls)
  int engine_threads = 1;        ///< embedder join threads inside this job
  /// Per-stage wall-clock timeout override in seconds (0 = service default).
  double timeout_seconds = 0;

  /// Fault injection for robustness tests: name a stage
  /// ("place"|"replicate"|"route") to deterministically fail (throws) or
  /// hang (spins at a cancellation point until the stage deadline fires).
  std::string inject_fail_stage;
  std::string inject_hang_stage;
};

/// Final record of one job, written as one JSONL output line.
struct JobResult {
  JobSpec spec;
  JobState state = JobState::kQueued;
  int error_code = kJobOk;
  std::string error;
  FlowStage completed_stage = FlowStage::kInit;
  int attempts = 0;
  bool resumed = false;  ///< restarted from an on-disk checkpoint

  EngineSummary engine;
  bool has_metrics = false;
  CircuitMetrics metrics;

  // Invariant auditing (src/audit). audit_level is "" when auditing was off;
  // audit_stage names the stage whose battery failed ("" when clean).
  std::string audit_level;
  int audit_checks = 0;    ///< checks run across all stage batteries
  std::string audit_stage;
  int audit_findings = 0;  ///< findings at kError or worse in the failed stage
  /// The failed battery's findings, one serialized JSONL object per line
  /// (AuditReport::to_jsonl_lines); empty when clean.
  std::string audit_jsonl;

  // Wall-clock accounting (volatile across runs; omitted in stable output).
  double queue_seconds = 0;  ///< submit -> first attempt start
  double run_seconds = 0;    ///< total time inside attempts
  double place_seconds = 0;
  double replicate_seconds = 0;
  double route_seconds = 0;

  // Memory accounting, equally volatile and equally omitted in stable
  // output. Per-stage process peak RSS (util/mem.h; 0 when a stage was
  // skipped/resumed or the kernel refused the reset) and the scratch-arena
  // high-water mark (util/stats.h ArenaCounters) after the job.
  std::uint64_t place_peak_rss_bytes = 0;
  std::uint64_t replicate_peak_rss_bytes = 0;
  std::uint64_t route_peak_rss_bytes = 0;
  std::uint64_t arena_bytes = 0;
};

}  // namespace repro
