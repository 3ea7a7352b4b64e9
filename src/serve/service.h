#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "flow/experiment.h"
#include "serve/job.h"
#include "serve/scheduler.h"

namespace repro {

/// Options for the flow service.
struct ServiceOptions {
  /// Concurrent jobs (0 = hardware concurrency, 1 = sequential).
  int threads = 1;
  /// Default embedder join threads inside each job's replication engine
  /// (results are bit-identical for every value; 1 avoids oversubscribing
  /// when many jobs run concurrently). JobSpec::engine_threads overrides.
  int engine_threads = 1;
  /// Default per-stage wall-clock timeout in seconds (0 = none).
  /// JobSpec::timeout_seconds overrides per job.
  double job_timeout_seconds = 0;
  /// Retries after a failed (not timed-out) attempt.
  int max_retries = 0;
  double retry_backoff_seconds = 0.05;

  /// Directory for stage-boundary snapshots ("" = checkpointing off).
  /// Created if missing.
  std::string checkpoint_dir;
  /// Pick up <checkpoint_dir>/<job-id>.ckpt files: completed stages are
  /// skipped and the job continues from the restored state, reproducing the
  /// straight-through run's results bit-for-bit.
  bool resume = false;

  /// Baseline flow configuration; per-job scale/seed/threads come from the
  /// JobSpec.
  FlowConfig base;

  /// Test/CI hook simulating a crash: request service shutdown once this
  /// many checkpoints have been written (0 = off). Running jobs unwind at
  /// their next cancellation point and are reported CHECKPOINTED.
  int stop_after_checkpoints = 0;
};

/// Service-level counters (includes the scheduler's).
struct ServiceStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t jobs_timed_out = 0;
  std::uint64_t jobs_interrupted = 0;
  std::uint64_t jobs_quarantined = 0;  ///< failed a stage audit; not retried
  std::uint64_t jobs_invalid = 0;
  std::uint64_t jobs_retried = 0;  ///< retry attempts performed
  std::uint64_t jobs_resumed = 0;  ///< jobs restarted from a checkpoint
  std::uint64_t checkpoints_written = 0;
  std::uint64_t checkpoint_bytes = 0;
  double queue_latency_seconds_total = 0;
  double queue_latency_seconds_max = 0;

  std::string summary() const;  ///< one human-readable line
};

/// "" = valid, else the reason a spec is rejected before scheduling.
std::string validate_job_spec(const JobSpec& spec);

/// Batch-level validation: per-spec errors plus duplicate-id detection, in
/// input order ("" = valid). Shared by the in-process service and the dist
/// coordinator so both reject the same specs with the same messages — a
/// prerequisite for byte-identical result logs.
std::vector<std::string> validate_batch(const std::vector<JobSpec>& specs);

/// One single-attempt execution request for run_flow_attempt. The attempt
/// runner is deliberately free-standing: FlowService drives it with on-disk
/// checkpoints, a dist worker drives it with a streamed-resume snapshot and
/// a frame-sending checkpoint sink. Same code, same bits.
struct FlowAttemptRequest {
  const JobSpec* spec = nullptr;
  int attempt = 1;
  /// Snapshot to resume from (consumed via move when it matches the spec);
  /// nullptr = fresh run. A mismatched or under-placed snapshot is ignored
  /// and the job restarts from scratch, exactly like the file-based path.
  FlowSnapshot* resume = nullptr;
  /// Called after every completed stage boundary with the serializable job
  /// state. May be empty. Exceptions from the sink propagate (a worker uses
  /// this for deterministic kill-at-stage fault injection).
  std::function<void(const FlowSnapshot&)> on_checkpoint;
  /// Cooperative shutdown flag wired into every stage's CancelToken.
  const std::atomic<bool>* kill_flag = nullptr;
};

/// Runs one job attempt end to end (place -> replicate -> route), filling
/// `out` and throwing to report failure/cancellation exactly like the
/// pre-extraction FlowService internals: FlowCancelled on deadline/kill,
/// AuditError on invariant violations, std::runtime_error otherwise.
void run_flow_attempt(const ServiceOptions& opt, const FlowAttemptRequest& req,
                      JobResult& out);

/// Batch server for place -> replicate -> route jobs.
///
/// Each job runs the full pipeline with a deterministic snapshot written at
/// every stage boundary; per-stage deadlines cancel runaway stages at their
/// cooperative checkpoints (annealer temperatures, engine iterations, router
/// passes). A failing, hanging or timed-out job never takes the batch down:
/// it is reported FAILED/TIMED_OUT with a nonzero per-job error code and the
/// remaining jobs complete.
class FlowService {
 public:
  explicit FlowService(const ServiceOptions& opt);

  /// Runs all jobs; results are in input order. Does not throw on per-job
  /// errors (see JobResult::state / error_code). Throws on infrastructure
  /// errors only (e.g. the checkpoint directory cannot be created).
  std::vector<JobResult> run_batch(const std::vector<JobSpec>& specs);

  /// Cooperative shutdown (signal path): running jobs unwind at their next
  /// cancellation point and are reported CHECKPOINTED; queued jobs are not
  /// started. Safe to call from any thread, including before or between
  /// run_batch() calls — the request sticks and applies to the next batch.
  void request_shutdown();

  ServiceStats stats() const;

 private:
  friend struct ServiceTestPeer;

  void run_job_attempt(const JobSpec& spec, int attempt, JobResult& out);
  std::string checkpoint_path(const std::string& job_id) const;
  void write_checkpoint(const FlowSnapshot& snap);

  ServiceOptions opt_;
  /// Guards scheduler_ (re)creation in run_batch against request_shutdown
  /// and stats readers on other threads.
  mutable std::mutex scheduler_mu_;
  std::atomic<bool> shutdown_requested_{false};
  std::unique_ptr<Scheduler> scheduler_;
  std::atomic<std::uint64_t> jobs_resumed_{0};
  std::atomic<std::uint64_t> jobs_invalid_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> checkpoint_bytes_{0};
};

/// Service knobs from the environment, layered over `base`:
///   REPRO_SERVE_THREADS      concurrent jobs (integer >= 0)
///   REPRO_SERVE_JOB_TIMEOUT  per-stage timeout seconds (> 0)
///   REPRO_SERVE_MAX_RETRIES  retry budget (integer >= 0)
/// Malformed values fall back to the corresponding `base` field.
ServiceOptions service_options_from_env(ServiceOptions base = {});

/// JSONL bridge: parses one job line (unknown keys rejected; see
/// examples/flow_jobs.jsonl). Throws JsonlError.
JobSpec parse_job_line(const std::string& line);

/// Formats one result line. `stable` omits wall-clock-dependent fields
/// (seconds, attempts, resumed) so an interrupted-and-resumed batch is
/// byte-comparable with a straight-through one.
std::string format_result_line(const JobResult& r, bool stable);

}  // namespace repro
