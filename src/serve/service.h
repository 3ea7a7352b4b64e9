#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flow/experiment.h"
#include "serve/job.h"

namespace repro {

/// Options for the flow service.
struct ServiceOptions {
  /// Jobs run at once (0 = hardware concurrency, 1 = sequential, on the
  /// calling thread).
  int threads = 1;
  /// Default embedder join threads inside each job's replication engine
  /// (results are bit-identical for every value; 1 avoids oversubscribing
  /// when many jobs run concurrently). JobSpec::engine_threads overrides.
  int engine_threads = 1;
  /// Default per-stage wall-clock timeout in seconds (0 = none).
  /// JobSpec::timeout_seconds overrides per job.
  double job_timeout_seconds = 0;
  /// Retries after a failed attempt (timeouts and audit failures are not
  /// retried: the pipeline is deterministic, so they would fail again).
  int max_retries = 0;
  /// First retry delay; doubles per retry of the same job, jittered (see
  /// retry_backoff_with_jitter).
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

/// Job counters of a FlowService or Coordinator, over every batch it ran.
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

/// True for "" (no stage) and for the stage names place|replicate|route
/// that fault-injection hooks accept.
bool stage_name_valid(const std::string& s);

/// "" = valid, else the reason a spec is rejected before scheduling.
std::string validate_job_spec(const JobSpec& spec);

/// Batch-level validation: per-spec errors plus duplicate-id detection, in
/// input order ("" = valid). Shared by the in-process service and the dist
/// coordinator so both reject the same specs with the same messages — a
/// prerequisite for byte-identical result logs.
std::vector<std::string> validate_batch(const std::vector<JobSpec>& specs);

/// Where a job's latest stage-boundary snapshot is kept on disk:
/// <checkpoint_dir>/<job id>.ckpt.
std::string checkpoint_path(const ServiceOptions& opt,
                            const std::string& job_id);
/// Creates opt.checkpoint_dir if checkpointing is on; throws
/// std::runtime_error when it cannot be created.
void create_checkpoint_dir(const ServiceOptions& opt);

/// One single-attempt execution request for run_flow_attempt. The attempt
/// runner is deliberately free-standing: FlowService drives it with on-disk
/// checkpoints, a dist worker drives it with a streamed-resume snapshot and
/// a frame-sending checkpoint sink. Same code, same bits.
struct FlowAttemptRequest {
  int attempt = 1;
  /// Serialized snapshot to resume from ("" = fresh run). Unreadable bytes
  /// (logged), a snapshot of different work or one from before the anneal
  /// are ignored and the job restarts from scratch.
  std::string resume;
  /// Called after every completed stage boundary with the serializable job
  /// state. May be empty. Exceptions from the sink propagate (a worker uses
  /// this for deterministic kill-at-stage fault injection).
  std::function<void(const FlowSnapshot&)> on_checkpoint;
  /// Cooperative shutdown flag wired into every stage's CancelToken.
  const std::atomic<bool>* kill_flag = nullptr;
};

/// Runs one attempt of the job `out.spec` end to end (place -> replicate ->
/// route), filling `out` and throwing to report failure/cancellation:
/// FlowCancelled on deadline/kill, AuditError on invariant violations,
/// std::runtime_error otherwise.
void run_flow_attempt(const ServiceOptions& opt, const FlowAttemptRequest& req,
                      JobResult& out);

/// Runs one attempt and classifies how it ended — the one place that maps
/// exceptions to outcomes:
///   FlowCancelled (deadline)  -> kDeadline
///   FlowCancelled (kill flag) -> kKilled
///   AuditError                -> kAudit
///   any other std::exception  -> kError
/// `*error` gets the exception's message ("" on kDone). Exceptions that do
/// not derive from std::exception propagate untouched (a dist worker unwinds
/// an injected death or a lost connection through here).
AttemptOutcome run_attempt(const std::function<void()>& attempt,
                           std::string* error);

/// Deterministic backoff-with-jitter for the k-th retry (k >= 1) of a job:
///   base * 2^(k-1) * f,   f in [0.5, 1.0) derived from (seed, k)
/// via a splitmix64 mix. Jobs seeded differently (the FNV-1a hash of the
/// job id) retry at staggered times instead of stampeding, and the sequence
/// for a given (base, seed) is pinned — tests and replayed chaos schedules
/// observe the exact same delays every run.
double retry_backoff_with_jitter(double base, int retry_index,
                                 std::uint64_t seed);

/// One job's progress through a RetryPolicy.
struct JobTicket {
  JobResult* result = nullptr;  ///< spec filled in; the policy sets the rest
  std::uint64_t backoff_seed = 0;  ///< retry jitter seed (fnv1a64 of the id)
  int attempt = 1;                 ///< the attempt about to run / last run
  double started_at = -1;          ///< first attempt start (monotonic s)
  bool finished = false;
};

/// The retry/quarantine policy FlowService and the dist Coordinator share,
/// and the one block of job counters (ServiceStats) each of them keeps. It
/// decides, from an attempt's AttemptOutcome, whether the job is finished
/// and in which state, or retried after a backoff:
///   kDone     -> DONE
///   kDeadline -> TIMED_OUT, no retry
///   kKilled   -> CHECKPOINTED (service shutdown), no retry
///   kAudit    -> FAILED + kJobAuditFailed, no retry: an audit violation is
///                deterministic for the input, so the job is quarantined and
///                the retry budget is spent on the rest of the batch
///   kError    -> retry while attempt <= max_retries and the shutdown flag
///                is down, else FAILED
/// An attempt's error string replaces the job's only when non-empty, so an
/// earlier failure's message survives a later success. The counters are
/// atomic: FlowService settles jobs from its pool threads.
class RetryPolicy {
 public:
  RetryPolicy(const ServiceOptions& opt, const std::atomic<bool>* shutdown);

  /// Fills `r` for a spec validate_batch rejected and counts it invalid.
  void reject(JobResult& r, const std::string& why);
  /// Marks the job's first attempt start (no-op on later calls) and records
  /// its queue latency since `submitted` (monotonic seconds).
  void start(JobTicket& t, double submitted);
  /// Settles attempt `t.attempt`. Either finishes the job (t.finished, final
  /// state, error code, attempts and run time in *t.result) or advances
  /// t.attempt and returns the backoff to wait before running it. A first
  /// attempt that ran from a checkpoint (JobResult::resumed) counts the job
  /// as resumed, whatever its outcome.
  double settle(JobTicket& t, AttemptOutcome outcome, const std::string& error);
  /// Runs attempts of `t` until settled, sleeping each retry's backoff.
  /// `attempt(n)` runs the n-th attempt and throws to report its outcome.
  void run(JobTicket& t, const std::function<void(int attempt)>& attempt);
  /// Counts one checkpoint file written; returns the total so far.
  std::uint64_t count_checkpoint(std::uint64_t bytes);

  ServiceStats stats() const;

 private:
  const int max_retries_;
  const double backoff_base_;
  const std::atomic<bool>* shutdown_;
  std::atomic<std::uint64_t> completed_{0}, failed_{0}, timed_out_{0},
      interrupted_{0}, quarantined_{0}, invalid_{0}, retried_{0},
      resumed_{0}, checkpoints_{0}, checkpoint_bytes_{0},
      queue_us_total_{0}, queue_us_max_{0};
};

/// Batch server for place -> replicate -> route jobs.
///
/// Each job runs the full pipeline with a deterministic snapshot written at
/// every stage boundary; per-stage deadlines cancel runaway stages at their
/// cooperative checkpoints (annealer temperatures, engine iterations, router
/// passes). A failing, hanging or timed-out job never takes the batch down:
/// it is reported FAILED/TIMED_OUT with a nonzero per-job error code and the
/// remaining jobs complete. Jobs run as the chunks of one
/// ThreadPool::parallel_for, ServiceOptions::threads at a time (the caller
/// runs jobs too) and started in submission order, each looping attempt ->
/// run_attempt -> RetryPolicy::settle -> backoff.
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

  /// Counters over every batch this service ran.
  ServiceStats stats() const { return policy_.stats(); }

 private:
  void run_job(JobTicket& t, double submitted);
  void write_checkpoint(const FlowSnapshot& snap);

  ServiceOptions opt_;
  std::atomic<bool> shutdown_requested_{false};
  RetryPolicy policy_;
};

/// JSONL bridge: parses one job line (unknown keys rejected; see
/// examples/flow_jobs.jsonl). Throws JsonlError.
JobSpec parse_job_line(const std::string& line);

/// Formats one result line. `stable` omits wall-clock-dependent fields
/// (seconds, attempts, resumed) so an interrupted-and-resumed batch is
/// byte-comparable with a straight-through one.
std::string format_result_line(const JobResult& r, bool stable);

}  // namespace repro
