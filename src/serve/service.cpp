#include "serve/service.h"

#include "util/mem.h"
#include "util/stats.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "audit/auditor.h"
#include "gen/circuit_gen.h"
#include "replicate/engine.h"
#include "serve/jsonl.h"
#include "serve/wire.h"
#include "util/cancel.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace repro {
namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

}  // namespace

bool stage_name_valid(const std::string& s) {
  return s.empty() || s == "place" || s == "replicate" || s == "route";
}

std::string validate_job_spec(const JobSpec& spec) {
  if (!filename_safe(spec.id))
    return "id must be a non-empty filename-safe string ([A-Za-z0-9._-])";
  if (!find_mcnc_circuit(spec.circuit))
    return "unknown circuit '" + spec.circuit + "'";
  if (!(spec.scale > 0)) return "scale must be > 0";
  EmbedVariant v;
  if (spec.variant != "none" && !parse_variant(spec.variant, &v))
    return "unknown variant '" + spec.variant + "'";
  PlacerBackend pb;
  if (!spec.placer.empty() && !parse_placer_backend(spec.placer, &pb))
    return "unknown placer '" + spec.placer + "'";
  if (spec.engine_threads < 0) return "engine_threads must be >= 0";
  if (spec.timeout_seconds < 0) return "timeout_seconds must be >= 0";
  if (!stage_name_valid(spec.inject_fail_stage)) return "bad inject_fail stage";
  if (!stage_name_valid(spec.inject_hang_stage)) return "bad inject_hang stage";
  return "";
}

std::vector<std::string> validate_batch(const std::vector<JobSpec>& specs) {
  std::vector<std::string> errors(specs.size());
  std::vector<const std::string*> seen_ids;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    errors[i] = validate_job_spec(specs[i]);
    if (!errors[i].empty()) continue;
    for (const std::string* id : seen_ids)
      if (*id == specs[i].id) {
        errors[i] = "duplicate job id '" + specs[i].id + "'";
        break;
      }
    if (errors[i].empty()) seen_ids.push_back(&specs[i].id);
  }
  return errors;
}

namespace {

void maybe_inject(const JobSpec& spec, const char* stage,
                  const CancelToken& token) {
  if (spec.inject_fail_stage == stage)
    throw std::runtime_error(std::string("injected failure in ") + stage);
  if (spec.inject_hang_stage == stage) {
    if (!token.has_deadline())
      throw std::runtime_error("inject_hang requires a stage timeout");
    // A hang that still honours cancellation points: spin until the stage
    // deadline (or a service shutdown) unwinds us.
    while (true) {
      token.check(stage);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

EngineSummary summarize(const EngineResult& r) {
  EngineSummary e;
  e.ran = true;
  e.initial_critical = r.initial_critical;
  e.final_critical = r.final_critical;
  e.initial_wirelength = r.initial_wirelength;
  e.final_wirelength = r.final_wirelength;
  e.initial_blocks = static_cast<std::int64_t>(r.initial_blocks);
  e.final_blocks = static_cast<std::int64_t>(r.final_blocks);
  e.total_replicated = r.total_replicated;
  e.total_unified = r.total_unified;
  e.iterations = static_cast<int>(r.history.size());
  e.ran_out_of_slots = r.ran_out_of_slots;
  e.reached_lower_bound = r.reached_lower_bound;
  e.lower_bound = r.lower_bound;
  e.region_truncations = r.region_truncations;
  return e;
}

}  // namespace

std::string ServiceStats::summary() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "jobs: %llu done, %llu failed (%llu quarantined), %llu timed "
                "out, %llu interrupted, %llu invalid | %llu retries, %llu "
                "resumed | %llu checkpoints (%llu bytes) | queue latency "
                "total %.3fs max %.3fs",
                static_cast<unsigned long long>(jobs_completed),
                static_cast<unsigned long long>(jobs_failed),
                static_cast<unsigned long long>(jobs_quarantined),
                static_cast<unsigned long long>(jobs_timed_out),
                static_cast<unsigned long long>(jobs_interrupted),
                static_cast<unsigned long long>(jobs_invalid),
                static_cast<unsigned long long>(jobs_retried),
                static_cast<unsigned long long>(jobs_resumed),
                static_cast<unsigned long long>(checkpoints_written),
                static_cast<unsigned long long>(checkpoint_bytes),
                queue_latency_seconds_total, queue_latency_seconds_max);
  return buf;
}

AttemptOutcome run_attempt(const std::function<void()>& attempt,
                           std::string* error) {
  error->clear();
  try {
    attempt();
    return AttemptOutcome::kDone;
  } catch (const FlowCancelled& e) {
    *error = e.what();
    return e.killed() ? AttemptOutcome::kKilled : AttemptOutcome::kDeadline;
  } catch (const AuditError& e) {
    *error = e.what();
    return AttemptOutcome::kAudit;
  } catch (const std::exception& e) {
    *error = e.what();
    return AttemptOutcome::kError;
  }
}

double retry_backoff_with_jitter(double base, int retry_index,
                                 std::uint64_t seed) {
  if (base <= 0 || retry_index < 1) return 0;
  // splitmix64 of (seed, retry_index): cheap, portable, and well-mixed even
  // for adjacent seeds/indices.
  std::uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(retry_index);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  // Uniform in [0.5, 1.0): halving the floor keeps the expected doubling
  // cadence while decorrelating jobs that fail at the same instant.
  const double f = 0.5 + 0.5 * (static_cast<double>(z >> 11) * 0x1.0p-53);
  return base * std::ldexp(1.0, retry_index - 1) * f;
}

RetryPolicy::RetryPolicy(const ServiceOptions& opt,
                         const std::atomic<bool>* shutdown)
    : max_retries_(opt.max_retries),
      backoff_base_(opt.retry_backoff_seconds),
      shutdown_(shutdown) {}

void RetryPolicy::reject(JobResult& r, const std::string& why) {
  r.state = JobState::kFailed;
  r.error_code = kJobInvalidSpec;
  r.error = why;
  invalid_.fetch_add(1, std::memory_order_relaxed);
}

void RetryPolicy::start(JobTicket& t, double submitted) {
  if (t.started_at >= 0) return;
  t.started_at = now_seconds();
  const double queued = t.started_at - submitted;
  t.result->queue_seconds = queued;
  const auto us = static_cast<std::uint64_t>(queued * 1e6);
  queue_us_total_.fetch_add(us, std::memory_order_relaxed);
  std::uint64_t cur = queue_us_max_.load(std::memory_order_relaxed);
  while (cur < us && !queue_us_max_.compare_exchange_weak(
                         cur, us, std::memory_order_relaxed)) {
  }
}

double RetryPolicy::settle(JobTicket& t, AttemptOutcome outcome,
                           const std::string& error) {
  JobResult& r = *t.result;
  if (t.attempt == 1 && r.resumed)
    resumed_.fetch_add(1, std::memory_order_relaxed);
  if (!error.empty()) r.error = error;
  switch (outcome) {
    case AttemptOutcome::kDone:
      r.state = JobState::kDone;
      r.error_code = kJobOk;
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AttemptOutcome::kDeadline:
      r.state = JobState::kTimedOut;
      r.error_code = kJobTimedOut;
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AttemptOutcome::kKilled:
      r.state = JobState::kCheckpointed;
      r.error_code = kJobInterrupted;
      interrupted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AttemptOutcome::kAudit:
      // Deterministic invariant violation: retrying reproduces it bit for
      // bit, so quarantine immediately and keep the batch moving.
      r.state = JobState::kFailed;
      r.error_code = kJobAuditFailed;
      quarantined_.fetch_add(1, std::memory_order_relaxed);
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case AttemptOutcome::kError:
      if (t.attempt <= max_retries_ &&
          !(shutdown_ && shutdown_->load(std::memory_order_relaxed))) {
        retried_.fetch_add(1, std::memory_order_relaxed);
        return retry_backoff_with_jitter(backoff_base_, t.attempt++,
                                         t.backoff_seed);
      }
      r.state = JobState::kFailed;
      r.error_code = kJobFailed;
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  t.finished = true;
  r.attempts = t.attempt;
  if (t.started_at >= 0) r.run_seconds = now_seconds() - t.started_at;
  return 0;
}

void RetryPolicy::run(JobTicket& t,
                      const std::function<void(int attempt)>& attempt) {
  std::string error;
  while (!t.finished) {
    const double backoff = settle(
        t, run_attempt([&] { attempt(t.attempt); }, &error), error);
    if (backoff > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
  }
}

std::uint64_t RetryPolicy::count_checkpoint(std::uint64_t bytes) {
  checkpoint_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
}

ServiceStats RetryPolicy::stats() const {
  auto get = [](const std::atomic<std::uint64_t>& v) {
    return v.load(std::memory_order_relaxed);
  };
  ServiceStats s;
  s.jobs_completed = get(completed_);
  s.jobs_failed = get(failed_);
  s.jobs_timed_out = get(timed_out_);
  s.jobs_interrupted = get(interrupted_);
  s.jobs_quarantined = get(quarantined_);
  s.jobs_invalid = get(invalid_);
  s.jobs_retried = get(retried_);
  s.jobs_resumed = get(resumed_);
  s.checkpoints_written = get(checkpoints_);
  s.checkpoint_bytes = get(checkpoint_bytes_);
  s.queue_latency_seconds_total =
      static_cast<double>(get(queue_us_total_)) / 1e6;
  s.queue_latency_seconds_max = static_cast<double>(get(queue_us_max_)) / 1e6;
  return s;
}

FlowService::FlowService(const ServiceOptions& opt)
    : opt_(opt), policy_(opt_, &shutdown_requested_) {}

std::string checkpoint_path(const ServiceOptions& opt,
                            const std::string& job_id) {
  return opt.checkpoint_dir + "/" + job_id + ".ckpt";
}

void create_checkpoint_dir(const ServiceOptions& opt) {
  if (opt.checkpoint_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(opt.checkpoint_dir), ec);
  if (ec)
    throw std::runtime_error("cannot create checkpoint dir " +
                             opt.checkpoint_dir + ": " + ec.message());
}

void FlowService::write_checkpoint(const FlowSnapshot& snap) {
  if (opt_.checkpoint_dir.empty()) return;
  const std::string bytes = serialize_snapshot(snap);
  write_file_atomic(checkpoint_path(opt_, snap.job_id), bytes);
  const std::uint64_t written = policy_.count_checkpoint(bytes.size());
  if (opt_.stop_after_checkpoints > 0 &&
      written >= static_cast<std::uint64_t>(opt_.stop_after_checkpoints))
    request_shutdown();
}

void run_flow_attempt(const ServiceOptions& opt, const FlowAttemptRequest& req,
                      JobResult& out) {
  const JobSpec& spec = out.spec;
  const int attempt = req.attempt;
  FlowConfig cfg = opt.base;
  cfg.scale = spec.scale;
  cfg.seed = spec.seed;
  if (!spec.placer.empty())  // validated at submit; "" inherits the default
    parse_placer_backend(spec.placer, &cfg.placer);
  cfg.num_threads =
      spec.engine_threads > 0 ? spec.engine_threads : opt.engine_threads;

  const double timeout = spec.timeout_seconds > 0 ? spec.timeout_seconds
                                                  : opt.job_timeout_seconds;
  auto make_token = [&](CancelToken& token) {
    token.set_kill_flag(req.kill_flag);
    if (timeout > 0) token.set_deadline_after(timeout);
  };

  // Fresh state or resumed checkpoint (a file the service read back, or a
  // snapshot the coordinator streamed with the assignment).
  FlowSnapshot snap;
  bool resumed = false;
  if (!req.resume.empty()) {
    try {
      snap = parse_snapshot(req.resume);
      // The checkpoint must describe the same work; a stale snapshot from a
      // previous batch with different parameters restarts from scratch.
      resumed = snap.circuit == spec.circuit && snap.variant == spec.variant &&
                snap.cfg.placer == cfg.placer && snap.cfg.seed == spec.seed &&
                snap.cfg.scale == spec.scale &&
                snap.stage >= FlowStage::kPlaced;
    } catch (const SnapshotError& e) {
      // An unreadable checkpoint means a fresh run, never a dead job.
      LOG_WARN() << "job " << spec.id
                 << ": ignoring unreadable checkpoint: " << e.what();
    }
    if (resumed)
      snap.cfg.num_threads = cfg.num_threads;  // never changes results
    else
      snap = FlowSnapshot{};
  }
  if (!resumed) {
    snap.job_id = spec.id;
    snap.circuit = spec.circuit;
    snap.variant = spec.variant;
    snap.stage = FlowStage::kInit;
    snap.cfg = cfg;
    snap.rng_state = Rng(spec.seed).state();
  }
  if (resumed && attempt == 1) out.resumed = true;

  // The job-level RNG stream position is part of the snapshot: stages that
  // draw from it (the annealer seed today) advance it, so a resumed run
  // continues the exact stream of the straight-through run.
  Rng rng;
  rng.set_state(snap.rng_state);

  // ---- invariant auditing (src/audit) -------------------------------------
  // cfg.audit is process-local (never serialized), so a resumed snapshot is
  // audited at the CURRENT service's level, not the writer's. The cumulative
  // check counter follows the same rule: restore it only when auditing is on
  // (it stands in for the skipped stages' audits, keeping the result line's
  // `audit_checks` byte-identical to an uninterrupted run), zero it when the
  // current service audits nothing.
  snap.cfg.audit = cfg.audit;
  if (cfg.audit == AuditLevel::kOff) snap.audit_checks = 0;
  out.audit_checks += snap.audit_checks;
  // Pre-replication golden for the functional-equivalence check. Captured by
  // copy before the engine mutates the netlist; on resume it is regenerated
  // from the spec (generation is deterministic in (circuit, scale, seed)).
  std::unique_ptr<Netlist> golden;
  auto ensure_golden = [&]() {
    if (golden) return;
    const McncCircuit* c = find_mcnc_circuit(spec.circuit);
    golden = std::make_unique<Netlist>(
        generate_circuit(spec_for(*c, cfg.scale, cfg.seed)));
  };
  auto record_audit_failure = [&](const AuditError& e) {
    out.audit_stage = e.stage();
    out.audit_findings = static_cast<int>(
        e.report().count_at_least(AuditSeverity::kError));
    out.audit_jsonl = e.report().to_jsonl_lines();
  };
  auto audit_after = [&](const std::string& stage, const Netlist* gold,
                         bool count = true) {
    if (cfg.audit == AuditLevel::kOff) return;
    AuditOptions aud;
    aud.level = cfg.audit;
    aud.seed = cfg.seed;
    Auditor auditor(aud);
    AuditReport rep = auditor.audit_stage(stage, *snap.nl, snap.pl.get(),
                                          &cfg.delay, gold, nullptr);
    // The defensive re-audit of a restored snapshot (count=false) still
    // throws on violations but stays out of the deterministic counters: an
    // uninterrupted run never performs it, and the restored snap.audit_checks
    // already accounts for the completed stages.
    if (count) {
      out.audit_checks += rep.checks_run;
      snap.audit_checks += rep.checks_run;
    }
    if (!rep.clean()) {
      AuditError err(stage, std::move(rep));
      record_audit_failure(err);
      throw err;
    }
  };
  if (cfg.audit != AuditLevel::kOff)
    out.audit_level = audit_level_name(cfg.audit);

  // A resumed snapshot came from an untrusted file: re-audit the restored
  // state before building on it. Post-replication states are also checked
  // for functional equivalence against the regenerated golden.
  if (resumed && cfg.audit != AuditLevel::kOff) {
    const Netlist* gold = nullptr;
    if (snap.stage >= FlowStage::kReplicated && spec.variant != "none") {
      ensure_golden();
      gold = golden.get();
    }
    audit_after("resume", gold, /*count=*/false);
  }

  // ---- stage: place (generate + anneal) -----------------------------------
  if (snap.stage < FlowStage::kPlaced) {
    CancelToken token;
    make_token(token);
    maybe_inject(spec, "place", token);
    reset_peak_rss();
    const double t0 = now_seconds();
    const McncCircuit* c = find_mcnc_circuit(spec.circuit);
    snap.nl = std::make_unique<Netlist>(
        generate_circuit(spec_for(*c, cfg.scale, cfg.seed)));
    snap.grid_n = FpgaGrid::min_grid_for(
        snap.nl->num_logic(),
        snap.nl->num_input_pads() + snap.nl->num_output_pads());
    snap.grid = std::make_unique<FpgaGrid>(snap.grid_n, snap.grid_io_rat);
    PlacerOptions popt;
    popt.backend = cfg.placer;
    popt.annealer = cfg.annealer;
    popt.annealer.seed = rng.next_u64();
    popt.annealer.cancel = &token;
    popt.analytic = cfg.analytic;
    // Stage batteries inside place_circuit (place.analytic / place.polish)
    // run at the service's audit level; the job-level "place" battery below
    // still covers the final placement for every backend.
    popt.audit = cfg.audit;
    popt.audit_seed = cfg.seed;
    try {
      snap.pl = std::make_unique<Placement>(
          place_circuit(*snap.nl, *snap.grid, cfg.delay, popt));
    } catch (const AuditError& e) {
      record_audit_failure(e);
      throw;
    }
    snap.rng_state = rng.state();
    snap.place_seconds = now_seconds() - t0;
    out.place_peak_rss_bytes = peak_rss_bytes();
    snap.stage = FlowStage::kPlaced;
    audit_after("place", nullptr);
    if (req.on_checkpoint) req.on_checkpoint(snap);
  }
  out.place_seconds = snap.place_seconds;
  out.completed_stage = snap.stage;

  // ---- stage: replicate ---------------------------------------------------
  if (snap.stage < FlowStage::kReplicated) {
    CancelToken token;
    make_token(token);
    maybe_inject(spec, "replicate", token);
    reset_peak_rss();
    const double t0 = now_seconds();
    if (spec.variant != "none") {
      if (cfg.audit != AuditLevel::kOff)
        golden = std::make_unique<Netlist>(*snap.nl);
      EngineOptions eopt;
      parse_variant(spec.variant, &eopt.variant);
      eopt.num_threads = cfg.num_threads;
      eopt.cancel = &token;
      EngineResult r =
          run_replication_engine(*snap.nl, *snap.pl, cfg.delay, eopt);
      snap.engine = summarize(r);
      const std::string err = snap.nl->validate();
      if (!err.empty())
        throw std::runtime_error("netlist invalid after replication: " + err);
      if (!snap.pl->legal())
        throw std::runtime_error("placement illegal after replication: " +
                                 snap.pl->check_legal());
    }
    snap.rng_state = rng.state();
    snap.replicate_seconds = now_seconds() - t0;
    out.replicate_peak_rss_bytes = peak_rss_bytes();
    snap.stage = FlowStage::kReplicated;
    audit_after("replicate", golden.get());
    if (req.on_checkpoint) req.on_checkpoint(snap);
  }
  out.replicate_seconds = snap.replicate_seconds;
  out.engine = snap.engine;
  out.completed_stage = snap.stage;

  // ---- stage: route -------------------------------------------------------
  if (snap.stage < FlowStage::kRouted) {
    CancelToken token;
    make_token(token);
    maybe_inject(spec, "route", token);
    reset_peak_rss();
    if (spec.route) {
      FlowConfig rcfg = cfg;
      rcfg.router.cancel = &token;
      try {
        // evaluate_routed runs the route-occupancy audits itself (it owns
        // the RoutingResult); surface a failure's findings like ours.
        snap.metrics = evaluate_routed(spec.circuit, *snap.nl, *snap.pl, rcfg);
      } catch (const AuditError& e) {
        record_audit_failure(e);
        throw;
      }
      // Replication-stage observability piggybacks on the metrics record:
      // truncated embeddings must be visible in result lines, not just logs.
      snap.metrics.embed_region_truncations = snap.engine.region_truncations;
      snap.has_metrics = true;
    }
    snap.rng_state = rng.state();
    out.route_peak_rss_bytes = peak_rss_bytes();
    snap.stage = FlowStage::kRouted;
    if (req.on_checkpoint) req.on_checkpoint(snap);
  }
  out.arena_bytes = arena_counters().total_bytes();
  out.has_metrics = snap.has_metrics;
  out.metrics = snap.metrics;
  out.route_seconds = snap.has_metrics ? snap.metrics.route_seconds : 0;
  out.completed_stage = snap.stage;
}

void FlowService::run_job(JobTicket& t, double submitted) {
  policy_.start(t, submitted);
  JobResult& r = *t.result;
  policy_.run(t, [&](int attempt) {
    FlowAttemptRequest req;
    req.attempt = attempt;
    // A retry after a failure (attempt > 1) starts again from the last
    // stage-boundary checkpoint on disk; a missing file is a fresh run.
    if ((opt_.resume || attempt > 1) && !opt_.checkpoint_dir.empty())
      read_file(checkpoint_path(opt_, r.spec.id), &req.resume);
    req.on_checkpoint = [this](const FlowSnapshot& s) { write_checkpoint(s); };
    req.kill_flag = &shutdown_requested_;
    run_flow_attempt(opt_, req, r);
  });
}

std::vector<JobResult> FlowService::run_batch(
    const std::vector<JobSpec>& specs) {
  create_checkpoint_dir(opt_);

  std::vector<JobResult> results(specs.size());
  std::vector<JobTicket> tickets(specs.size());
  const std::vector<std::string> errors = validate_batch(specs);
  std::vector<JobTicket*> jobs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    results[i].spec = specs[i];
    if (!errors[i].empty()) {
      policy_.reject(results[i], errors[i]);
      continue;
    }
    JobTicket& t = tickets[i];
    t.result = &results[i];
    // Retry backoff jitter is seeded from the job id so simultaneous
    // retries of different jobs spread out deterministically.
    t.backoff_seed = fnv1a64(specs[i].id);
    jobs.push_back(&t);
  }
  // One chunk per job: the caller and the pool's workers run `threads` jobs
  // at a time, claiming them in submission order.
  const unsigned concurrent = opt_.threads > 0 ? static_cast<unsigned>(opt_.threads)
                                               : ThreadPool::hardware_threads();
  ThreadPool pool(concurrent);
  const double submitted = now_seconds();
  pool.parallel_for(jobs.size(), 1, [&](std::size_t k) {
    run_job(*jobs[k], submitted);
  });
  return results;
}

void FlowService::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
}

JobSpec parse_job_line(const std::string& line) {
  const auto obj = parse_jsonl_object(line);
  JobSpec spec;
  for (const auto& [key, v] : obj) {
    if (key == "id") spec.id = json_string(v, key);
    else if (key == "circuit") spec.circuit = json_string(v, key);
    else if (key == "scale") spec.scale = json_number(v, key);
    else if (key == "seed") spec.seed = json_u64(v, key);
    else if (key == "variant") spec.variant = json_string(v, key);
    else if (key == "placer") spec.placer = json_string(v, key);
    else if (key == "route") spec.route = json_bool(v, key);
    else if (key == "engine_threads") spec.engine_threads = json_i32(v, key);
    else if (key == "timeout_seconds")
      spec.timeout_seconds = json_number(v, key);
    else if (key == "inject_fail") spec.inject_fail_stage = json_string(v, key);
    else if (key == "inject_hang") spec.inject_hang_stage = json_string(v, key);
    else throw JsonlError("unknown job key \"" + key + "\"");
  }
  return spec;
}

std::string format_result_line(const JobResult& r, bool stable) {
  JsonlWriter w;
  w.field("id", r.spec.id);
  w.field("circuit", r.spec.circuit);
  w.field("variant", r.spec.variant);
  // Backend field appears only when the job asked for a non-default backend,
  // so annealer batches stay byte-identical to pre-placer output.
  if (!r.spec.placer.empty() && r.spec.placer != "annealer")
    w.field("placer", r.spec.placer);
  w.field("seed", static_cast<std::uint64_t>(r.spec.seed));
  w.field("scale", r.spec.scale);
  w.field("state", job_state_name(r.state));
  w.field("error_code", r.error_code);
  if (!r.error.empty()) w.field("error", r.error);
  w.field("completed_stage", flow_stage_name(r.completed_stage));
  // Audit fields appear only when auditing ran, so audit-off batches stay
  // byte-identical to pre-audit output.
  if (!r.audit_level.empty()) {
    w.field("audit_level", r.audit_level);
    w.field("audit_checks", r.audit_checks);
    if (!r.audit_stage.empty()) {
      w.field("audit_stage", r.audit_stage);
      w.field("audit_findings", r.audit_findings);
    }
  }
  if (r.engine.ran) {
    w.field("initial_critical_ns", r.engine.initial_critical);
    w.field("final_critical_ns", r.engine.final_critical);
    w.field("replicated", r.engine.total_replicated);
    w.field("unified", r.engine.total_unified);
    w.field("engine_iterations", r.engine.iterations);
  }
  if (r.has_metrics) {
    const CircuitMetrics& m = r.metrics;
    w.field("crit_winf_ns", m.crit_winf);
    w.field("crit_wls_ns", m.crit_wls);
    w.field("wirelength", static_cast<std::int64_t>(m.wirelength));
    w.field("wmin", m.wmin);
    w.field("luts", static_cast<std::uint64_t>(m.luts));
    w.field("ios", static_cast<std::uint64_t>(m.ios));
    w.field("blocks", static_cast<std::uint64_t>(m.blocks));
    w.field("fpga_n", m.fpga_n);
    w.field("density", m.density);
    w.field("route_nodes_expanded", m.route_nodes_expanded);
    w.field("route_passes", m.route_passes);
    // Appears only when the max_region_points guard actually fired, so
    // guard-off batches stay byte-identical to pre-counter output.
    if (m.embed_region_truncations > 0)
      w.field("region_truncations", m.embed_region_truncations);
  }
  if (!stable) {
    w.field("attempts", r.attempts);
    w.field("resumed", r.resumed);
    w.field("queue_seconds", r.queue_seconds);
    w.field("run_seconds", r.run_seconds);
    w.field("place_seconds", r.place_seconds);
    w.field("replicate_seconds", r.replicate_seconds);
    w.field("route_seconds", r.route_seconds);
    w.field("place_peak_rss_bytes", r.place_peak_rss_bytes);
    w.field("replicate_peak_rss_bytes", r.replicate_peak_rss_bytes);
    w.field("route_peak_rss_bytes", r.route_peak_rss_bytes);
    w.field("arena_bytes", r.arena_bytes);
  }
  return w.take();
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kCheckpointed: return "CHECKPOINTED";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kTimedOut: return "TIMED_OUT";
  }
  return "?";
}

}  // namespace repro
