// Distributed flow service tests: frame codec hardening, protocol
// round-trips, and the chaos matrix — a coordinator plus in-process worker
// threads under deterministic fault injection (kill at every stage boundary,
// corrupt frame, dropped connection, hung worker, zero-worker degradation,
// poison-job quarantine), each run byte-compared against the single-process
// FlowService result log. The invariant under test is the headline one:
// stable-form results are identical for every worker count and every failure
// schedule.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/frame.h"
#include "dist/protocol.h"
#include "dist/worker.h"
#include "serve/jsonl.h"
#include "serve/service.h"
#include "util/socket.h"

namespace repro {
namespace {

// Scratch directory unique to the test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("repro_dist_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// ---- frame codec ----------------------------------------------------------

TEST(Frame, RoundTripsThroughArbitraryChunking) {
  const std::string payloads[] = {"", std::string("\0\x01\xff binary", 10),
                                  std::string(100000, 'x')};
  std::string stream;
  for (std::uint32_t i = 0; i < 3; ++i)
    stream += encode_frame(i + 1, payloads[i]);

  // Feed one byte at a time: the decoder must reassemble exact boundaries.
  FrameDecoder dec;
  std::vector<Frame> got;
  Frame f;
  for (char c : stream) {
    dec.feed(std::string_view(&c, 1));
    while (dec.next(&f)) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i].tag, i + 1);
    EXPECT_EQ(got[i].payload, payloads[i]);
  }
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(Frame, IncompleteFrameIsNotAnError) {
  const std::string bytes = encode_frame(7, "partial delivery");
  FrameDecoder dec;
  dec.feed(std::string_view(bytes).substr(0, bytes.size() - 1));
  Frame f;
  EXPECT_FALSE(dec.next(&f));  // waiting, not corrupt
  dec.feed(std::string_view(bytes).substr(bytes.size() - 1));
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.payload, "partial delivery");
}

TEST(Frame, DetectsPayloadCorruption) {
  std::string bytes = encode_frame(5, "checksummed payload");
  bytes[kFrameHeaderBytes + 4] ^= 0x20;  // flip one payload byte
  FrameDecoder dec;
  dec.feed(bytes);
  Frame f;
  EXPECT_THROW(dec.next(&f), FrameError);
}

TEST(Frame, DetectsHeaderCorruption) {
  {
    std::string bytes = encode_frame(5, "x");
    bytes[0] ^= 0xff;  // bad magic
    FrameDecoder dec;
    dec.feed(bytes);
    Frame f;
    EXPECT_THROW(dec.next(&f), FrameError);
  }
  {
    std::string bytes = encode_frame(5, "x");
    bytes[4] ^= 0xff;  // unsupported frame version
    FrameDecoder dec;
    dec.feed(bytes);
    Frame f;
    EXPECT_THROW(dec.next(&f), FrameError);
  }
}

TEST(Frame, RejectsImplausiblePayloadLength) {
  const std::string bytes = encode_frame(5, std::string(64, 'y'));
  FrameDecoder dec(/*max_payload=*/16);
  dec.feed(bytes);
  Frame f;
  EXPECT_THROW(dec.next(&f), FrameError);
}

TEST(Frame, UnknownTagStillFramesCleanly) {
  // The codec is content-agnostic: a receiver can skip a tag it does not
  // know and keep the stream — that is the forward-compatibility story.
  FrameDecoder dec;
  dec.feed(encode_frame(0xdeadbeef, "future message kind"));
  dec.feed(encode_frame(kFrameHeartbeat, encode_heartbeat({42})));
  Frame f;
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.tag, 0xdeadbeefu);
  ASSERT_TRUE(dec.next(&f));
  EXPECT_EQ(f.tag, static_cast<std::uint32_t>(kFrameHeartbeat));
  EXPECT_EQ(decode_heartbeat(f.payload).seq, 42u);
}

// ---- protocol messages ----------------------------------------------------

TEST(Protocol, HandshakeMessagesRoundTrip) {
  const HelloMsg h = decode_hello(encode_hello({kProtocolVersion, 12345}));
  EXPECT_EQ(h.protocol_version, kProtocolVersion);
  EXPECT_EQ(h.pid, 12345u);
  EXPECT_EQ(decode_hello_ack(encode_hello_ack({9})).worker_id, 9u);
}

TEST(Protocol, AssignRoundTripsEveryJobSpecField) {
  AssignMsg m;
  m.job_index = 3;
  m.attempt = 2;
  m.spec.id = "j-\"quoted\"";
  m.spec.circuit = "ex5p";
  m.spec.scale = 0.07;
  m.spec.seed = 987654321;
  m.spec.variant = "mc";
  m.spec.placer = "hybrid";
  m.spec.route = false;
  m.spec.engine_threads = 4;
  m.spec.timeout_seconds = 12.5;
  m.spec.inject_fail_stage = "route";
  m.spec.inject_hang_stage = "place";
  m.snapshot = std::string("\x00\x01snapshot bytes", 15);

  const AssignMsg d = decode_assign(encode_assign(m));
  EXPECT_EQ(d.job_index, 3u);
  EXPECT_EQ(d.attempt, 2u);
  EXPECT_EQ(d.spec.id, m.spec.id);
  EXPECT_EQ(d.spec.circuit, "ex5p");
  EXPECT_DOUBLE_EQ(d.spec.scale, 0.07);
  EXPECT_EQ(d.spec.seed, 987654321u);
  EXPECT_EQ(d.spec.variant, "mc");
  EXPECT_EQ(d.spec.placer, "hybrid");
  EXPECT_FALSE(d.spec.route);
  EXPECT_EQ(d.spec.engine_threads, 4);
  EXPECT_DOUBLE_EQ(d.spec.timeout_seconds, 12.5);
  EXPECT_EQ(d.spec.inject_fail_stage, "route");
  EXPECT_EQ(d.spec.inject_hang_stage, "place");
  EXPECT_EQ(d.snapshot, m.snapshot);
}

TEST(Protocol, ResultRoundTripsMetricsAndAudit) {
  ResultMsg m;
  m.job_index = 1;
  m.attempt = 3;
  m.outcome = AttemptOutcome::kAudit;
  m.error = "audit: overlap at (3,4)";
  m.completed_stage = 2;
  m.resumed = true;
  m.has_metrics = true;
  m.metrics.wirelength = 1234;
  m.audit_level = "paranoid";
  m.audit_checks = 17;
  m.audit_stage = "replicate";
  m.audit_findings = 2;
  m.audit_jsonl = "{\"kind\":\"overlap\"}";
  m.place_seconds = 1.25;
  m.route_peak_rss_bytes = 1ull << 33;
  m.arena_bytes = 4096;

  const ResultMsg d = decode_result(encode_result(m));
  EXPECT_EQ(d.attempt, 3u);
  EXPECT_EQ(d.outcome, AttemptOutcome::kAudit);
  EXPECT_EQ(d.error, m.error);
  EXPECT_EQ(d.completed_stage, 2);
  EXPECT_TRUE(d.resumed);
  ASSERT_TRUE(d.has_metrics);
  EXPECT_EQ(d.metrics.wirelength, 1234);
  EXPECT_EQ(d.audit_level, "paranoid");
  EXPECT_EQ(d.audit_checks, 17);
  EXPECT_EQ(d.audit_stage, "replicate");
  EXPECT_EQ(d.audit_findings, 2);
  EXPECT_EQ(d.audit_jsonl, m.audit_jsonl);
  EXPECT_DOUBLE_EQ(d.place_seconds, 1.25);
  EXPECT_EQ(d.route_peak_rss_bytes, 1ull << 33);
  EXPECT_EQ(d.arena_bytes, 4096u);
}

TEST(Protocol, DecodersRejectMalformedPayloads) {
  EXPECT_THROW(decode_assign(""), FrameError);
  EXPECT_THROW(decode_result("garbage"), FrameError);
  const std::string ok = encode_result(ResultMsg{});
  EXPECT_THROW(decode_result(ok.substr(0, ok.size() / 2)), FrameError);
  EXPECT_THROW(decode_result(ok + "trailing"), FrameError);  // over-long
  EXPECT_THROW(decode_heartbeat("abc"), FrameError);
}

// The coordinator must merge a remote attempt's payload into the shared
// result slot exactly the way the in-process retry loop does: audit checks
// accumulate across attempts and a failed attempt's error survives a later
// successful attempt (its message is empty, so it must not overwrite).
TEST(Protocol, ApplyResultPayloadReplicatesSharedSlotSemantics) {
  JobResult r;
  r.error = "attempt 1: injected failure in route";
  r.audit_checks = 5;

  ResultMsg done;
  done.outcome = AttemptOutcome::kDone;
  done.error = "";  // success carries no message
  done.audit_checks = 7;
  done.has_metrics = true;
  done.metrics.wirelength = 42;
  apply_result_payload(done, r);

  EXPECT_EQ(r.error, "attempt 1: injected failure in route");
  EXPECT_EQ(r.audit_checks, 12);  // accumulated, not replaced
  EXPECT_TRUE(r.has_metrics);
  EXPECT_EQ(r.metrics.wirelength, 42);

  ResultMsg failed;
  failed.outcome = AttemptOutcome::kError;
  failed.error = "new failure";
  apply_result_payload(failed, r);
  EXPECT_EQ(r.error, "new failure");  // real message does overwrite
}

// ---- fault plan parsing ---------------------------------------------------

TEST(FaultPlan, ParsesEveryHookAndCombinations) {
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(parse_fault_plan("", &p, &err));
  EXPECT_FALSE(p.any());

  ASSERT_TRUE(parse_fault_plan("drop_connection_after_frames=3", &p, &err));
  EXPECT_EQ(p.drop_after_frames, 3);

  ASSERT_TRUE(parse_fault_plan("corrupt_frame=2,hang_worker=replicate:4", &p,
                               &err))
      << err;
  EXPECT_EQ(p.corrupt_frame, 2);
  EXPECT_EQ(p.hang_stage, "replicate");
  EXPECT_EQ(p.hang_nth, 4);

  ASSERT_TRUE(parse_fault_plan("kill_worker_at_stage=route", &p, &err));
  EXPECT_EQ(p.kill_stage, "route");
  EXPECT_EQ(p.kill_nth, 1);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  FaultPlan p;
  std::string err;
  EXPECT_FALSE(parse_fault_plan("no_such_hook=1", &p, &err));
  EXPECT_FALSE(parse_fault_plan("corrupt_frame=zero", &p, &err));
  EXPECT_FALSE(parse_fault_plan("corrupt_frame=0", &p, &err));
  EXPECT_FALSE(parse_fault_plan("kill_worker_at_stage=synthesize", &p, &err));
  EXPECT_FALSE(parse_fault_plan("hang_worker=place:x", &p, &err));
}

// ---- chaos matrix ---------------------------------------------------------

std::vector<std::string> stable_lines(const std::vector<JobResult>& results) {
  std::vector<std::string> lines;
  for (const auto& r : results) lines.push_back(format_result_line(r, true));
  return lines;
}

// Three small jobs covering route/variant diversity; identical to the batch
// the CI chaos script runs.
const std::vector<JobSpec>& chaos_batch() {
  static const std::vector<JobSpec> specs = [] {
    std::vector<JobSpec> s(3);
    s[0].id = "j1";
    s[0].circuit = "tseng";
    s[0].scale = 0.05;
    s[0].seed = 3;
    s[0].variant = "lex3";
    s[1].id = "j2";
    s[1].circuit = "ex5p";
    s[1].scale = 0.05;
    s[1].seed = 5;
    s[1].variant = "rt";
    s[2].id = "j3";
    s[2].circuit = "s298";
    s[2].scale = 0.04;
    s[2].seed = 9;
    s[2].variant = "none";
    for (auto& spec : s) {
      spec.route = true;
      spec.engine_threads = 1;
    }
    return s;
  }();
  return specs;
}

// Golden result log: the uninterrupted single-process run, computed once.
const std::vector<std::string>& chaos_golden() {
  static const std::vector<std::string> lines = [] {
    ServiceOptions opt;
    opt.threads = 1;
    FlowService svc(opt);
    return stable_lines(svc.run_batch(chaos_batch()));
  }();
  return lines;
}

struct DistParams {
  std::vector<FaultPlan> workers;  ///< one in-process worker per entry
  double heartbeat_timeout_s = 1.5;
  double degrade_grace_s = 0.25;
  int max_worker_deaths_per_job = 2;
  double worker_heartbeat_s = 0.05;
  double hang_max_s = 1.5;
};

struct DistRun {
  std::vector<JobResult> results;
  DistStats dist;
  ServiceStats stats;
  std::vector<int> worker_rcs;
};

// Runs the batches one after another through one coordinator on an
// ephemeral TCP port with the requested in-process worker threads, then
// shuts everything down. `results` holds every batch's, in order.
DistRun run_dist_batches(const ServiceOptions& sopt,
                         const std::vector<std::vector<JobSpec>>& batches,
                         const DistParams& p) {
  CoordinatorOptions copt;
  copt.service = sopt;
  std::string err;
  EXPECT_TRUE(SocketAddr::parse("tcp:0", &copt.listen, &err)) << err;
  copt.heartbeat_timeout_s = p.heartbeat_timeout_s;
  copt.degrade_grace_s = p.degrade_grace_s;
  copt.max_worker_deaths_per_job = p.max_worker_deaths_per_job;

  Coordinator coord(copt);
  const SocketAddr bound = coord.start();

  std::atomic<bool> stop{false};
  std::vector<int> rcs(p.workers.size(), -1);
  std::vector<std::thread> threads;
  threads.reserve(p.workers.size());
  for (std::size_t i = 0; i < p.workers.size(); ++i) {
    WorkerOptions wopt;
    wopt.service = sopt;
    wopt.connect = bound;
    wopt.fault = p.workers[i];
    wopt.heartbeat_interval_s = p.worker_heartbeat_s;
    wopt.hang_max_s = p.hang_max_s;
    threads.emplace_back(
        [&rcs, &stop, i, wopt] { rcs[i] = run_worker(wopt, &stop); });
  }

  DistRun out;
  for (const std::vector<JobSpec>& specs : batches)
    for (JobResult& r : coord.run_batch(specs))
      out.results.push_back(std::move(r));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  coord.stop();
  out.dist = coord.dist_stats();
  out.stats = coord.stats();
  out.worker_rcs = rcs;
  return out;
}

DistRun run_dist(const ServiceOptions& sopt, const std::vector<JobSpec>& specs,
                 const DistParams& p) {
  return run_dist_batches(sopt, {specs}, p);
}

// Plain distributed runs: 1, 2 and 4 workers, no faults — the result log
// must match the single-process run byte-for-byte, and every job must have
// executed remotely.
TEST(DistChaos, PlainRunsAreByteIdenticalForEveryWorkerCount) {
  for (const int workers : {1, 2, 4}) {
    ServiceOptions sopt;
    sopt.threads = 1;
    DistParams p;
    p.workers.assign(static_cast<std::size_t>(workers), FaultPlan{});
    const DistRun run = run_dist(sopt, chaos_batch(), p);
    EXPECT_EQ(stable_lines(run.results), chaos_golden())
        << workers << " workers diverged from the single-process run";
    EXPECT_EQ(run.dist.jobs_completed_remote, 3u) << workers << " workers";
    EXPECT_EQ(run.dist.workers_died, 0u);
    EXPECT_GE(run.dist.checkpoints_streamed, 9u);  // 3 stages x 3 jobs
    for (const int rc : run.worker_rcs) EXPECT_EQ(rc, 0);
  }
}

// The acceptance matrix: kill one worker at every stage boundary, for 1, 2
// and 4 workers. The batch must finish (surviving workers or in-process
// degradation) and the result log must not move by a byte. A worker death
// never burns the job's retry budget: every job still reports attempt 1.
TEST(DistChaos, KillAtEveryStageBoundaryIsByteIdentical) {
  for (const int workers : {1, 2, 4}) {
    for (const char* stage : {"place", "replicate", "route"}) {
      ServiceOptions sopt;
      sopt.threads = 1;
      DistParams p;
      p.workers.assign(static_cast<std::size_t>(workers), FaultPlan{});
      p.workers[0].kill_stage = stage;
      p.workers[0].kill_nth = 1;
      const DistRun run = run_dist(sopt, chaos_batch(), p);
      EXPECT_EQ(stable_lines(run.results), chaos_golden())
          << workers << " workers, kill at " << stage;
      for (const auto& r : run.results) {
        EXPECT_EQ(r.state, JobState::kDone) << r.spec.id;
        EXPECT_EQ(r.attempts, 1) << r.spec.id
                                 << ": a worker death must not burn retries";
      }
      // With <= 3 workers the faulted one is guaranteed a job, so the kill
      // must actually have fired; with 4 it may have sat idle.
      if (workers <= 3) {
        EXPECT_GE(run.dist.workers_died, 1u)
            << workers << " workers, kill at " << stage;
        EXPECT_GE(run.dist.jobs_reassigned, 1u);
      }
    }
  }
}

TEST(DistChaos, CorruptFrameDropsOneConnectionNotTheBatch) {
  ServiceOptions sopt;
  sopt.threads = 1;
  DistParams p;
  p.workers.assign(2, FaultPlan{});
  p.workers[0].corrupt_frame = 2;
  const DistRun run = run_dist(sopt, chaos_batch(), p);
  EXPECT_EQ(stable_lines(run.results), chaos_golden());
  EXPECT_GE(run.dist.frame_errors, 1u);
  EXPECT_GE(run.dist.workers_died, 1u);  // dropped, then it reconnected
}

TEST(DistChaos, DroppedConnectionReconnectsAndFinishes) {
  ServiceOptions sopt;
  sopt.threads = 1;
  DistParams p;
  p.workers.assign(2, FaultPlan{});
  p.workers[1].drop_after_frames = 2;
  const DistRun run = run_dist(sopt, chaos_batch(), p);
  EXPECT_EQ(stable_lines(run.results), chaos_golden());
  EXPECT_GE(run.dist.workers_died, 1u);
  for (const int rc : run.worker_rcs) EXPECT_EQ(rc, 0);
}

// A hung worker is the worst liveness case: the TCP peer stays connected but
// stops making progress and stops heartbeating. Only the heartbeat deadline
// can catch it.
TEST(DistChaos, HungWorkerIsDetectedByHeartbeatDeadline) {
  ServiceOptions sopt;
  sopt.threads = 1;
  DistParams p;
  p.workers.assign(2, FaultPlan{});
  p.workers[0].hang_stage = "place";
  p.heartbeat_timeout_s = 0.5;
  p.hang_max_s = 1.5;
  const DistRun run = run_dist(sopt, chaos_batch(), p);
  EXPECT_EQ(stable_lines(run.results), chaos_golden());
  EXPECT_GE(run.dist.heartbeat_timeouts, 1u);
  EXPECT_GE(run.dist.jobs_reassigned, 1u);
}

// Zero workers ever: after the grace period the coordinator runs the batch
// itself. Degradation must be invisible in the result log.
TEST(DistChaos, ZeroWorkersDegradesToInProcessExecution) {
  ServiceOptions sopt;
  sopt.threads = 1;
  DistParams p;  // no workers
  p.degrade_grace_s = 0.1;
  const DistRun run = run_dist(sopt, chaos_batch(), p);
  EXPECT_EQ(stable_lines(run.results), chaos_golden());
  EXPECT_EQ(run.dist.jobs_degraded, 3u);
  EXPECT_EQ(run.dist.jobs_completed_remote, 0u);
}

// A poison job that keeps killing workers is quarantined from remote
// execution and finished in-process — resuming from the checkpoint the dead
// worker streamed before it died, so no work is repeated.
TEST(DistChaos, PoisonJobIsQuarantinedFromRemoteExecution) {
  ServiceOptions sopt;
  sopt.threads = 1;
  DistParams p;
  p.workers.assign(1, FaultPlan{});
  p.workers[0].kill_stage = "place";
  p.max_worker_deaths_per_job = 1;
  p.degrade_grace_s = 30;  // the quarantine path must fire, not degradation
  const std::vector<JobSpec> specs{chaos_batch()[0]};
  const DistRun run = run_dist(sopt, specs, p);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(format_result_line(run.results[0], true), chaos_golden()[0]);
  EXPECT_EQ(run.results[0].attempts, 1);
  EXPECT_EQ(run.dist.jobs_quarantined_remote, 1u);
  EXPECT_EQ(run.dist.workers_died, 1u);
  EXPECT_GE(run.dist.checkpoints_streamed, 1u);
  EXPECT_EQ(run.worker_rcs[0], 9);  // the in-process kill path unwound
}

// Genuine job failures (not worker deaths) follow the FlowService retry
// budget with the same jittered backoff and the same shared-result-slot
// semantics; the final log lines must match the in-process scheduler's.
TEST(DistChaos, RetryBudgetAndFailureLogMatchInProcessScheduler) {
  std::vector<JobSpec> specs{chaos_batch()[0], chaos_batch()[2]};
  specs[0].id = "poison";
  specs[0].inject_fail_stage = "route";

  ServiceOptions sopt;
  sopt.threads = 1;
  sopt.max_retries = 1;
  sopt.retry_backoff_seconds = 0.01;

  FlowService svc(sopt);
  const auto golden = stable_lines(svc.run_batch(specs));

  DistParams p;
  p.workers.assign(2, FaultPlan{});
  const DistRun run = run_dist(sopt, specs, p);
  EXPECT_EQ(stable_lines(run.results), golden);
  EXPECT_EQ(run.results[0].state, JobState::kFailed);
  EXPECT_EQ(run.results[0].attempts, 2);
  EXPECT_EQ(run.results[1].state, JobState::kDone);
  EXPECT_EQ(run.stats.jobs_retried, svc.stats().jobs_retried);
  EXPECT_EQ(run.stats.jobs_failed, svc.stats().jobs_failed);
}

// Invalid specs never reach a worker and report the same line either way.
TEST(DistChaos, InvalidSpecsAreRejectedIdentically) {
  std::vector<JobSpec> specs{chaos_batch()[0], chaos_batch()[2]};
  specs[0].id = "bogus";
  specs[0].circuit = "nonesuch";

  ServiceOptions sopt;
  sopt.threads = 1;
  FlowService svc(sopt);
  const auto golden = stable_lines(svc.run_batch(specs));

  DistParams p;
  p.workers.assign(1, FaultPlan{});
  const DistRun run = run_dist(sopt, specs, p);
  EXPECT_EQ(stable_lines(run.results), golden);
  EXPECT_EQ(run.results[0].state, JobState::kFailed);
  EXPECT_EQ(run.results[0].error_code, kJobInvalidSpec);
  EXPECT_EQ(run.stats.jobs_invalid, 1u);
}

// A checkpoint written by a single-process FlowService run is picked up by
// the coordinator in --resume mode and finished on a remote worker, landing
// on the uninterrupted run's bytes — the snapshot format, the streaming
// protocol and the disk format all agree.
TEST(DistService, ResumesSingleProcessCheckpointOnARemoteWorker) {
  TempDir dir("resume");
  const JobSpec spec = chaos_batch()[0];

  ServiceOptions crash_opt;
  crash_opt.threads = 1;
  crash_opt.checkpoint_dir = dir.path;
  crash_opt.stop_after_checkpoints = 1;
  FlowService crash(crash_opt);
  const auto crashed = crash.run_batch({spec});
  ASSERT_EQ(crashed[0].state, JobState::kCheckpointed);

  ServiceOptions sopt;
  sopt.threads = 1;
  sopt.checkpoint_dir = dir.path;
  sopt.resume = true;
  DistParams p;
  p.workers.assign(1, FaultPlan{});
  const DistRun run = run_dist(sopt, {spec}, p);
  ASSERT_EQ(run.results.size(), 1u);
  EXPECT_EQ(run.results[0].state, JobState::kDone);
  EXPECT_TRUE(run.results[0].resumed);
  EXPECT_EQ(run.stats.jobs_resumed, 1u);
  EXPECT_EQ(run.dist.jobs_completed_remote, 1u);
  EXPECT_EQ(format_result_line(run.results[0], true), chaos_golden()[0]);
}

// FlowService and the coordinator settle jobs with the same policy and count
// them over every batch they ran: two batches (a completed job and an
// invalid spec, then a completed job and a failure retried once) give the
// same log and the same counters on both paths.
TEST(DistService, StatsAccumulateOverBatchesLikeFlowService) {
  std::vector<JobSpec> first{chaos_batch()[0], chaos_batch()[2]};
  first[1].id = "bogus";
  first[1].circuit = "nonesuch";
  std::vector<JobSpec> second{chaos_batch()[2], chaos_batch()[1]};
  second[1].id = "flaky";
  second[1].inject_fail_stage = "route";

  ServiceOptions sopt;
  sopt.threads = 1;
  sopt.max_retries = 1;
  sopt.retry_backoff_seconds = 0.01;

  TempDir local_dir("stats_local");
  ServiceOptions local_opt = sopt;
  local_opt.checkpoint_dir = local_dir.path;
  FlowService svc(local_opt);
  std::vector<std::string> golden;
  for (const auto* batch : {&first, &second})
    for (const std::string& l : stable_lines(svc.run_batch(*batch)))
      golden.push_back(l);
  const ServiceStats local = svc.stats();
  EXPECT_EQ(local.jobs_completed, 2u) << "one completed job per batch";
  EXPECT_EQ(local.jobs_invalid, 1u);
  EXPECT_EQ(local.jobs_failed, 1u);
  EXPECT_EQ(local.jobs_retried, 1u);
  EXPECT_GT(local.checkpoints_written, 0u);

  TempDir dist_dir("stats_dist");
  ServiceOptions dist_opt = sopt;
  dist_opt.checkpoint_dir = dist_dir.path;
  DistParams p;
  p.workers.assign(1, FaultPlan{});
  const DistRun run = run_dist_batches(dist_opt, {first, second}, p);
  EXPECT_EQ(stable_lines(run.results), golden);
  const ServiceStats& dist = run.stats;
  EXPECT_EQ(dist.jobs_completed, local.jobs_completed);
  EXPECT_EQ(dist.jobs_failed, local.jobs_failed);
  EXPECT_EQ(dist.jobs_timed_out, local.jobs_timed_out);
  EXPECT_EQ(dist.jobs_interrupted, local.jobs_interrupted);
  EXPECT_EQ(dist.jobs_quarantined, local.jobs_quarantined);
  EXPECT_EQ(dist.jobs_invalid, local.jobs_invalid);
  EXPECT_EQ(dist.jobs_retried, local.jobs_retried);
  EXPECT_EQ(dist.jobs_resumed, local.jobs_resumed);
  EXPECT_EQ(dist.checkpoints_written, local.checkpoints_written);
  EXPECT_EQ(dist.checkpoint_bytes, local.checkpoint_bytes);
}

}  // namespace
}  // namespace repro
