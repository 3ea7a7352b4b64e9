// Flow service tests: snapshot format, checkpoint/resume determinism,
// retry-policy outcome classification and batch robustness.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "audit/auditor.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "serve/jsonl.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/cancel.h"
#include "util/rng.h"

namespace repro {
namespace {

// Scratch directory unique to the test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("repro_serve_" + name + "_" + std::to_string(::getpid())))
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

// ---- JSONL ----------------------------------------------------------------

TEST(Jsonl, ParsesFlatObject) {
  const auto obj = parse_jsonl_object(
      R"({"id":"a-1","scale":0.25,"route":true,"note":null})");
  ASSERT_EQ(obj.size(), 4u);
  EXPECT_EQ(obj.at("id").kind, JsonValue::Kind::kString);
  EXPECT_EQ(obj.at("id").str, "a-1");
  EXPECT_EQ(obj.at("scale").kind, JsonValue::Kind::kNumber);
  EXPECT_DOUBLE_EQ(obj.at("scale").num, 0.25);
  EXPECT_EQ(obj.at("route").kind, JsonValue::Kind::kBool);
  EXPECT_TRUE(obj.at("route").b);
  EXPECT_EQ(obj.at("note").kind, JsonValue::Kind::kNull);
}

TEST(Jsonl, RejectsMalformedInput) {
  EXPECT_THROW(parse_jsonl_object(""), JsonlError);
  EXPECT_THROW(parse_jsonl_object("{"), JsonlError);
  EXPECT_THROW(parse_jsonl_object(R"({"a":1} trailing)"), JsonlError);
  EXPECT_THROW(parse_jsonl_object(R"({"a":1,"a":2})"), JsonlError);
  EXPECT_THROW(parse_jsonl_object(R"({"a":{"nested":1}})"), JsonlError);
  EXPECT_THROW(parse_jsonl_object(R"({"a":[1,2]})"), JsonlError);
  EXPECT_THROW(parse_jsonl_object(R"({"a":12x})"), JsonlError);
  EXPECT_THROW(parse_jsonl_object(R"({"a":nan})"), JsonlError);
}

TEST(Jsonl, DoubleSurvivesTextRoundTripBitExactly) {
  const double v = 0.1 + 0.2;  // not representable "exactly" in decimal
  JsonlWriter w;
  w.field("v", v);
  const auto obj = parse_jsonl_object(w.take());
  EXPECT_EQ(obj.at("v").num, v);  // bitwise, not approximate
}

TEST(Jsonl, QuotesSpecialCharacters) {
  JsonlWriter w;
  w.field("k", std::string("a\"b\\c\nd"));
  const auto obj = parse_jsonl_object(w.take());
  EXPECT_EQ(obj.at("k").str, "a\"b\\c\nd");
}

TEST(Jsonl, ParseJobLineRejectsUnknownKeys) {
  EXPECT_NO_THROW(parse_job_line(R"({"id":"x","circuit":"tseng"})"));
  EXPECT_THROW(parse_job_line(R"({"id":"x","circut":"tseng"})"), JsonlError);
  EXPECT_THROW(parse_job_line(R"({"id":7})"), JsonlError);
}

// ---- snapshot format ------------------------------------------------------

FlowSnapshot make_placed_snapshot(const char* circuit, double scale,
                                  std::uint64_t seed) {
  FlowSnapshot s;
  s.job_id = std::string(circuit) + "-job";
  s.circuit = circuit;
  s.variant = "lex3";
  s.stage = FlowStage::kPlaced;
  s.cfg.scale = scale;
  s.cfg.seed = seed;
  Rng rng(seed);
  const McncCircuit* c = nullptr;
  for (const McncCircuit& m : mcnc_suite())
    if (s.circuit == m.name) c = &m;
  s.nl = std::make_unique<Netlist>(generate_circuit(spec_for(*c, scale, seed)));
  s.grid_n = FpgaGrid::min_grid_for(
      s.nl->num_logic(), s.nl->num_input_pads() + s.nl->num_output_pads());
  s.grid = std::make_unique<FpgaGrid>(s.grid_n, s.grid_io_rat);
  AnnealerOptions aopt;
  aopt.seed = rng.next_u64();
  s.pl = std::make_unique<Placement>(
      anneal_placement(*s.nl, *s.grid, s.cfg.delay, aopt));
  s.rng_state = rng.state();
  s.place_seconds = 1.25;
  return s;
}

TEST(Snapshot, RoundTripIsByteIdentical) {
  FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 11);
  const std::string bytes = serialize_snapshot(s);
  FlowSnapshot parsed = parse_snapshot(bytes);
  EXPECT_EQ(parsed.job_id, s.job_id);
  EXPECT_EQ(parsed.circuit, s.circuit);
  EXPECT_EQ(parsed.stage, FlowStage::kPlaced);
  EXPECT_EQ(parsed.rng_state, s.rng_state);
  ASSERT_TRUE(parsed.nl && parsed.pl && parsed.grid);
  EXPECT_EQ(parsed.nl->num_logic(), s.nl->num_logic());
  EXPECT_TRUE(parsed.pl->legal());
  // Serializing the parsed snapshot reproduces the input bytes exactly.
  EXPECT_EQ(serialize_snapshot(parsed), bytes);
}

TEST(Snapshot, PreservesPlacementOccupantOrderAndDeadCells) {
  FlowSnapshot s = make_placed_snapshot("ex5p", 0.05, 3);
  const std::string bytes = serialize_snapshot(s);
  FlowSnapshot parsed = parse_snapshot(bytes);
  ASSERT_EQ(parsed.nl->cell_capacity(), s.nl->cell_capacity());
  for (std::size_t i = 0; i < s.nl->cell_capacity(); ++i) {
    const CellId id(static_cast<CellId::value_type>(i));
    ASSERT_EQ(parsed.pl->placed(id), s.pl->placed(id));
    if (!s.pl->placed(id)) continue;
    EXPECT_EQ(parsed.pl->location(id), s.pl->location(id));
    // Occupant-list order at the location is observed by RNG-driven
    // consumers; it must survive the round trip verbatim.
    EXPECT_EQ(parsed.pl->cells_at(parsed.pl->location(id)),
              s.pl->cells_at(s.pl->location(id)));
  }
}

// Snapshot format v2: the placer backend and every analytic option field
// ride in the config block and must survive the round trip bit-exactly —
// a resumed job re-derives its placement trajectory from them.
TEST(Snapshot, PlacerBackendAndAnalyticOptionsRoundTrip) {
  FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 17);
  s.cfg.placer = PlacerBackend::kAnalytic;
  s.cfg.analytic.max_iterations = 123;
  s.cfg.analytic.target_overflow = 0.07;
  s.cfg.analytic.crit_weight = 17.5;
  s.cfg.analytic.reweight_start_overflow = 0.33;
  s.cfg.analytic.seed = 0xBEEF;
  const std::string bytes = serialize_snapshot(s);
  FlowSnapshot parsed = parse_snapshot(bytes);
  EXPECT_EQ(parsed.cfg.placer, PlacerBackend::kAnalytic);
  EXPECT_EQ(parsed.cfg.analytic.max_iterations, 123);
  EXPECT_DOUBLE_EQ(parsed.cfg.analytic.target_overflow, 0.07);
  EXPECT_DOUBLE_EQ(parsed.cfg.analytic.crit_weight, 17.5);
  EXPECT_DOUBLE_EQ(parsed.cfg.analytic.reweight_start_overflow, 0.33);
  EXPECT_EQ(parsed.cfg.analytic.seed, 0xBEEFull);
  EXPECT_EQ(serialize_snapshot(parsed), bytes);

  for (PlacerBackend b : {PlacerBackend::kAnnealer, PlacerBackend::kAnalytic,
                          PlacerBackend::kHybrid}) {
    FlowSnapshot v = make_placed_snapshot("tseng", 0.05, 18);
    v.cfg.placer = b;
    EXPECT_EQ(parse_snapshot(serialize_snapshot(v)).cfg.placer, b);
  }
}

// Job specs select the backend per job; unknown names must be rejected at
// submission, and the field round-trips through parse_job_line.
TEST(Jsonl, JobSpecPlacerField) {
  JobSpec spec =
      parse_job_line(R"({"id":"x","circuit":"tseng","placer":"analytic"})");
  EXPECT_EQ(spec.placer, "analytic");
  EXPECT_TRUE(parse_job_line(R"({"id":"x","circuit":"tseng"})").placer.empty());
}

TEST(Snapshot, RejectsCorruptedBytes) {
  FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 5);
  const std::string bytes = serialize_snapshot(s);

  // Bad magic.
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_THROW(parse_snapshot(bad), SnapshotError);

  // Unsupported version.
  bad = bytes;
  bad[4] = static_cast<char>(0x7F);
  EXPECT_THROW(parse_snapshot(bad), SnapshotError);

  // Flipped payload byte -> checksum mismatch, reported as corruption.
  bad = bytes;
  bad[bytes.size() / 2] ^= 0x20;
  try {
    parse_snapshot(bad);
    FAIL() << "corrupted snapshot accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }

  // Truncation at every structurally interesting prefix length.
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{3}, std::size_t{12}, bytes.size() - 1}) {
    EXPECT_THROW(parse_snapshot(std::string_view(bytes).substr(0, len)),
                 SnapshotError)
        << "prefix length " << len;
  }
}

TEST(Snapshot, FileRoundTripAndCorruptedFileRejected) {
  TempDir dir("snapfile");
  FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 7);
  const std::string path = dir.path + "/t.ckpt";
  write_snapshot_file(s, path);
  FlowSnapshot loaded = read_snapshot_file(path);
  EXPECT_EQ(serialize_snapshot(loaded), serialize_snapshot(s));

  // Corrupt one byte on disk; the reader must reject, not crash or accept.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 64, SEEK_SET);
    const char x = 'Z';
    std::fwrite(&x, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(read_snapshot_file(path), SnapshotError);
  EXPECT_THROW(read_snapshot_file(dir.path + "/missing.ckpt"), SnapshotError);
}

// Rewrites the header's payload-size and checksum fields to match the
// (possibly tampered-with) payload, so the tests below get past the outer
// integrity layer and hit the structural validation — modeling a buggy
// writer or an attacker who recomputed the checksum.
std::string refresh_header(std::string bytes) {
  const std::size_t header = 24;  // magic(4) version(4) size(8) checksum(8)
  EXPECT_GE(bytes.size(), header);
  const std::uint64_t size = bytes.size() - header;
  std::uint64_t sum = 0xcbf29ce484222325ULL;  // FNV-1a, as the writer uses
  for (std::size_t i = header; i < bytes.size(); ++i) {
    sum ^= static_cast<unsigned char>(bytes[i]);
    sum *= 0x100000001b3ULL;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<char>((size >> (8 * i)) & 0xFF);
    bytes[16 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST(Snapshot, RejectsTrailingGarbage) {
  const FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 5);
  const std::string bytes = serialize_snapshot(s);

  // Appended garbage the header does not account for: size mismatch.
  try {
    parse_snapshot(bytes + "extra");
    FAIL() << "snapshot with unaccounted trailing bytes accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos);
  }

  // Garbage folded into the declared payload with a recomputed checksum:
  // the reader must notice undecoded bytes remain, not silently accept.
  try {
    parse_snapshot(refresh_header(bytes + "extra"));
    FAIL() << "snapshot with checksummed trailing bytes accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"), std::string::npos);
  }
}

TEST(Snapshot, RejectsNonFiniteDoubles) {
  // A NaN or infinity in any double field (a writer-side bug) must be
  // rejected on read: resumed arithmetic would silently poison every
  // downstream metric.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 5);
    s.place_seconds = bad;
    try {
      parse_snapshot(serialize_snapshot(s));
      FAIL() << "snapshot with non-finite place_seconds accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
    }
    FlowSnapshot s2 = make_placed_snapshot("tseng", 0.05, 5);
    s2.cfg.scale = bad;
    EXPECT_THROW(parse_snapshot(serialize_snapshot(s2)), SnapshotError);
  }
}

TEST(Snapshot, RejectsOutOfRangeOccupantId) {
  // Checksum-valid snapshot whose placement section holds an occupant cell
  // id beyond the netlist's range — before validation was added this
  // overread the heap (see fuzz/crashes/snapshot/). The occupant lists sit
  // near the end of the payload; corrupt 4-byte windows back-to-front with
  // an implausible id until the reader trips over one.
  const std::string bytes = serialize_snapshot(make_placed_snapshot("tseng", 0.05, 5));
  bool rejected = false;
  const std::size_t first =
      bytes.size() > 1024 + 4 ? bytes.size() - 1024 - 4 : 24;
  for (std::size_t off = bytes.size() - 4; off > first && !rejected; --off) {
    std::string bad = bytes;
    const std::uint32_t huge = 0x7FFFFF7Fu;
    std::memcpy(&bad[off], &huge, 4);
    try {
      parse_snapshot(refresh_header(std::move(bad)));
    } catch (const SnapshotError& e) {
      if (std::string(e.what()).find("occupant cell id out of range") !=
          std::string::npos)
        rejected = true;
    }
  }
  EXPECT_TRUE(rejected)
      << "no corrupted occupant id was rejected by the structured check";
}

TEST(Jsonl, ParseJobLineRejectsNonIntegralNumbers) {
  // Narrowing a negative, huge, or fractional double into seed/threads is
  // undefined behaviour; the parser must reject with a structured error
  // (see fuzz/crashes/jsonl/).
  EXPECT_NO_THROW(parse_job_line(R"({"id":"x","circuit":"tseng","seed":0})"));
  EXPECT_THROW(parse_job_line(R"({"id":"x","circuit":"tseng","seed":-1})"),
               JsonlError);
  EXPECT_THROW(parse_job_line(R"({"id":"x","circuit":"tseng","seed":1.5})"),
               JsonlError);
  EXPECT_THROW(parse_job_line(R"({"id":"x","circuit":"tseng","seed":1e300})"),
               JsonlError);
  EXPECT_THROW(
      parse_job_line(R"({"id":"x","circuit":"tseng","engine_threads":2147483648})"),
      JsonlError);
  EXPECT_THROW(
      parse_job_line(R"({"id":"x","circuit":"tseng","engine_threads":0.5})"),
      JsonlError);
}

// ---- retry policy ---------------------------------------------------------

// Runs each job's attempts through `policy` on its own thread, as
// FlowService::run_batch's pool tasks do; results in input order.
std::vector<JobResult> run_jobs(
    RetryPolicy& policy, const std::vector<std::function<void(int)>>& jobs) {
  std::vector<JobResult> results(jobs.size());
  std::vector<JobTicket> tickets(jobs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    tickets[i].result = &results[i];
    tickets[i].backoff_seed = i;
    threads.emplace_back([&, i] { policy.run(tickets[i], jobs[i]); });
  }
  for (auto& t : threads) t.join();
  return results;
}

TEST(RetryPolicy, RetriesFailuresUpToBudget) {
  ServiceOptions opt;
  opt.max_retries = 2;
  opt.retry_backoff_seconds = 0;
  RetryPolicy policy(opt, nullptr);
  int calls = 0;
  const auto res = run_jobs(policy, {[&](int attempt) {
    ++calls;
    if (attempt < 3) throw std::runtime_error("flaky");
  }});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].state, JobState::kDone);
  EXPECT_EQ(res[0].error_code, kJobOk);
  EXPECT_EQ(res[0].attempts, 3);
  EXPECT_EQ(res[0].error, "flaky");  // an earlier error survives success
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(policy.stats().jobs_retried, 2u);
  EXPECT_EQ(policy.stats().jobs_completed, 1u);
}

TEST(RetryPolicy, FailsWhenBudgetExhaustedAndOthersComplete) {
  ServiceOptions opt;
  opt.max_retries = 1;
  opt.retry_backoff_seconds = 0;
  RetryPolicy policy(opt, nullptr);
  const auto res = run_jobs(policy, {
      [](int) { throw std::runtime_error("always broken"); },
      [](int) {},
  });
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].state, JobState::kFailed);
  EXPECT_EQ(res[0].error_code, kJobFailed);
  EXPECT_EQ(res[0].attempts, 2);
  EXPECT_EQ(res[0].error, "always broken");
  EXPECT_EQ(res[1].state, JobState::kDone);
  EXPECT_EQ(policy.stats().jobs_failed, 1u);
  EXPECT_EQ(policy.stats().jobs_completed, 1u);
}

TEST(RetryPolicy, TimeoutsAreNotRetried) {
  ServiceOptions opt;
  opt.max_retries = 5;
  RetryPolicy policy(opt, nullptr);
  int calls = 0;
  const auto res = run_jobs(policy, {[&](int) {
    ++calls;
    throw FlowCancelled("route", /*killed=*/false);
  }});
  EXPECT_EQ(res[0].state, JobState::kTimedOut);
  EXPECT_EQ(res[0].error_code, kJobTimedOut);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(policy.stats().jobs_timed_out, 1u);
}

TEST(RetryPolicy, KillFlagClassifiesAsCheckpointed) {
  std::atomic<bool> shutdown{false};
  RetryPolicy policy(ServiceOptions{}, &shutdown);
  const auto res = run_jobs(policy, {[&](int) {
    shutdown.store(true);
    CancelToken token;
    token.set_kill_flag(&shutdown);
    token.check("replicate");
  }});
  EXPECT_EQ(res[0].state, JobState::kCheckpointed);
  EXPECT_EQ(res[0].error_code, kJobInterrupted);
  EXPECT_EQ(policy.stats().jobs_interrupted, 1u);
}

// Retry backoff jitter is a pure function of (base, retry index, job seed):
// the exact sequence is pinned so a refactor cannot silently change retry
// timing, and the jittered value always stays inside the exponential
// envelope [base * 2^(k-1) / 2, base * 2^(k-1)).
TEST(RetryPolicy, RetryBackoffJitterSequenceIsPinned) {
  EXPECT_DOUBLE_EQ(retry_backoff_with_jitter(1.0, 1, 42),
                   0.8707824393859116);
  EXPECT_DOUBLE_EQ(retry_backoff_with_jitter(1.0, 2, 42),
                   1.1599103928769201);
  EXPECT_DOUBLE_EQ(retry_backoff_with_jitter(1.0, 3, 42),
                   2.5572022605102775);
  EXPECT_DOUBLE_EQ(retry_backoff_with_jitter(1.0, 4, 42),
                   5.3767628660945501);
  EXPECT_DOUBLE_EQ(retry_backoff_with_jitter(0.5, 1, 7),
                   0.34745743709781785);

  // Degenerate inputs are a zero sleep, never a negative or NaN one.
  EXPECT_EQ(retry_backoff_with_jitter(0, 1, 42), 0);
  EXPECT_EQ(retry_backoff_with_jitter(-1, 1, 42), 0);
  EXPECT_EQ(retry_backoff_with_jitter(1.0, 0, 42), 0);

  // Envelope + determinism: same seed repeats exactly, and different job
  // seeds decorrelate (no thundering herd on shared infrastructure).
  for (const std::uint64_t seed : {0ull, 7ull, 0xffffffffffffffffull}) {
    for (int k = 1; k <= 8; ++k) {
      const double lo = std::ldexp(1.0, k - 1);  // (base=2) * 2^(k-1) / 2
      const double v = retry_backoff_with_jitter(2.0, k, seed);
      EXPECT_EQ(v, retry_backoff_with_jitter(2.0, k, seed));
      EXPECT_GE(v, lo * 0.999999);
      EXPECT_LT(v, 2 * lo);
    }
  }
  EXPECT_NE(retry_backoff_with_jitter(1.0, 1, 1),
            retry_backoff_with_jitter(1.0, 1, 2));
}

// ---- service: determinism across checkpoint/resume and thread counts ------

JobSpec small_job(const char* circuit, std::uint64_t seed, int engine_threads) {
  JobSpec spec;
  spec.id = std::string(circuit) + "-t" + std::to_string(engine_threads);
  spec.circuit = circuit;
  spec.scale = 0.05;
  spec.seed = seed;
  spec.variant = "lex3";
  spec.route = true;
  spec.engine_threads = engine_threads;
  return spec;
}

// Stage-boundary snapshot after the anneal, resumed by a fresh service
// instance, must reproduce the straight-through run's result line (which
// carries every CircuitMetrics field at %.17g) byte-for-byte — for several
// circuits and for more than one thread count.
TEST(FlowService, ResumeAfterAnnealReproducesStraightRunBitExactly) {
  const char* circuits[] = {"tseng", "ex5p", "s298"};
  for (const char* circuit : circuits) {
    std::string line_per_threads[2];
    for (const int engine_threads : {1, 2}) {
      const JobSpec spec = small_job(circuit, 11, engine_threads);

      ServiceOptions straight_opt;
      straight_opt.threads = 1;
      FlowService straight(straight_opt);
      const auto straight_res = straight.run_batch({spec});
      ASSERT_EQ(straight_res[0].state, JobState::kDone) << circuit;
      ASSERT_TRUE(straight_res[0].has_metrics) << circuit;
      const std::string want = format_result_line(straight_res[0], true);

      // Interrupt right after the first (post-anneal) checkpoint.
      TempDir dir(std::string("resume_") + spec.id);
      ServiceOptions crash_opt;
      crash_opt.threads = 1;
      crash_opt.checkpoint_dir = dir.path;
      crash_opt.stop_after_checkpoints = 1;
      FlowService crash(crash_opt);
      const auto crashed = crash.run_batch({spec});
      ASSERT_EQ(crashed[0].state, JobState::kCheckpointed) << circuit;
      ASSERT_EQ(crashed[0].error_code, kJobInterrupted);
      ASSERT_EQ(crashed[0].completed_stage, FlowStage::kPlaced) << circuit;
      ASSERT_GE(crash.stats().checkpoints_written, 1u);
      ASSERT_GT(crash.stats().checkpoint_bytes, 0u);

      // Fresh service, fresh state: resume from the on-disk snapshot.
      ServiceOptions resume_opt;
      resume_opt.threads = 1;
      resume_opt.checkpoint_dir = dir.path;
      resume_opt.resume = true;
      FlowService resume(resume_opt);
      const auto resumed = resume.run_batch({spec});
      ASSERT_EQ(resumed[0].state, JobState::kDone) << circuit;
      EXPECT_TRUE(resumed[0].resumed);
      EXPECT_EQ(resume.stats().jobs_resumed, 1u);
      EXPECT_EQ(format_result_line(resumed[0], true), want)
          << circuit << " resumed run diverged from straight run";

      line_per_threads[engine_threads - 1] = want;
    }
    // Engine thread count never changes results (the id differs by design;
    // compare everything after it).
    const auto tail = [](const std::string& s) {
      return s.substr(s.find("\"circuit\""));
    };
    EXPECT_EQ(tail(line_per_threads[0]), tail(line_per_threads[1]))
        << circuit << " results differ across engine thread counts";
  }
}

// Same byte-identity contract with the invariant auditor enabled: the result
// line then carries `audit_checks`, which must count exactly what an
// uninterrupted run counts. The snapshot persists the cumulative stage-audit
// counter for the skipped stages, and the defensive re-audit of the restored
// state must not inflate it (regression: resumed jobs under-reported
// audit_checks because the counter was never checkpointed).
TEST(FlowService, ResumeUnderParanoidAuditKeepsAuditChecksByteIdentical) {
  const JobSpec spec = small_job("tseng", 11, 1);

  ServiceOptions straight_opt;
  straight_opt.threads = 1;
  straight_opt.base.audit = AuditLevel::kParanoid;
  FlowService straight(straight_opt);
  const auto straight_res = straight.run_batch({spec});
  ASSERT_EQ(straight_res[0].state, JobState::kDone);
  ASSERT_GT(straight_res[0].audit_checks, 0);
  const std::string want = format_result_line(straight_res[0], true);

  // Interrupt after each of the two audited stage boundaries in turn.
  for (const int checkpoints : {1, 2}) {
    TempDir dir("resume_audit_" + std::to_string(checkpoints));
    ServiceOptions crash_opt;
    crash_opt.threads = 1;
    crash_opt.base.audit = AuditLevel::kParanoid;
    crash_opt.checkpoint_dir = dir.path;
    crash_opt.stop_after_checkpoints = checkpoints;
    FlowService crash(crash_opt);
    ASSERT_EQ(crash.run_batch({spec})[0].state, JobState::kCheckpointed)
        << checkpoints;

    ServiceOptions resume_opt;
    resume_opt.threads = 1;
    resume_opt.base.audit = AuditLevel::kParanoid;
    resume_opt.checkpoint_dir = dir.path;
    resume_opt.resume = true;
    FlowService resume(resume_opt);
    const auto resumed = resume.run_batch({spec});
    ASSERT_EQ(resumed[0].state, JobState::kDone) << checkpoints;
    EXPECT_TRUE(resumed[0].resumed);
    EXPECT_EQ(resumed[0].audit_checks, straight_res[0].audit_checks)
        << "audit_checks diverged resuming after checkpoint " << checkpoints;
    EXPECT_EQ(format_result_line(resumed[0], true), want)
        << "resumed run diverged from straight run (checkpoint "
        << checkpoints << ")";
  }
}

// A stale checkpoint whose parameters do not match the spec must be ignored,
// not resumed into a wrong result.
TEST(FlowService, MismatchedCheckpointIsIgnored) {
  TempDir dir("stale");
  JobSpec spec = small_job("tseng", 11, 1);
  spec.route = false;

  {
    ServiceOptions opt;
    opt.checkpoint_dir = dir.path;
    FlowService svc(opt);
    ASSERT_EQ(svc.run_batch({spec})[0].state, JobState::kDone);
  }

  // Same job id, different seed: the old snapshot must not be picked up.
  spec.seed = 12;
  ServiceOptions opt;
  opt.checkpoint_dir = dir.path;
  opt.resume = true;
  FlowService svc(opt);
  const auto res = svc.run_batch({spec});
  ASSERT_EQ(res[0].state, JobState::kDone);
  EXPECT_FALSE(res[0].resumed);
  EXPECT_EQ(svc.stats().jobs_resumed, 0u);
}

// ---- service: robustness --------------------------------------------------

/// A per-stage timeout that the spec's place stage finishes well inside, so a
/// hang injected later is what expires it: five times a clean place stage,
/// timed on this build (a sanitizer build runs it several times slower), and
/// at least 0.2 s.
double place_stage_timeout(JobSpec spec) {
  spec.id = "probe";
  spec.inject_hang_stage.clear();
  spec.inject_fail_stage = "replicate";
  spec.timeout_seconds = 0;
  ServiceOptions opt;
  opt.threads = 1;
  FlowService svc(opt);
  const auto res = svc.run_batch({spec});
  EXPECT_EQ(res[0].completed_stage, FlowStage::kPlaced);
  return std::max(0.2, 5 * res[0].place_seconds);
}

// One injected hang and one injected failure never take the batch down: the
// healthy jobs complete, the sick ones are reported with nonzero per-job
// error codes, and run_batch itself does not throw.
TEST(FlowService, BatchSurvivesHangAndFailure) {
  JobSpec good = small_job("tseng", 3, 1);
  good.route = false;

  JobSpec hang = small_job("ex5p", 3, 1);
  hang.id = "hang";
  hang.route = false;
  hang.inject_hang_stage = "replicate";
  hang.timeout_seconds = place_stage_timeout(hang);

  JobSpec fail = small_job("s298", 3, 1);
  fail.id = "fail";
  fail.route = false;
  fail.inject_fail_stage = "place";

  JobSpec invalid;
  invalid.id = "invalid";
  invalid.circuit = "not-a-circuit";

  ServiceOptions opt;
  opt.threads = 2;
  opt.max_retries = 1;
  opt.retry_backoff_seconds = 0;
  FlowService svc(opt);
  const auto res = svc.run_batch({good, hang, fail, invalid});
  ASSERT_EQ(res.size(), 4u);

  EXPECT_EQ(res[0].state, JobState::kDone);
  EXPECT_EQ(res[0].error_code, kJobOk);
  EXPECT_EQ(res[0].completed_stage, FlowStage::kRouted);

  EXPECT_EQ(res[1].state, JobState::kTimedOut);
  EXPECT_EQ(res[1].error_code, kJobTimedOut);
  EXPECT_EQ(res[1].attempts, 1);  // deterministic: timeouts are not retried
  EXPECT_EQ(res[1].completed_stage, FlowStage::kPlaced);

  EXPECT_EQ(res[2].state, JobState::kFailed);
  EXPECT_EQ(res[2].error_code, kJobFailed);
  EXPECT_EQ(res[2].attempts, 2);  // retried once, then gave up
  EXPECT_NE(res[2].error.find("injected failure"), std::string::npos);

  EXPECT_EQ(res[3].state, JobState::kFailed);
  EXPECT_EQ(res[3].error_code, kJobInvalidSpec);

  const ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_timed_out, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_invalid, 1u);
  EXPECT_EQ(stats.jobs_retried, 1u);

  // The batch's JSONL lines parse back and carry the states.
  for (const JobResult& r : res) {
    const auto obj = parse_jsonl_object(format_result_line(r, false));
    EXPECT_EQ(obj.at("state").str, job_state_name(r.state));
    EXPECT_EQ(static_cast<int>(obj.at("error_code").num), r.error_code);
  }
}

TEST(FlowService, TwoThreadsRunTwoJobsAtOnce) {
  // threads = 2 runs two jobs side by side: a healthy job starts at once
  // although the job submitted after it hangs until its 1 s stage timeout.
  JobSpec good = small_job("tseng", 3, 1);
  good.route = false;

  JobSpec hang = small_job("ex5p", 3, 1);
  hang.id = "hang";
  hang.route = false;
  hang.inject_hang_stage = "replicate";
  hang.timeout_seconds = 1.0;

  ServiceOptions opt;
  opt.threads = 2;
  FlowService svc(opt);
  const auto res = svc.run_batch({good, hang});
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0].state, JobState::kDone);
  EXPECT_EQ(res[1].state, JobState::kTimedOut);
  EXPECT_LT(res[0].queue_seconds, 0.5);
  EXPECT_LT(res[1].queue_seconds, 0.5);
}

TEST(FlowService, JobsStartInSubmissionOrder) {
  // threads = 2 with more jobs than can run at once: the hanging job holds
  // one thread until its 1 s stage timeout while the healthy jobs queue for
  // the other. No job may start before the one submitted ahead of it; the
  // slack covers two jobs that start at once on two threads.
  JobSpec hang = small_job("ex5p", 3, 1);
  hang.id = "hang";
  hang.route = false;
  hang.inject_hang_stage = "replicate";
  hang.timeout_seconds = 1.0;
  std::vector<JobSpec> specs = {hang};
  for (std::uint64_t seed : {1, 2, 3}) {
    JobSpec good = small_job("tseng", seed, 1);
    good.id = "tseng-" + std::to_string(seed);
    good.route = false;
    specs.push_back(good);
  }

  ServiceOptions opt;
  opt.threads = 2;
  FlowService svc(opt);
  const auto res = svc.run_batch(specs);
  ASSERT_EQ(res.size(), specs.size());
  EXPECT_EQ(res[0].state, JobState::kTimedOut);
  for (std::size_t k = 1; k < res.size(); ++k) {
    EXPECT_EQ(res[k].state, JobState::kDone) << res[k].spec.id;
    EXPECT_GE(res[k].queue_seconds + 0.01, res[k - 1].queue_seconds)
        << res[k].spec.id << " started before " << res[k - 1].spec.id;
  }
}

TEST(FlowService, RejectsDuplicateJobIdsAndBadIds) {
  JobSpec a = small_job("tseng", 3, 1);
  a.route = false;
  JobSpec dup = a;
  JobSpec traversal = a;
  traversal.id = "../escape";

  ServiceOptions opt;
  FlowService svc(opt);
  const auto res = svc.run_batch({a, dup, traversal});
  EXPECT_EQ(res[0].state, JobState::kDone);
  EXPECT_EQ(res[1].state, JobState::kFailed);
  EXPECT_EQ(res[1].error_code, kJobInvalidSpec);
  EXPECT_NE(res[1].error.find("duplicate"), std::string::npos);
  EXPECT_EQ(res[2].error_code, kJobInvalidSpec);
}

}  // namespace
}  // namespace repro
