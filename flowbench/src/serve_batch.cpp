// Workload `serve_batch`: FlowService::run_batch (the flow_server path) with
// two scheduler threads, two engine threads per job, stage checkpoints and
// stage audits, over a batch of small mixed jobs submitted at once.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "audit/auditor.h"
#include "bench.h"
#include "gen/circuit_gen.h"
#include "layers.h"
#include "place/placer.h"
#include "replicate/engine.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "util/mem.h"
#include "util/rng.h"

namespace flowbench {

using namespace repro;

namespace {

struct BatchJob {
  const char* circuit;
  const char* variant;
};

// Ten small jobs cycling the three variants over distinct Table I circuits,
// submitted in this fixed order: with jobs run one after another, the order
// sets every job's queue wait, so a seeded order would swamp job_geo_s.
const BatchJob kBatch[] = {
    {"tseng", "rt"},  {"ex5p", "lex3"},   {"apex4", "none"}, {"misex3", "rt"},
    {"alu4", "lex3"}, {"diffeq", "none"}, {"dsip", "rt"},    {"seq", "lex3"},
    {"s298", "none"}, {"bigkey", "rt"},
};
const BatchJob kSmokeBatch[] = {
    {"tseng", "rt"}, {"ex5p", "lex3"}, {"apex4", "none"}};

std::vector<std::string> batch_lines(bool smoke, int engine_threads) {
  std::vector<BatchJob> jobs;
  if (smoke)
    jobs.assign(std::begin(kSmokeBatch), std::end(kSmokeBatch));
  else
    jobs.assign(std::begin(kBatch), std::end(kBatch));
  const double scale = smoke ? 0.04 : 0.05;
  std::vector<std::string> lines;
  char buf[256];
  for (const BatchJob& j : jobs) {
    std::snprintf(buf, sizeof buf,
                  "{\"id\":\"%s-%s\",\"circuit\":\"%s\",\"scale\":%g,"
                  "\"seed\":%llu,\"variant\":\"%s\",\"engine_threads\":%d}",
                  j.circuit, j.variant, j.circuit, scale,
                  static_cast<unsigned long long>(kInstanceSeed), j.variant,
                  engine_threads);
    lines.push_back(buf);
  }
  return lines;
}

ServiceOptions service_options(const std::string& ckpt_dir, int threads,
                               int engine_threads) {
  ServiceOptions opt;
  opt.threads = threads;
  opt.engine_threads = engine_threads;
  opt.checkpoint_dir = ckpt_dir;
  opt.base.audit = AuditLevel::kStage;
  return opt;
}

std::uint64_t batch_peak_rss(const std::vector<JobResult>& results) {
  // The service resets the kernel's peak-RSS mark at every stage, so the
  // process peak is the largest per-stage peak (or the current mark).
  std::uint64_t peak = peak_rss_bytes();
  for (const JobResult& r : results)
    peak = std::max({peak, r.place_peak_rss_bytes, r.replicate_peak_rss_bytes,
                     r.route_peak_rss_bytes});
  return peak;
}

void reset_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// Re-runs one job's place and replicate stages the way run_flow_attempt
/// does, outside the service, to read the EngineResult fields (speculation
/// counters, per-iteration history) that result lines do not carry.
EngineResult engine_probe(const JobSpec& spec, int engine_threads,
                          PlacerStats* ps, Tracer& tr) {
  const FlowConfig cfg;
  Netlist nl = generate_circuit(
      spec_for(suite_circuit(spec.circuit), spec.scale, spec.seed));
  const FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic(), nl.num_input_pads() + nl.num_output_pads()));
  Rng rng(spec.seed);
  PlacerOptions popt;
  popt.annealer = cfg.annealer;
  popt.annealer.seed = rng.next_u64();
  popt.analytic = cfg.analytic;
  Placement pl = place_circuit(nl, grid, cfg.delay, popt, ps);
  EngineOptions eopt;
  eopt.variant = spec.variant == "rt" ? EmbedVariant::kRtEmbedding
                                      : EmbedVariant::kLex3;
  eopt.num_threads = engine_threads;
  Scope s(tr, "probe.replicate", spec.id);
  return run_replication_engine(nl, pl, cfg.delay, eopt);
}


std::string batch_file(const Args& a) { return a.out_dir + "/batch.jsonl"; }

struct Reference {
  std::vector<std::string> lines;  ///< stable result lines
  double wall_s = 0;
  double peak_rss_mib = 0;
};

/// Runs this binary with --serve-reference and collects what it prints.
Reference run_reference_process(const Args& a) {
  Reference ref;
  const std::string exe = std::filesystem::read_symlink("/proc/self/exe").string();
  const std::string seed = std::to_string(a.seed);
  std::vector<std::string> args = {exe, "--workload", "serve_batch", "--serve-reference",
                                   "--seed", seed, "--out-dir", a.out_dir};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return ref;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; rc == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0)
    return Reference{};
  std::istringstream in(out);
  for (std::string l; std::getline(in, l);) {
    if (l.rfind("ref ", 0) == 0)
      std::sscanf(l.c_str(), "ref %lf %lf", &ref.wall_s, &ref.peak_rss_mib);
    else
      ref.lines.push_back(l);
  }
  return ref;
}

}  // namespace

int run_serve_reference(const Args& a) {
  std::ifstream in(batch_file(a));
  std::vector<JobSpec> specs;
  for (std::string l; std::getline(in, l);) {
    specs.push_back(parse_job_line(l));
    specs.back().engine_threads = 1;
  }
  const std::string dir = a.out_dir + "/ckpt-ref-" + std::to_string(a.seed);
  reset_dir(dir);
  FlowService ref(service_options(dir, 1, 1));
  const double t0 = now_s();
  const std::vector<JobResult> results = ref.run_batch(specs);
  const double wall = now_s() - t0;
  for (const JobResult& r : results)
    std::printf("%s\n", format_result_line(r, /*stable=*/true).c_str());
  std::printf("ref %.17g %.17g\n", wall, mib(batch_peak_rss(results)));
  std::filesystem::remove_all(dir);
  return 0;
}

void run_serve_batch(const Args& a, Tracer& tr, Report& rep) {
  const int kThreads = 2, kEngineThreads = 2;
  const std::string ckpt = a.out_dir + "/ckpt-" + std::to_string(a.seed);
  {
    std::ofstream out(batch_file(a));
    for (const std::string& l : batch_lines(a.smoke, kEngineThreads)) out << l << "\n";
  }

  // Set-up, as flow_server does it: read and parse the batch file, validate
  // it and construct the service. It is microseconds of work, so it is
  // repeated for a steady median, half before the passes and half at the end
  // of the run.
  std::vector<JobSpec> specs;
  auto set_up = [&]() {
    const double t0 = now_s();
    std::ifstream in(batch_file(a));
    std::vector<JobSpec> parsed;
    for (std::string l; std::getline(in, l);) parsed.push_back(parse_job_line(l));
    const std::vector<std::string> errors = validate_batch(parsed);
    FlowService svc(service_options(ckpt, kThreads, kEngineThreads));
    rep.setup_s.push_back(now_s() - t0);
    for (const std::string& e : errors)
      if (!e.empty()) throw std::runtime_error("invalid batch: " + e);
    specs = std::move(parsed);
  };
  const int kSetupReps = 50;
  for (int r = 0; r < kSetupReps; ++r) set_up();

  std::vector<JobResult> results;
  std::vector<std::string> first_stable;
  ServiceStats stats;
  TimingSnap timing_before, timing_after;
  std::uint64_t peak = 0;
  run_passes(a, tr, rep, [&](bool traced) {
    reset_dir(ckpt);  // no stale checkpoint may be resumed
    FlowService svc(service_options(ckpt, kThreads, kEngineThreads));
    timing_before = TimingSnap::take();
    const double t0 = now_s();
    results = svc.run_batch(specs);
    const double t1 = now_s();
    timing_after = TimingSnap::take();
    stats = svc.stats();
    if (!traced) peak = std::max(peak, batch_peak_rss(results));
    rep.attempted += results.size();

    std::vector<std::string> stable;
    rep.fingerprint.clear();
    for (const JobResult& r : results) {
      if (r.state != JobState::kDone)
        rep.miss(r.spec.id + ": " + job_state_name(r.state) + " " + r.error);
      if (!traced) rep.requests_s.push_back(r.queue_seconds + r.run_seconds);
      stable.push_back(format_result_line(r, /*stable=*/true));
      rep.fingerprint += stable.back() + "\n";
    }
    rep.fingerprint += "checkpoint_bytes=" + std::to_string(stats.checkpoint_bytes) + "\n";
    if (first_stable.empty()) first_stable = stable;

    // Per-job spans from the program's own stage clocks: the job runs from
    // its queue exit; its stages follow in order, and the job's self time
    // is what the service spends between stages (audits, checkpoints).
    const int batch = tr.add("serve.batch", "batch", t0, t1, -1, 0);
    for (std::size_t k = 0; k < results.size(); ++k) {
      const JobResult& r = results[k];
      const int lane = static_cast<int>(k) + 1;
      double s = t0 + r.queue_seconds;
      const int job = tr.add("job", r.spec.id, s, s + r.run_seconds, batch, lane);
      tr.add("place", r.spec.id, s, s + r.place_seconds, job, lane);
      s += r.place_seconds;
      tr.add("replicate", r.spec.id, s, s + r.replicate_seconds, job, lane);
      s += r.replicate_seconds;
      tr.add("route", r.spec.id, s, s + r.route_seconds, job, lane);
    }
    return t1 - t0;
  });
  rep.peak_rss_mib = mib(peak);
  rep.ops_per_pass = static_cast<int>(specs.size());

  // Correctness 1: every stable result line equals a threads=1,
  // engine_threads=1 run of the same batch, made in a fresh process so its
  // wall time and peak RSS are not mixed with the timed passes'.
  const Reference ref = run_reference_process(a);
  if (ref.lines.size() != first_stable.size())
    rep.miss("reference run failed: " + std::to_string(ref.lines.size()) + " result lines");
  for (std::size_t k = 0; k < ref.lines.size() && k < first_stable.size(); ++k)
    if (ref.lines[k] != first_stable[k])
      rep.miss(specs[k].id + ": result line differs from the threads=1 run");

  // Correctness 2: the final-state battery on every job's last checkpoint.
  std::uint64_t checks = 0;
  double run_total = 0, audit_checks = 0;
  LayerTotals lt;
  tr.set_active(a.trace);
  for (std::size_t k = 0; k < results.size(); ++k) {
    const JobResult& r = results[k];
    run_total += r.run_seconds;
    audit_checks += r.audit_checks;
    if (r.has_metrics) {
      lt.add_route(r.metrics);
      rep.crit_ns.push_back(r.metrics.crit_winf);
      rep.wirelength.push_back(static_cast<double>(r.metrics.wirelength));
    }
    FlowSnapshot snap = read_snapshot_file(ckpt + "/" + r.spec.id + ".ckpt");
    if (a.trace) {
      // The snapshot layer on this job's final state: one checkpoint write
      // (serialize + atomic file replace), as the service does per stage.
      Scope s(tr, "checkpoint", r.spec.id);
      write_snapshot_file(snap, a.out_dir + "/probe.ckpt");
    }
    const Netlist golden = generate_circuit(
        spec_for(suite_circuit(r.spec.circuit), r.spec.scale, r.spec.seed));
    const std::string err = check_final_state(
        r.spec.id, *snap.nl, *snap.pl, golden, snap.cfg.delay,
        k == 0 ? a.fault : std::string(), tr, &checks);
    if (!err.empty()) rep.miss(r.spec.id + ": " + err);
  }
  std::filesystem::remove(a.out_dir + "/probe.ckpt");

  if (a.trace) {
    // Speculation counters come from re-running each engine job's replicate
    // stage with the batch's engine thread count; its final critical delay
    // must match the service's (the trajectory is thread-count invariant).
    for (const JobResult& r : results) {
      if (r.spec.variant == "none") continue;
      PlacerStats ps;
      const EngineResult er = engine_probe(r.spec, kEngineThreads, &ps, tr);
      lt.add_place(ps);
      lt.add_engine(er);
      if (er.final_critical != r.engine.final_critical)
        rep.miss(r.spec.id + ": engine probe diverged from the service result");
    }
  }
  tr.set_active(false);
  for (int r = 0; r < kSetupReps; ++r) set_up();
  std::filesystem::remove_all(ckpt);
  std::filesystem::remove(batch_file(a));

  lt.store(rep.layer);
  for (const auto& [k, v] : timing_after.minus(timing_before).named())
    rep.layer[k] = v;
  rep.layer["audit.checks"] = audit_checks + static_cast<double>(checks);
  rep.layer["serve.queue_wait_s"] = stats.queue_latency_seconds_total;
  rep.layer["serve.queue_wait_max_s"] = stats.queue_latency_seconds_max;
  const double wall = a.trace ? rep.traced_pass_s : rep.pass_s.back();
  rep.layer["serve.concurrency"] = wall > 0 ? run_total / wall : 0;
  rep.layer["serve.checkpoint_bytes"] = static_cast<double>(stats.checkpoint_bytes);
  rep.layer["serve.ref_pass_s"] = ref.wall_s;
  rep.layer["serve.engine_threads_slowdown"] =
      ref.wall_s > 0 ? rep.pass_s.front() / ref.wall_s : 0;
  rep.layer["serve.ref_peak_rss_mib"] = ref.peak_rss_mib;
}

}  // namespace flowbench
