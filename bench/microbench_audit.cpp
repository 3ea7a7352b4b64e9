// Microbenchmark: invariant-audit overhead per level (DESIGN.md §8).
//
// Runs the full place -> replicate -> route flow on the three golden
// circuits at audit levels off / stage / paranoid and reports the wall-clock
// overhead each level adds, plus direct timings of the post-place audit
// battery itself. The stage level is the one meant to ride along in
// production batches; the acceptance bar is < 5% of flow wall-clock. Emits
// BENCH_audit.json in the working directory.
//
// Gate (--smoke runs the first circuit once per level). With --reference
// <committed BENCH_audit.json> the first circuit's check and finding counts
// per level, which are deterministic, must equal the committed smoke_gate
// line exactly, and the committed stage-level overhead must be under the
// 5% bar.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "bench_common.h"
#include "flow/experiment.h"
#include "gen/circuit_gen.h"
#include "serve/service.h"

namespace repro {
namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct Golden {
  const char* circuit;
  const char* variant;
  std::uint64_t seed;
};

struct LevelTiming {
  double flow_seconds = 0;    ///< best of the reps' full-flow runs
  int audit_checks = 0;       ///< checks run across all stage batteries
  int audit_findings = 0;     ///< findings at kError or worse in the flow
  double battery_ms = 0;      ///< post-place battery alone, best of the reps
  int battery_checks = 0;     ///< checks the post-place battery ran
  int battery_findings = 0;   ///< its findings of any severity
};

struct CircuitResult {
  Golden golden;
  LevelTiming per_level[3];  // off, stage, paranoid
  double overhead_pct(AuditLevel level) const {
    const double base = per_level[0].flow_seconds;
    const double with = per_level[static_cast<int>(level)].flow_seconds;
    return base > 0 ? 100.0 * (with - base) / base : 0;
  }
};

constexpr double kScale = 0.05;

double flow_seconds(const Golden& g, AuditLevel level, int reps, LevelTiming* lt) {
  JobSpec spec;
  spec.id = std::string(g.circuit) + "-" + audit_level_name(level);
  spec.circuit = g.circuit;
  spec.variant = g.variant;
  spec.scale = kScale;
  spec.seed = g.seed;
  spec.route = true;
  spec.engine_threads = 1;

  ServiceOptions opt;
  opt.threads = 1;
  opt.base.audit = level;

  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    FlowService svc(opt);
    const double t0 = now_seconds();
    const auto res = svc.run_batch({spec});
    const double dt = now_seconds() - t0;
    if (res[0].state != JobState::kDone) {
      std::fprintf(stderr, "%s failed: %s\n", spec.id.c_str(),
                   res[0].error.c_str());
      std::exit(1);
    }
    lt->audit_checks = res[0].audit_checks;
    lt->audit_findings = res[0].audit_findings;
    best = rep == 0 ? dt : std::min(best, dt);
  }
  return best;
}

double battery_ms(const Golden& g, AuditLevel level, int reps, LevelTiming* lt) {
  FlowConfig cfg;
  cfg.scale = kScale;
  cfg.seed = g.seed;
  cfg.num_threads = 1;
  PlacedCircuit p = prepare_circuit(*find_mcnc_circuit(g.circuit), cfg);
  AuditOptions opt;
  opt.level = level;
  opt.seed = cfg.seed;
  const Auditor auditor(opt);
  double best = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_seconds();
    const AuditReport rep_out =
        auditor.audit_stage("place", *p.nl, p.pl.get(), &cfg.delay);
    const double dt = (now_seconds() - t0) * 1000.0;
    if (!rep_out.clean()) {
      std::fprintf(stderr, "%s: unexpected findings:\n%s\n", g.circuit,
                   rep_out.to_jsonl_lines().c_str());
      std::exit(1);
    }
    lt->battery_checks = rep_out.checks_run;
    lt->battery_findings = static_cast<int>(rep_out.findings.size());
    best = rep == 0 ? dt : std::min(best, dt);
  }
  return best;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bench::BenchArgs args;
  if (!bench::parse_bench_args(argc, argv, "audit", &args)) return 2;
  const bool smoke = args.smoke;
  const std::vector<Golden> goldens =
      smoke ? std::vector<Golden>{{"tseng", "lex3", 3}}
            : std::vector<Golden>{{"tseng", "lex3", 3}, {"ex5p", "rt", 5}, {"s298", "none", 7}};
  const int reps = smoke ? 1 : 3;
  const AuditLevel levels[] = {AuditLevel::kOff, AuditLevel::kStage,
                               AuditLevel::kParanoid};

  std::vector<CircuitResult> results;
  double max_stage_pct = 0;
  for (const Golden& g : goldens) {
    CircuitResult cr;
    cr.golden = g;
    for (const AuditLevel level : levels) {
      LevelTiming& lt = cr.per_level[static_cast<int>(level)];
      lt.flow_seconds = flow_seconds(g, level, reps, &lt);
      if (level != AuditLevel::kOff) lt.battery_ms = battery_ms(g, level, reps, &lt);
    }
    for (const AuditLevel level : levels)
      std::printf("%-6s %-5s  audit=%-8s  flow=%7.3fs  battery=%6.2fms  "
                  "checks=%2d  overhead=%+6.2f%%\n",
                  g.circuit, g.variant, audit_level_name(level),
                  cr.per_level[static_cast<int>(level)].flow_seconds,
                  cr.per_level[static_cast<int>(level)].battery_ms,
                  cr.per_level[static_cast<int>(level)].audit_checks,
                  cr.overhead_pct(level));
    max_stage_pct = std::max(max_stage_pct, cr.overhead_pct(AuditLevel::kStage));
    results.push_back(cr);
  }
  std::printf("max stage-level overhead: %.2f%% (bar: < 5%%)\n", max_stage_pct);

  // The smoke gate reads the first circuit, which both full and smoke runs
  // execute.
  std::vector<bench::GateField> smoke_gate;
  for (const AuditLevel level : levels) {
    const LevelTiming& lt = results[0].per_level[static_cast<int>(level)];
    const std::string k = std::string("smoke_") + audit_level_name(level) + "_";
    auto count = [](int n) { return static_cast<std::uint64_t>(n); };
    smoke_gate.push_back(bench::exact(k + "flow_checks", count(lt.audit_checks)));
    smoke_gate.push_back(bench::exact(k + "flow_findings", count(lt.audit_findings)));
    smoke_gate.push_back(bench::exact(k + "battery_checks", count(lt.battery_checks)));
    smoke_gate.push_back(bench::exact(k + "battery_findings", count(lt.battery_findings)));
  }
  // A best-of-one smoke run times too noisily to hold to the bar itself.
  const std::vector<bench::HeadlineGate> headline = {
      {"overhead", "max_stage_pct", bench::GateRule::kAtMost, 5.0, max_stage_pct}};
  const int failures = bench::check_gates(args, smoke_gate, headline);

  FILE* out = std::fopen("BENCH_audit.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_audit.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  // The audit bench has no speedup to headline — its figure of merit is the
  // worst-case overhead of the stage-level battery, expressed here as the
  // flow-throughput ratio vs audit-off (1.0 = free, smaller = slower).
  bench::emit_summary(out, "audit", 1.0 / (1.0 + max_stage_pct / 100.0));
  std::fprintf(out,
               "  \"benchmark\": \"audit\",\n  \"smoke\": %s,\n"
               "  \"overhead\": {\"max_stage_pct\": %.2f},\n",
               smoke ? "true" : "false", max_stage_pct);
  bench::write_smoke_gate(out, smoke_gate);
  std::fprintf(out,
               "  \"scale\": %.2f,\n"
               "  \"note\": \"flow seconds are best-of-%d full "
               "place->replicate->route runs via FlowService; battery_ms "
               "times the post-place audit battery alone; overhead_pct is "
               "relative to the audit-off run; check and finding counts are "
               "deterministic\",\n"
               "  \"circuits\": [\n",
               kScale, reps);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CircuitResult& cr = results[i];
    std::fprintf(out,
                 "    {\"circuit\": \"%s\", \"variant\": \"%s\", \"seed\": "
                 "%llu, \"levels\": [\n",
                 cr.golden.circuit, cr.golden.variant,
                 static_cast<unsigned long long>(cr.golden.seed));
    for (int l = 0; l < 3; ++l) {
      const LevelTiming& lt = cr.per_level[l];
      std::fprintf(out,
                   "      {\"level\": \"%s\", \"flow_seconds\": %.4f, "
                   "\"battery_ms\": %.3f, \"audit_checks\": %d, "
                   "\"audit_findings\": %d, \"battery_checks\": %d, "
                   "\"battery_findings\": %d, \"overhead_pct\": %.2f}%s\n",
                   audit_level_name(static_cast<AuditLevel>(l)),
                   lt.flow_seconds, lt.battery_ms, lt.audit_checks, lt.audit_findings,
                   lt.battery_checks, lt.battery_findings,
                   cr.overhead_pct(static_cast<AuditLevel>(l)),
                   l < 2 ? "," : "");
    }
    std::fprintf(out, "    ]}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  return failures == 0 ? 0 : 1;
}
