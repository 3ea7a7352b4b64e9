// Audit subsystem tests: seeded fault injection proves each checker catches
// its class of corruption with the right severity/stage/entity in the JSONL
// finding; unmutated flows report zero findings at paranoid; audit failures
// quarantine the job (no retry) without taking the batch down.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "audit/fault_inject.h"
#include "flow/experiment.h"
#include "gen/circuit_gen.h"
#include "route/router.h"
#include "serve/jsonl.h"
#include "serve/service.h"

namespace repro {
namespace {

FlowConfig small_cfg(std::uint64_t seed) {
  FlowConfig cfg;
  cfg.scale = 0.05;
  cfg.seed = seed;
  cfg.num_threads = 1;
  return cfg;
}

// Parses every finding of a report back from its JSONL serialization, so the
// assertions below exercise the exact bytes a quarantined job would emit.
std::vector<std::map<std::string, JsonValue>> parsed_findings(
    const AuditReport& report) {
  std::vector<std::map<std::string, JsonValue>> out;
  for (const Finding& f : report.findings)
    out.push_back(parse_jsonl_object(f.to_jsonl()));
  return out;
}

// ---- levels and serialization ---------------------------------------------

TEST(AuditLevel, ParsesAndNames) {
  AuditLevel level = AuditLevel::kOff;
  EXPECT_TRUE(parse_audit_level("off", &level));
  EXPECT_EQ(level, AuditLevel::kOff);
  EXPECT_TRUE(parse_audit_level("stage", &level));
  EXPECT_EQ(level, AuditLevel::kStage);
  EXPECT_TRUE(parse_audit_level("paranoid", &level));
  EXPECT_EQ(level, AuditLevel::kParanoid);
  EXPECT_FALSE(parse_audit_level("Paranoid", &level));
  EXPECT_FALSE(parse_audit_level("", &level));
  EXPECT_STREQ(audit_level_name(AuditLevel::kOff), "off");
  EXPECT_STREQ(audit_level_name(AuditLevel::kStage), "stage");
  EXPECT_STREQ(audit_level_name(AuditLevel::kParanoid), "paranoid");
}

TEST(AuditLevel, EnvOverrideIsValidated) {
  // Restore any ambient REPRO_AUDIT (CI exports paranoid for the whole
  // suite) when the test is done.
  const char* ambient = std::getenv("REPRO_AUDIT");
  const std::string saved = ambient ? ambient : "";
  struct Restore {
    bool had;
    const std::string& value;
    ~Restore() {
      if (had)
        ::setenv("REPRO_AUDIT", value.c_str(), 1);
      else
        ::unsetenv("REPRO_AUDIT");
    }
  } restore{ambient != nullptr, saved};

  ::setenv("REPRO_AUDIT", "paranoid", 1);
  EXPECT_EQ(audit_level_from_env(AuditLevel::kOff), AuditLevel::kParanoid);
  EXPECT_EQ(config_from_env().audit, AuditLevel::kParanoid);
  ::setenv("REPRO_AUDIT", "everything", 1);
  EXPECT_THROW(audit_level_from_env(AuditLevel::kOff), std::runtime_error);
  // config_from_env tolerates the bad knob (logs and keeps the default): a
  // typo in one env var must never abort a whole batch.
  EXPECT_EQ(config_from_env().audit, AuditLevel::kOff);
  ::unsetenv("REPRO_AUDIT");
  EXPECT_EQ(audit_level_from_env(AuditLevel::kStage), AuditLevel::kStage);
}

TEST(Finding, SerializesAsFlatJsonl) {
  Finding f;
  f.severity = AuditSeverity::kFatal;
  f.stage = "replicate";
  f.check = "sim.equivalence";
  f.entity = "output";
  f.entity_id = 12;
  f.message = "outputs \"diverged\"";
  const auto obj = parse_jsonl_object(f.to_jsonl());
  EXPECT_EQ(obj.at("severity").str, "fatal");
  EXPECT_EQ(obj.at("stage").str, "replicate");
  EXPECT_EQ(obj.at("check").str, "sim.equivalence");
  EXPECT_EQ(obj.at("entity").str, "output");
  EXPECT_EQ(obj.at("entity_id").num, 12);
  EXPECT_EQ(obj.at("message").str, "outputs \"diverged\"");
}

TEST(AuditReport, AccountsSeverities) {
  AuditReport r;
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.worst(), AuditSeverity::kInfo);
  Finding warn;
  warn.severity = AuditSeverity::kWarning;
  r.add(warn);
  EXPECT_TRUE(r.clean()) << "warnings alone must not fail an audit";
  Finding err;
  err.severity = AuditSeverity::kError;
  r.add(err);
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(r.worst(), AuditSeverity::kError);
  EXPECT_EQ(r.count_at_least(AuditSeverity::kWarning), 2u);
  EXPECT_EQ(r.count_at_least(AuditSeverity::kError), 1u);
  EXPECT_EQ(r.count_at_least(AuditSeverity::kFatal), 0u);
}

TEST(AuditReport, RequireCleanThrowsStructuredError) {
  AuditReport r;
  Finding f;
  f.severity = AuditSeverity::kError;
  f.stage = "place";
  f.check = "place.occupancy";
  f.message = "over capacity";
  r.add(f);
  r.checks_run = 3;
  try {
    Auditor::require_clean("place", r);
    FAIL() << "dirty report accepted";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.stage(), "place");
    EXPECT_EQ(e.report().findings.size(), 1u);
    EXPECT_NE(std::string(e.what()).find("audit failed after stage 'place'"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("over capacity"), std::string::npos);
  }
}

// ---- clean circuits audit clean -------------------------------------------

TEST(Auditor, UnmutatedPreparedCircuitIsCleanAtParanoid) {
  const FlowConfig cfg = small_cfg(3);
  PlacedCircuit p = prepare_circuit(*find_mcnc_circuit("tseng"), cfg);
  AuditOptions opt;
  opt.level = AuditLevel::kParanoid;
  opt.seed = cfg.seed;
  const Auditor auditor(opt);
  const AuditReport rep =
      auditor.audit_stage("place", *p.nl, p.pl.get(), &cfg.delay);
  EXPECT_TRUE(rep.clean()) << rep.to_jsonl_lines();
  EXPECT_EQ(rep.findings.size(), 0u);
  EXPECT_EQ(rep.checks_run, 4);  // netlist, eqclass, placement, sta
}

// ---- fault injection: each corruption caught at stage level ---------------

TEST(Auditor, CatchesFlippedTruthTableBit) {
  const FlowConfig cfg = small_cfg(3);
  PlacedCircuit p = prepare_circuit(*find_mcnc_circuit("tseng"), cfg);
  const Netlist golden = *p.nl;

  const CellId mutated = AuditFaultInjector::corrupt_function_bit(*p.nl, 17);
  ASSERT_TRUE(mutated.valid());

  AuditOptions opt;
  opt.level = AuditLevel::kStage;
  opt.seed = cfg.seed;
  const Auditor auditor(opt);
  const AuditReport rep = auditor.audit_stage("replicate", *p.nl, p.pl.get(),
                                              &cfg.delay, &golden);
  ASSERT_FALSE(rep.clean()) << "flipped truth-table bit not caught";

  bool found = false;
  for (const auto& obj : parsed_findings(rep)) {
    if (obj.at("check").str != "sim.equivalence") continue;
    found = true;
    EXPECT_EQ(obj.at("severity").str, "fatal");
    EXPECT_EQ(obj.at("stage").str, "replicate");
    EXPECT_EQ(obj.at("entity").str, "output");
  }
  EXPECT_TRUE(found) << "no sim.equivalence finding:\n" << rep.to_jsonl_lines();
}

TEST(Auditor, CatchesOccupantListCorruption) {
  const FlowConfig cfg = small_cfg(5);
  PlacedCircuit p = prepare_circuit(*find_mcnc_circuit("tseng"), cfg);

  const CellId mutated = AuditFaultInjector::corrupt_occupant_entry(*p.pl, 23);
  ASSERT_TRUE(mutated.valid());

  AuditOptions opt;
  opt.level = AuditLevel::kStage;
  opt.seed = cfg.seed;
  const Auditor auditor(opt);
  const AuditReport rep = auditor.check_placement(*p.nl, *p.pl, "place");
  ASSERT_FALSE(rep.clean()) << "occupant/coordinate disagreement not caught";

  // The mutated cell itself must be named by at least one finding.
  bool names_cell = false;
  for (const auto& obj : parsed_findings(rep)) {
    EXPECT_EQ(obj.at("check").str, "place.occupancy");
    EXPECT_EQ(obj.at("stage").str, "place");
    const std::string sev = obj.at("severity").str;
    EXPECT_TRUE(sev == "error" || sev == "fatal") << sev;
    if (obj.at("entity").str == "cell" &&
        obj.at("entity_id").num == static_cast<double>(mutated.value()))
      names_cell = true;
  }
  EXPECT_TRUE(names_cell) << "mutated cell " << mutated.value()
                          << " not named:\n"
                          << rep.to_jsonl_lines();
}

TEST(Auditor, CatchesDroppedRouteEdge) {
  const FlowConfig cfg = small_cfg(7);
  PlacedCircuit p = prepare_circuit(*find_mcnc_circuit("tseng"), cfg);
  RouterOptions ropt;  // infinite resources; deterministic
  RoutingResult routing = route(*p.nl, *p.pl, ropt);
  ASSERT_TRUE(routing.success);

  AuditOptions opt;
  opt.level = AuditLevel::kStage;
  opt.seed = cfg.seed;
  const Auditor auditor(opt);
  ASSERT_TRUE(auditor.check_routing(*p.nl, *p.pl, routing, "route").clean());

  const NetId mutated = AuditFaultInjector::corrupt_route_edge(routing, 31);
  ASSERT_TRUE(mutated.valid());
  const AuditReport rep = auditor.check_routing(*p.nl, *p.pl, routing, "route");
  ASSERT_FALSE(rep.clean()) << "dropped route edge not caught";

  bool edge_disagrees = false;
  for (const auto& obj : parsed_findings(rep)) {
    EXPECT_EQ(obj.at("check").str, "route.occupancy");
    EXPECT_EQ(obj.at("stage").str, "route");
    if (obj.at("entity").str == "channel-edge" &&
        obj.at("severity").str == "error")
      edge_disagrees = true;
  }
  EXPECT_TRUE(edge_disagrees)
      << "no channel-edge occupancy finding:\n"
      << rep.to_jsonl_lines();
}

// ---- retry policy: audit failures are quarantined, never retried ---------

TEST(RetryPolicy, AuditFailuresAreQuarantinedNotRetried) {
  ServiceOptions opt;
  opt.max_retries = 5;
  opt.retry_backoff_seconds = 0;
  RetryPolicy policy(opt, nullptr);
  std::vector<JobResult> res(2);
  JobTicket sick, healthy;  // the batch must survive the sick job
  sick.result = &res[0];
  healthy.result = &res[1];
  int calls = 0;
  policy.run(sick, [&](int) {
    ++calls;
    AuditReport rep;
    Finding f;
    f.severity = AuditSeverity::kFatal;
    f.stage = "replicate";
    f.check = "sim.equivalence";
    rep.add(f);
    rep.checks_run = 1;
    throw AuditError("replicate", std::move(rep));
  });
  policy.run(healthy, [](int) {});
  EXPECT_EQ(res[0].state, JobState::kFailed);
  EXPECT_EQ(res[0].error_code, kJobAuditFailed);
  EXPECT_EQ(res[0].attempts, 1);
  EXPECT_EQ(calls, 1) << "deterministic audit failures must not be retried";
  EXPECT_EQ(res[1].state, JobState::kDone);
  EXPECT_EQ(res[1].error_code, kJobOk);
  EXPECT_EQ(policy.stats().jobs_quarantined, 1u);
  EXPECT_EQ(policy.stats().jobs_failed, 1u);
  EXPECT_EQ(policy.stats().jobs_retried, 0u);
}

// ---- service: golden circuits clean at paranoid, results unperturbed ------

TEST(FlowService, GoldenCircuitsCleanAtParanoidAndResultsUnchanged) {
  std::vector<JobSpec> specs;
  const struct {
    const char* circuit;
    const char* variant;
    std::uint64_t seed;
  } golden[] = {{"tseng", "lex3", 3}, {"ex5p", "rt", 5}, {"s298", "none", 7}};
  for (const auto& g : golden) {
    JobSpec spec;
    spec.id = std::string(g.circuit) + "-audit";
    spec.circuit = g.circuit;
    spec.variant = g.variant;
    spec.scale = 0.05;
    spec.seed = g.seed;
    spec.route = true;
    spec.engine_threads = 1;
    specs.push_back(spec);
  }

  ServiceOptions off_opt;
  off_opt.threads = 1;
  FlowService off_svc(off_opt);
  const auto off = off_svc.run_batch(specs);

  ServiceOptions on_opt;
  on_opt.threads = 1;
  on_opt.base.audit = AuditLevel::kParanoid;
  FlowService on_svc(on_opt);
  const auto on = on_svc.run_batch(specs);

  ASSERT_EQ(off.size(), specs.size());
  ASSERT_EQ(on.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(on[i].state, JobState::kDone)
        << specs[i].id << ": " << on[i].error;
    EXPECT_EQ(on[i].audit_level, "paranoid");
    EXPECT_GT(on[i].audit_checks, 0);
    EXPECT_EQ(on[i].audit_stage, "") << on[i].audit_jsonl;
    EXPECT_EQ(on[i].audit_findings, 0);

    // Audits are read-only: every result field of the audit-off run appears
    // unchanged in the paranoid run's line, which only adds audit_* fields.
    const auto off_obj = parse_jsonl_object(format_result_line(off[i], true));
    const auto on_obj = parse_jsonl_object(format_result_line(on[i], true));
    EXPECT_EQ(off_obj.count("audit_level"), 0u);
    ASSERT_EQ(on_obj.at("audit_level").str, "paranoid");
    for (const auto& [key, want] : off_obj) {
      ASSERT_TRUE(on_obj.count(key)) << specs[i].id << " lost key " << key;
      const JsonValue& got = on_obj.at(key);
      ASSERT_EQ(got.kind, want.kind) << specs[i].id << " key " << key;
      EXPECT_EQ(got.str, want.str) << specs[i].id << " key " << key;
      EXPECT_EQ(got.num, want.num) << specs[i].id << " key " << key;
      EXPECT_EQ(got.b, want.b) << specs[i].id << " key " << key;
    }
  }
  EXPECT_EQ(on_svc.stats().jobs_quarantined, 0u);
}

}  // namespace
}  // namespace repro
