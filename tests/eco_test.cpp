// ECO session tests: delta codec, incremental-vs-cold agreement, result
// cache semantics, rejection/rollback guarantees, kill/resume byte identity
// and the SessionManager JSONL surface.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "eco/delta.h"
#include "eco/session.h"
#include "eco/session_manager.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "serve/jsonl.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "timing/timing_graph.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace repro {
namespace {

// Scratch directory unique to the test, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("repro_eco_" + name + "_" + std::to_string(::getpid())))
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

FlowSnapshot make_placed_snapshot(const char* circuit, double scale,
                                  std::uint64_t seed) {
  FlowSnapshot s;
  s.job_id = std::string(circuit) + "-job";
  s.circuit = circuit;
  s.variant = "none";
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
  return s;
}

std::vector<CellId> live_logic_cells(const Netlist& nl) {
  std::vector<CellId> out;
  for (CellId c : nl.live_cell_ids())
    if (nl.cell(c).kind == CellKind::kLogic) out.push_back(c);
  return out;
}

CellId first_pad(const Netlist& nl) {
  for (CellId c : nl.live_cell_ids())
    if (nl.cell(c).kind != CellKind::kLogic) return c;
  return CellId::invalid();
}

Delta delay_model_delta(double wire, double logic, double io, double ff) {
  Delta d;
  d.kind = DeltaKind::kSetDelayModel;
  d.wire_delay_per_unit = wire;
  d.logic_delay = logic;
  d.io_delay = io;
  d.ff_delay = ff;
  return d;
}

// A stream of deltas that are all valid against the *base* state and
// independent of one another (distinct cells, a still-free target slot).
std::vector<Delta> independent_stream(const Netlist& nl, const Placement& pl) {
  std::vector<Delta> out;
  out.push_back(delay_model_delta(1.07, 0.51, 0.31, 0.23));

  const std::vector<CellId> logic = live_logic_cells(nl);
  EXPECT_GE(logic.size(), 3u);

  Delta f;
  f.kind = DeltaKind::kSetFunction;
  f.cell = logic[0].value();
  f.function = nl.cell(logic[0]).function ^ 0x3u;
  f.registered = nl.cell(logic[0]).registered;
  out.push_back(f);

  const std::vector<Point> free = pl.free_logic_locations();
  if (!free.empty()) {
    Delta m;
    m.kind = DeltaKind::kMoveCell;
    m.cell = logic[1].value();
    m.x = free[0].x;
    m.y = free[0].y;
    out.push_back(m);
  }

  // Rewire pin 0 of some later cell onto its own pin-1 net: structurally
  // fresh sink, provably acyclic (the net already feeds this cell).
  for (std::size_t i = 2; i < logic.size(); ++i) {
    const Cell& c = nl.cell(logic[i]);
    if (c.inputs.size() >= 2 && c.inputs[0] != c.inputs[1] &&
        c.inputs[1].valid()) {
      Delta r;
      r.kind = DeltaKind::kRewireInput;
      r.cell = logic[i].value();
      r.pin = 0;
      r.net = c.inputs[1].value();
      out.push_back(r);
      break;
    }
  }
  return out;
}

// Hand-built 5-cell circuit with a registered feedback loop and a replicated
// pair: in -> a -> b(reg) -> a (feedback), b -> out, plus a' = replica of a.
FlowSnapshot make_tiny_cycle_snapshot() {
  FlowSnapshot s;
  s.job_id = "tiny-job";
  s.circuit = "tiny";
  s.variant = "none";
  s.stage = FlowStage::kPlaced;
  s.nl = std::make_unique<Netlist>();
  Netlist& nl = *s.nl;
  const CellId in = nl.add_input_pad("in");
  const CellId a = nl.add_logic("a", {nl.cell(in).output}, 0x2, false);
  const CellId b = nl.add_logic("b", {nl.cell(a).output}, 0x2, true);
  nl.grow_input(a, nl.cell(b).output, 0x6);
  const CellId out = nl.add_output_pad("out");
  nl.connect(nl.cell(b).output, out, 0);
  nl.replicate_cell(a);
  EXPECT_EQ(nl.validate(), "");
  s.grid_n = FpgaGrid::min_grid_for(
      nl.num_logic(), nl.num_input_pads() + nl.num_output_pads());
  s.grid = std::make_unique<FpgaGrid>(s.grid_n, s.grid_io_rat);
  AnnealerOptions aopt;
  aopt.seed = 1;
  s.pl = std::make_unique<Placement>(
      anneal_placement(nl, *s.grid, s.cfg.delay, aopt));
  return s;
}

// ---- delta codec ----------------------------------------------------------

TEST(DeltaCodec, RoundTripsEveryKind) {
  Delta m;
  m.kind = DeltaKind::kMoveCell;
  m.cell = 7;
  m.x = 3;
  m.y = 9;
  Delta f;
  f.kind = DeltaKind::kSetFunction;
  f.cell = 12;
  f.function = 0xDEADBEEFULL;
  f.registered = true;
  Delta r;
  r.kind = DeltaKind::kRewireInput;
  r.cell = 4;
  r.pin = 2;
  r.net = 31;
  const Delta dm = delay_model_delta(1.5, 0.25, 0.125, 0.0625);
  for (const Delta& d : {m, f, r, dm}) {
    const std::string enc = d.canonical_encoding();
    const Delta back = Delta::decode(enc);
    EXPECT_EQ(back.kind, d.kind);
    EXPECT_EQ(back.canonical_encoding(), enc);
  }
  const Delta back = Delta::decode(f.canonical_encoding());
  EXPECT_EQ(back.cell, 12);
  EXPECT_EQ(back.function, 0xDEADBEEFULL);
  EXPECT_TRUE(back.registered);
}

TEST(DeltaCodec, EncodingCoversOnlyActiveFields) {
  // Junk in fields of other kinds must not leak into the encoding — the
  // journal chain and the result-cache key depend on this.
  Delta a = delay_model_delta(1.5, 0.25, 0.125, 0.0625);
  Delta b = a;
  b.cell = 999;
  b.function = 77;
  b.pin = 3;
  EXPECT_EQ(a.canonical_encoding(), b.canonical_encoding());
}

TEST(DeltaCodec, RejectsCorruptEncodings) {
  Delta m;
  m.kind = DeltaKind::kMoveCell;
  m.cell = 7;
  const std::string enc = m.canonical_encoding();
  EXPECT_THROW(Delta::decode(std::string_view("")), EcoError);
  EXPECT_THROW(Delta::decode(std::string_view(enc.data(), enc.size() - 1)),
               EcoError);
  EXPECT_THROW(Delta::decode(enc + "x"), EcoError);
  std::string bad = enc;
  bad[0] = '\x7f';  // unknown kind tag
  EXPECT_THROW(Delta::decode(bad), EcoError);
}

TEST(DeltaCodec, ParsesKindNames) {
  DeltaKind k;
  ASSERT_TRUE(parse_delta_kind("move_cell", &k));
  EXPECT_EQ(k, DeltaKind::kMoveCell);
  ASSERT_TRUE(parse_delta_kind("set_function", &k));
  EXPECT_EQ(k, DeltaKind::kSetFunction);
  ASSERT_TRUE(parse_delta_kind("rewire_input", &k));
  EXPECT_EQ(k, DeltaKind::kRewireInput);
  ASSERT_TRUE(parse_delta_kind("set_delay_model", &k));
  EXPECT_EQ(k, DeltaKind::kSetDelayModel);
  EXPECT_FALSE(parse_delta_kind("resize", &k));
  EXPECT_STREQ(delta_kind_name(DeltaKind::kMoveCell), "move_cell");
}

// ---- session open / normalization -----------------------------------------

TEST(EcoSession, BaseChecksumIgnoresVolatileConfig) {
  FlowSnapshot a = make_placed_snapshot("tseng", 0.05, 7);
  FlowSnapshot b = make_placed_snapshot("tseng", 0.05, 7);
  a.job_id = "left";
  a.cfg.num_threads = 7;
  a.place_seconds = 123.0;
  b.job_id = "right";
  b.cfg.num_threads = 1;
  b.cfg.audit = AuditLevel::kParanoid;
  EcoSession sa("s", std::move(a), {});
  EcoSession sb("s", std::move(b), {});
  EXPECT_EQ(sa.base_checksum(), sb.base_checksum());
  EXPECT_EQ(sa.chain(), sa.base_checksum());
  EXPECT_EQ(sa.deltas_applied(), 0);
}

TEST(EcoSession, BaseChecksumIgnoresAuditChecks) {
  // A checkpoint written by an audited run counts its audit checks; the
  // same circuit state from an unaudited run has none. Both must open as
  // the same base, or their chains and result-cache entries never meet.
  FlowSnapshot a = make_placed_snapshot("tseng", 0.05, 7);
  FlowSnapshot b = make_placed_snapshot("tseng", 0.05, 7);
  a.audit_checks = 12;
  b.audit_checks = 0;
  EcoSession sa("s", std::move(a), {});
  EcoSession sb("s", std::move(b), {});
  EXPECT_EQ(sa.base_checksum(), sb.base_checksum());
}

TEST(EcoSession, RejectsUnusableBase) {
  FlowSnapshot s = make_placed_snapshot("tseng", 0.05, 7);
  s.nl.reset();  // no circuit
  EXPECT_THROW(EcoSession("s", std::move(s), {}), EcoError);
  FlowSnapshot s2 = make_placed_snapshot("tseng", 0.05, 7);
  s2.stage = FlowStage::kInit;
  EXPECT_THROW(EcoSession("s", std::move(s2), {}), EcoError);
}

// ---- incremental vs cold agreement ----------------------------------------

TEST(EcoSession, ApplyMatchesColdRebuild) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  const std::vector<Delta> stream =
      independent_stream(*base.nl, *base.pl);
  ASSERT_GE(stream.size(), 3u);
  EcoSession s("s1", std::move(base), {});
  for (const Delta& d : stream) {
    const EcoDeltaResult res = s.apply(d);
    ASSERT_TRUE(res.applied) << res.reject;
    EXPECT_FALSE(res.cache_hit);
    // Incremental metrics agree with a cold rebuild of the current state.
    EXPECT_EQ(res.wirelength, s.placement().total_wirelength());
    const TimingGraph cold(s.netlist(), s.placement(), s.config().delay);
    EXPECT_NEAR(res.crit_ns, cold.critical_delay(), 1e-9);
    EXPECT_TRUE(s.placement().legal());
    EXPECT_EQ(s.netlist().validate(), "");
  }
  EXPECT_EQ(s.deltas_applied(),
            static_cast<std::int64_t>(stream.size()));
  EXPECT_EQ(s.cold_rebuild_audit(), "");

  // query() repeats the last metrics without touching chain or journal.
  const std::uint64_t chain = s.chain();
  const EcoDeltaResult q = s.query();
  EXPECT_EQ(q.chain, chain);
  const TimingGraph cold(s.netlist(), s.placement(), s.config().delay);
  EXPECT_NEAR(q.crit_ns, cold.critical_delay(), 1e-9);
  EXPECT_EQ(q.wirelength, s.placement().total_wirelength());
}

TEST(EcoSession, MoveOntoFullSlotRunsLegalizer) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  const std::vector<CellId> logic = live_logic_cells(*base.nl);
  ASSERT_GE(logic.size(), 2u);
  // A slot that is exactly at capacity and does not hold the moved cell.
  const CellId mover = logic[0];
  Point target{-1, -1};
  for (std::size_t i = 1; i < logic.size(); ++i) {
    const Point p = base.pl->location(logic[i]);
    if (p == base.pl->location(mover)) continue;
    if (base.pl->overuse(p) == 0) {
      target = p;
      break;
    }
  }
  if (target.x < 0) GTEST_SKIP() << "no full logic slot in this placement";
  EcoSession s("s1", std::move(base), {});
  Delta m;
  m.kind = DeltaKind::kMoveCell;
  m.cell = mover.value();
  m.x = target.x;
  m.y = target.y;
  const EcoDeltaResult res = s.apply(m);
  ASSERT_TRUE(res.applied) << res.reject;
  EXPECT_GT(res.legalizer_moves, 0);
  EXPECT_TRUE(s.placement().legal());
  const TimingGraph cold(s.netlist(), s.placement(), s.config().delay);
  EXPECT_NEAR(res.crit_ns, cold.critical_delay(), 1e-9);
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

// ---- rejections ------------------------------------------------------------

TEST(EcoSession, RejectionsLeaveSessionUntouched) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  const CellId pad = first_pad(*base.nl);
  ASSERT_TRUE(pad.valid());
  const std::vector<CellId> logic = live_logic_cells(*base.nl);
  const Point logic_loc = base.pl->location(logic[0]);
  EcoSession s("s1", std::move(base), {});
  const std::string bytes_before = s.serialize();
  const std::uint64_t chain_before = s.chain();

  std::vector<Delta> bad;
  {
    Delta d;  // cell id out of range
    d.kind = DeltaKind::kMoveCell;
    d.cell = 1 << 28;
    bad.push_back(d);
  }
  {
    Delta d;  // pad onto a logic slot: kind-incompatible
    d.kind = DeltaKind::kMoveCell;
    d.cell = pad.value();
    d.x = logic_loc.x;
    d.y = logic_loc.y;
    bad.push_back(d);
  }
  {
    Delta d;  // off the array entirely
    d.kind = DeltaKind::kMoveCell;
    d.cell = logic[0].value();
    d.x = -5;
    d.y = 0;
    bad.push_back(d);
  }
  {
    Delta d;  // set_function on a pad
    d.kind = DeltaKind::kSetFunction;
    d.cell = pad.value();
    bad.push_back(d);
  }
  {
    Delta d;  // pin out of range
    d.kind = DeltaKind::kRewireInput;
    d.cell = logic[0].value();
    d.pin = 17;
    d.net = 0;
    bad.push_back(d);
  }
  {
    Delta d;  // self-loop: own output net back into own input
    d.kind = DeltaKind::kRewireInput;
    d.cell = logic[0].value();
    d.pin = 0;
    d.net = s.netlist().cell(logic[0]).output.value();
    bad.push_back(d);
  }
  {
    Delta d = delay_model_delta(-1.0, 0.5, 0.3, 0.2);  // negative constant
    bad.push_back(d);
  }

  for (const Delta& d : bad) {
    const EcoDeltaResult res = s.apply(d);
    EXPECT_FALSE(res.applied);
    EXPECT_FALSE(res.reject.empty());
    EXPECT_EQ(res.chain, chain_before);
  }
  EXPECT_EQ(s.chain(), chain_before);
  EXPECT_EQ(s.deltas_applied(), 0);
  EXPECT_EQ(s.serialize(), bytes_before);
}

TEST(EcoSession, RewireCreatingCombCycleIsRejected) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  const Netlist& nl = *base.nl;
  // Find comb cell A whose output net has a comb logic sink S: rewiring an
  // input of A onto S's output would close a combinational loop A->S->A.
  CellId a = CellId::invalid();
  NetId s_out = NetId::invalid();
  for (CellId c : live_logic_cells(nl)) {
    const Cell& cc = nl.cell(c);
    if (cc.registered || cc.inputs.empty() || !cc.output.valid()) continue;
    for (const Sink& sk : nl.net(cc.output).sinks) {
      const Cell& sc = nl.cell(sk.cell);
      if (sc.kind == CellKind::kLogic && !sc.registered &&
          sc.output.valid() && nl.net_alive(sc.output)) {
        a = c;
        s_out = sc.output;
        break;
      }
    }
    if (a.valid()) break;
  }
  if (!a.valid()) GTEST_SKIP() << "no comb->comb pair in this circuit";
  EcoSession s("s1", std::move(base), {});
  Delta d;
  d.kind = DeltaKind::kRewireInput;
  d.cell = a.value();
  d.pin = 0;
  d.net = s_out.value();
  const EcoDeltaResult res = s.apply(d);
  EXPECT_FALSE(res.applied);
  EXPECT_NE(res.reject.find("cycle"), std::string::npos) << res.reject;
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

TEST(EcoSession, TinyCircuitBroadcastAndUnregisterGuard) {
  FlowSnapshot base = make_tiny_cycle_snapshot();
  const Netlist& bnl = *base.nl;
  CellId a = CellId::invalid(), b = CellId::invalid();
  for (CellId c : bnl.live_cell_ids()) {
    if (bnl.cell(c).name == "a") a = c;
    if (bnl.cell(c).name == "b") b = c;
  }
  ASSERT_TRUE(a.valid() && b.valid());
  ASSERT_EQ(bnl.eq_members(bnl.cell(a).eq_class).size(), 2u);
  EcoSession s("tiny", std::move(base), {});

  // Unregistering b would close the comb loop a -> b -> a: rejected.
  Delta unreg;
  unreg.kind = DeltaKind::kSetFunction;
  unreg.cell = b.value();
  unreg.function = s.netlist().cell(b).function;
  unreg.registered = false;
  const EcoDeltaResult r1 = s.apply(unreg);
  EXPECT_FALSE(r1.applied);
  EXPECT_NE(r1.reject.find("cycle"), std::string::npos) << r1.reject;

  // A function change on a is broadcast to its whole equivalence class.
  Delta f;
  f.kind = DeltaKind::kSetFunction;
  f.cell = a.value();
  f.function = 0x9;
  f.registered = false;
  const EcoDeltaResult r2 = s.apply(f);
  ASSERT_TRUE(r2.applied) << r2.reject;
  for (CellId m : s.netlist().eq_members(s.netlist().cell(a).eq_class))
    EXPECT_EQ(s.netlist().cell(m).function, 0x9u);
  EXPECT_EQ(s.netlist().validate(), "");
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

// ---- result cache ----------------------------------------------------------

TEST(EcoSession, CacheHitsReproduceMissResults) {
  EcoResultCache cache;
  EcoSessionOptions opt;
  opt.cache = &cache;

  FlowSnapshot base1 = make_placed_snapshot("tseng", 0.05, 7);
  const std::vector<Delta> stream =
      independent_stream(*base1.nl, *base1.pl);
  EcoSession s1("lead", std::move(base1), opt);
  std::vector<EcoDeltaResult> first;
  for (const Delta& d : stream) {
    first.push_back(s1.apply(d));
    ASSERT_TRUE(first.back().applied) << first.back().reject;
    EXPECT_FALSE(first.back().cache_hit);
  }
  EXPECT_EQ(s1.cache_misses(), stream.size());
  EXPECT_EQ(cache.size(), stream.size());

  // A second session over the identical base replays the stream from cache:
  // every apply is a hit and reproduces the evaluated metrics exactly.
  EcoSession s2("follow", make_placed_snapshot("tseng", 0.05, 7), opt);
  EXPECT_EQ(s2.base_checksum(), s1.base_checksum());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const EcoDeltaResult res = s2.apply(stream[i]);
    ASSERT_TRUE(res.applied) << res.reject;
    EXPECT_TRUE(res.cache_hit);
    EXPECT_EQ(res.chain, first[i].chain);
    EXPECT_EQ(res.crit_ns, first[i].crit_ns);
    EXPECT_EQ(res.wirelength, first[i].wirelength);
  }
  EXPECT_EQ(s2.cache_hits(), stream.size());
  EXPECT_EQ(s2.cache_misses(), 0u);

  // query() after a run of hits folds the deferred timing work and agrees
  // with a cold rebuild; a subsequent miss evaluates correctly too.
  const EcoDeltaResult q = s2.query();
  const TimingGraph cold(s2.netlist(), s2.placement(), s2.config().delay);
  EXPECT_NEAR(q.crit_ns, cold.critical_delay(), 1e-9);
  const EcoDeltaResult r =
      s2.apply(delay_model_delta(1.3, 0.5, 0.3, 0.2));
  ASSERT_TRUE(r.applied) << r.reject;
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(s2.cold_rebuild_audit(), "");
}

// ---- cancellation / rollback (satellite S3) --------------------------------

TEST(EcoSession, CancelledDeltaRollsBackToCommittedState) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  const std::vector<Delta> stream =
      independent_stream(*base.nl, *base.pl);
  EcoSession s("s1", std::move(base), {});
  const EcoDeltaResult r0 = s.apply(stream[0]);
  ASSERT_TRUE(r0.applied);
  const std::string bytes_before = s.serialize();
  const std::uint64_t chain_before = s.chain();

  // Deadline already expired: apply() mutates, hits the cancellation point,
  // and must roll back to the committed state before propagating.
  CancelToken deadline;
  deadline.set_deadline_after(-1.0);
  EXPECT_THROW(s.apply(stream[1], &deadline), FlowCancelled);
  EXPECT_EQ(s.chain(), chain_before);
  EXPECT_EQ(s.deltas_applied(), 1);
  EXPECT_EQ(s.serialize(), bytes_before);

  // Kill-flag flavor of the same contract (the server's signal path).
  std::atomic<bool> kill{true};
  CancelToken killed;
  killed.set_kill_flag(&kill);
  try {
    s.apply(stream[1], &killed);
    FAIL() << "expected FlowCancelled";
  } catch (const FlowCancelled& e) {
    EXPECT_TRUE(e.killed());
  }
  EXPECT_EQ(s.serialize(), bytes_before);

  // The rolled-back state passes the audit battery and the cold rebuild.
  AuditOptions ao;
  ao.level = AuditLevel::kStage;
  const AuditReport rep = Auditor(ao).audit_stage(
      "eco.test.rollback", s.netlist(), &s.placement(), &s.config().delay);
  EXPECT_TRUE(rep.clean()) << rep.to_jsonl_lines();
  EXPECT_EQ(s.cold_rebuild_audit(), "");

  // The session keeps working after the cancelled applies.
  const EcoDeltaResult r1 = s.apply(stream[1]);
  ASSERT_TRUE(r1.applied) << r1.reject;
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

// ---- persistence -----------------------------------------------------------

TEST(EcoSession, SerializeResumeIsByteIdentical) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  const std::vector<Delta> stream =
      independent_stream(*base.nl, *base.pl);
  ASSERT_GE(stream.size(), 3u);
  EcoSession s1("s1", std::move(base), {});
  for (std::size_t i = 0; i + 1 < stream.size(); ++i)
    ASSERT_TRUE(s1.apply(stream[i]).applied);

  const std::string bytes = s1.serialize();
  std::unique_ptr<EcoSession> s2 = EcoSession::resume(bytes, {});
  EXPECT_EQ(s2->id(), "s1");
  EXPECT_EQ(s2->chain(), s1.chain());
  EXPECT_EQ(s2->deltas_applied(), s1.deltas_applied());
  EXPECT_EQ(s2->serialize(), bytes);

  // A killed-and-resumed session continues exactly like the original.
  const Delta& last = stream.back();
  const EcoDeltaResult a = s1.apply(last);
  const EcoDeltaResult b = s2->apply(last);
  ASSERT_TRUE(a.applied && b.applied);
  EXPECT_EQ(a.chain, b.chain);
  EXPECT_EQ(a.crit_ns, b.crit_ns);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(s1.serialize(), s2->serialize());
  EXPECT_EQ(s2->cold_rebuild_audit(), "");
}

TEST(EcoSession, ResumeRejectsCorruptBytes) {
  FlowSnapshot base = make_placed_snapshot("tseng", 0.05, 7);
  EcoSession s("s1", std::move(base), {});
  ASSERT_TRUE(s.apply(delay_model_delta(1.1, 0.5, 0.3, 0.2)).applied);
  const std::string bytes = s.serialize();

  EXPECT_THROW(EcoSession::resume("", {}), EcoError);
  EXPECT_THROW(
      EcoSession::resume(std::string_view(bytes.data(), bytes.size() / 2), {}),
      EcoError);
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_THROW(EcoSession::resume(flipped, {}), EcoError);
  // A flow snapshot is not a session file.
  EXPECT_THROW(
      EcoSession::resume(serialize_snapshot(
                             make_placed_snapshot("tseng", 0.05, 7)),
                         {}),
      EcoError);
}

// ---- per-write cost: kept topo order, re-time instead of rebuild -----------

Delta move_delta(CellId c, Point p) {
  Delta m;
  m.kind = DeltaKind::kMoveCell;
  m.cell = c.value();
  m.x = p.x;
  m.y = p.y;
  return m;
}

Delta nudge_delta(const LinearDelayModel& dm, Rng& rng) {
  return delay_model_delta(
      1.0 + 0.01 * static_cast<double>(rng.next_below(10)), dm.logic_delay,
      dm.io_delay, dm.ff_delay);
}

// A random logic cell moved onto another logic cell's slot: the session
// re-legalizes.
Delta relegalizing_move(const Netlist& nl, const Placement& pl, Rng& rng) {
  const std::vector<CellId> logic = live_logic_cells(nl);
  for (;;) {
    const CellId a = logic[rng.next_below(logic.size())];
    const CellId b = logic[rng.next_below(logic.size())];
    if (pl.location(a) != pl.location(b)) return move_delta(a, pl.location(b));
  }
}

// Pin p of a random logic cell rewired onto the net of a sibling pin q: the
// driver already feeds the cell, so the rewire is acyclic by construction.
std::optional<Delta> sibling_rewire(const Netlist& nl, Rng& rng) {
  std::vector<CellId> cands;
  for (CellId c : live_logic_cells(nl)) {
    const Cell& cc = nl.cell(c);
    for (std::size_t p = 1; p < cc.inputs.size(); ++p)
      if (cc.inputs[p] != cc.inputs[0]) {
        cands.push_back(c);
        break;
      }
  }
  if (cands.empty()) return std::nullopt;
  const CellId c = cands[rng.next_below(cands.size())];
  const Cell& cc = nl.cell(c);
  for (;;) {
    const std::size_t p = rng.next_below(cc.inputs.size());
    const std::size_t q = rng.next_below(cc.inputs.size());
    if (cc.inputs[p] == cc.inputs[q]) continue;
    Delta r;
    r.kind = DeltaKind::kRewireInput;
    r.cell = c.value();
    r.pin = static_cast<std::int32_t>(p);
    r.net = cc.inputs[q].value();
    return r;
  }
}

// The write's result must equal a cold rebuild of the session's state.
void expect_cold_equal(const EcoSession& s, const EcoDeltaResult& res) {
  const TimingCounterSuppressor quiet;  // the oracle is not session work
  const TimingGraph cold(s.netlist(), s.placement(), s.config().delay);
  EXPECT_EQ(res.crit_ns, cold.critical_delay());
  EXPECT_EQ(res.wirelength, s.placement().total_wirelength());
}

// Replays `writes` on a second session over the same base. Every apply hits
// the cache, so its timing work stays pending (re-legalizing hits still run
// the legalizer on the engine); a fresh delay-model change then folds all
// of it into one full re-time.
void replay_then_nudge(EcoSession& follow, const std::vector<Delta>& writes,
                       Rng& rng) {
  for (const Delta& d : writes) {
    const EcoDeltaResult res = follow.apply(d);
    ASSERT_TRUE(res.applied) << res.reject;
    EXPECT_TRUE(res.cache_hit);
  }
  const EcoDeltaResult res = follow.apply(nudge_delta(follow.config().delay, rng));
  ASSERT_TRUE(res.applied) << res.reject;
  EXPECT_FALSE(res.cache_hit);
  expect_cold_equal(follow, res);
}

TEST(EcoSession, WritesKeepTopoOrderAndNeverResync) {
  EcoResultCache cache;
  EcoSessionOptions opt;
  opt.cache = &cache;
  EcoSession lead("lead", make_placed_snapshot("tseng", 0.05, 7), opt);
  EcoSession follow("follow", make_placed_snapshot("tseng", 0.05, 7), opt);
  const TimingCounters& tc = timing_counters();
  const std::uint64_t sorts_before = tc.topo_sorts;
  const std::uint64_t resyncs_before = tc.engine_resyncs;

  Rng rng(11);
  std::vector<Delta> applied;
  int relegalized = 0, rewires = 0, nudges = 0;
  for (int i = 0; i < 80; ++i) {
    const Netlist& nl = lead.netlist();
    const Placement& pl = lead.placement();
    std::vector<Delta> writes;
    switch (rng.next_below(4)) {
      case 0: {
        const std::vector<CellId> logic = live_logic_cells(nl);
        const std::vector<Point> free = pl.free_logic_locations();
        ASSERT_FALSE(free.empty());
        writes.push_back(move_delta(logic[rng.next_below(logic.size())],
                                    free[rng.next_below(free.size())]));
        break;
      }
      case 1:
        writes.push_back(relegalizing_move(nl, pl, rng));
        break;
      default: {
        // Half the rewires are followed at once by a delay-model nudge.
        const bool nudge = rng.next_below(2) == 0;
        if (std::optional<Delta> r = sibling_rewire(nl, rng)) {
          writes.push_back(*r);
          ++rewires;
        }
        if (nudge) {
          writes.push_back(nudge_delta(lead.config().delay, rng));
          ++nudges;
        }
        break;
      }
    }
    for (const Delta& d : writes) {
      SCOPED_TRACE(i);
      const EcoDeltaResult res = lead.apply(d);
      ASSERT_TRUE(res.applied) << res.reject;
      if (res.legalizer_moves > 0) ++relegalized;
      expect_cold_equal(lead, res);
      applied.push_back(d);
    }
  }
  EXPECT_GT(relegalized, 0);
  EXPECT_GT(rewires, 0);
  EXPECT_GT(nudges, 0);
  replay_then_nudge(follow, applied, rng);

  // Past the opens, no write sorted the whole graph or rebuilt the engine.
  EXPECT_EQ(tc.topo_sorts - sorts_before, 0u);
  EXPECT_EQ(tc.engine_resyncs - resyncs_before, 0u);
  const TimingCounterSuppressor quiet;
  EXPECT_EQ(lead.cold_rebuild_audit(), "");
}

TEST(EcoSession, FlipFlopTogglesSpliceAndMatchColdTiming) {
  // Cross-check every incremental engine update node by node against a cold
  // build (the engine reads the switch when it is constructed).
  const char* prev = std::getenv("REPRO_TIMING_PARANOID");
  const std::optional<std::string> saved =
      prev ? std::optional<std::string>(prev) : std::nullopt;
  setenv("REPRO_TIMING_PARANOID", "1", 1);
  EcoResultCache cache;
  EcoSessionOptions opt;
  opt.cache = &cache;
  EcoSession s("ff", make_placed_snapshot("tseng", 0.05, 7), opt);
  EcoSession follow("follow", make_placed_snapshot("tseng", 0.05, 7), opt);
  if (saved)
    setenv("REPRO_TIMING_PARANOID", saved->c_str(), 1);
  else
    unsetenv("REPRO_TIMING_PARANOID");
  const std::uint64_t resyncs_before = timing_counters().engine_resyncs;
  const std::uint64_t checks_before = timing_counters().paranoid_checks;

  Rng rng(5);
  std::vector<Delta> applied;
  int registered = 0, unregistered = 0;
  for (int i = 0; i < 80; ++i) {
    const Netlist& nl = s.netlist();
    const std::vector<CellId> logic = live_logic_cells(nl);
    const std::uint64_t roll = rng.next_below(10);
    Delta d;
    if (roll < 6) {
      const CellId c = logic[rng.next_below(logic.size())];
      d.kind = DeltaKind::kSetFunction;
      d.cell = c.value();
      d.function = nl.cell(c).function;
      d.registered = !nl.cell(c).registered;
    } else if (roll < 8) {
      d = relegalizing_move(nl, s.placement(), rng);
    } else {
      d = nudge_delta(s.config().delay, rng);
    }
    SCOPED_TRACE(i);
    const EcoDeltaResult res = s.apply(d);
    if (!res.applied) {
      // Only unregistering can fail: it may close a combinational loop.
      EXPECT_NE(res.reject.find("cycle"), std::string::npos) << res.reject;
      continue;
    }
    if (d.kind == DeltaKind::kSetFunction) ++(d.registered ? registered : unregistered);
    expect_cold_equal(s, res);
    applied.push_back(d);
  }
  EXPECT_GT(registered, 0);
  EXPECT_GT(unregistered, 0);
  replay_then_nudge(follow, applied, rng);
  EXPECT_EQ(timing_counters().engine_resyncs - resyncs_before, 0u);
  EXPECT_GT(timing_counters().paranoid_checks, checks_before);
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

TEST(EcoSession, RollbackAfterRelegalizingWriteRestoresExactBytes) {
  // The shadow that rollback restores from is kept by replaying the write
  // and the legalizer's moves, not by copying; any dropped or reordered move
  // shows up in the restored bytes. (A write from a legal state cannot make
  // the legalizer unify: logic slots hold one cell, so each ripple step
  // lands on a slot its occupant just left. The copy fallback for
  // unifications is not reachable from here.)
  EcoSession s("s1", make_placed_snapshot("tseng", 0.05, 7), {});
  Rng rng(3);
  CancelToken expired;
  expired.set_deadline_after(-1.0);
  int moves = 0;
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    const EcoDeltaResult res =
        s.apply(relegalizing_move(s.netlist(), s.placement(), rng));
    ASSERT_TRUE(res.applied) << res.reject;
    moves += res.legalizer_moves;
    const std::string bytes = s.serialize();
    // The next write runs (re-legalizing too), then its cancellation rolls
    // the session back to the shadow.
    EXPECT_THROW(s.apply(relegalizing_move(s.netlist(), s.placement(), rng),
                         &expired),
                 FlowCancelled);
    EXPECT_EQ(s.serialize(), bytes);
  }
  EXPECT_GT(moves, 0);
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

TEST(EcoSession, UnchangedWritesSkipTheWirelengthSum) {
  // The session brings its wirelength total up to date only when some net
  // moved since the last update; every answer of every write kind must
  // still be bit-equal to a full re-sum.
  EcoResultCache cache;
  EcoSessionOptions opt;
  opt.cache = &cache;
  EcoSession s("s", make_placed_snapshot("tseng", 0.05, 7), opt);
  EcoSession follow("follow", make_placed_snapshot("tseng", 0.05, 7), opt);
  Rng rng(17);
  std::uint64_t sums = s.wirelength_sums();
  auto expect_op = [&](EcoSession& sess, const EcoDeltaResult& res, bool summed) {
    EXPECT_EQ(res.wirelength, sess.placement().total_wirelength());
    EXPECT_EQ(sess.wirelength_sums(), sums + (summed ? 1 : 0));
    sums = sess.wirelength_sums();
  };
  auto apply = [&](EcoSession& sess, const Delta& d) {
    const EcoDeltaResult res = sess.apply(d);
    EXPECT_TRUE(res.applied) << res.reject;
    return res;
  };
  const std::vector<CellId> logic = live_logic_cells(s.netlist());
  auto set_function = [&](CellId c, bool registered) {
    Delta d;
    d.kind = DeltaKind::kSetFunction;
    d.cell = c.value();
    d.function = s.netlist().cell(c).function ^ 0x5u;
    d.registered = registered;
    return d;
  };
  // A truth-table edit, and a flip-flop added (which cannot close a loop).
  const Delta fn = set_function(logic[3], s.netlist().cell(logic[3]).registered);
  CellId comb = logic[0];
  for (CellId c : logic)
    if (!s.netlist().cell(c).registered) comb = c;
  const Delta reg = set_function(comb, true);
  const std::vector<Point> free = s.placement().free_logic_locations();
  ASSERT_FALSE(free.empty());
  const Delta move = move_delta(logic[5], free[0]);
  const Delta nudge = nudge_delta(s.config().delay, rng);

  // Evaluated writes that move no net, and a query after each.
  std::vector<Delta> writes = {fn, reg, nudge};
  for (const Delta& d : writes) {
    const EcoDeltaResult res = apply(s, d);
    EXPECT_FALSE(res.cache_hit);
    expect_op(s, res, false);
    expect_op(s, s.query(), false);
  }
  // A move re-sums once; the query after it does not.
  writes.push_back(move);
  expect_op(s, apply(s, move), true);
  expect_op(s, s.query(), false);
  // A re-legalizing move likewise.
  writes.push_back(relegalizing_move(s.netlist(), s.placement(), rng));
  const EcoDeltaResult relegalized = apply(s, writes.back());
  EXPECT_GT(relegalized.legalizer_moves, 0);
  expect_op(s, relegalized, true);
  expect_op(s, s.query(), false);
  // A rewire: pin 0 of a cell moves onto its pin-1 net, which changes both
  // nets' sink counts.
  for (std::size_t i = 8; i < logic.size(); ++i) {
    const Cell& c = s.netlist().cell(logic[i]);
    if (c.inputs.size() < 2 || c.inputs[0] == c.inputs[1]) continue;
    Delta r;
    r.kind = DeltaKind::kRewireInput;
    r.cell = logic[i].value();
    r.pin = 0;
    r.net = c.inputs[1].value();
    writes.push_back(r);
    break;
  }
  ASSERT_EQ(writes.back().kind, DeltaKind::kRewireInput);
  expect_op(s, apply(s, writes.back()), true);
  expect_op(s, s.query(), false);

  // Cache hits: the function and delay-model writes leave nothing to sum,
  // and neither do the queries after them; the hits on the moves and the
  // rewire take their answers from the cache and leave the sum to the next
  // query.
  sums = follow.wirelength_sums();
  for (std::size_t i = 0; i < writes.size(); ++i) {
    SCOPED_TRACE(i);
    const EcoDeltaResult res = apply(follow, writes[i]);
    EXPECT_TRUE(res.cache_hit);
    expect_op(follow, res, false);
    expect_op(follow, follow.query(), i >= 3);
  }

  // A rolled-back write re-lists every net at the next query.
  CancelToken expired;
  expired.set_deadline_after(-1.0);
  sums = s.wirelength_sums();
  EXPECT_THROW(s.apply(move_delta(logic[7], free[1]), &expired),
               FlowCancelled);
  expect_op(s, s.query(), true);
  expect_op(s, s.query(), false);
  EXPECT_EQ(s.cold_rebuild_audit(), "");
}

// ---- session manager / JSONL surface ---------------------------------------

TEST(SessionManager, ClassifiesAndParsesOpLines) {
  EXPECT_TRUE(is_session_op_line(R"({"op":"query","session":"a"})"));
  EXPECT_FALSE(is_session_op_line(R"({"id":"j1","circuit":"tseng"})"));
  EXPECT_FALSE(is_session_op_line("not json at all"));

  const SessionOp op = parse_session_op(
      R"({"op":"apply_delta","session":"s1","delta":"move_cell","cell":5,"x":2,"y":3})");
  EXPECT_EQ(op.op, "apply_delta");
  EXPECT_EQ(op.session, "s1");
  ASSERT_TRUE(op.has_delta);
  EXPECT_EQ(op.delta.kind, DeltaKind::kMoveCell);
  EXPECT_EQ(op.delta.cell, 5);
  EXPECT_EQ(op.delta.x, 2);
  EXPECT_EQ(op.delta.y, 3);

  EXPECT_THROW(parse_session_op(R"({"op":"query","session":"a","bogus":1})"),
               JsonlError);
  EXPECT_THROW(parse_session_op(R"({"session":"a"})"), EcoError);
  EXPECT_THROW(parse_session_op(R"({"op":"query","session":"../evil"})"),
               EcoError);
  EXPECT_THROW(
      parse_session_op(
          R"({"op":"apply_delta","session":"a","delta":"resize"})"),
      EcoError);
}

TEST(SessionManager, OpenApplyCloseResumeRoundTrip) {
  TempDir dir("mgr");
  SessionManagerOptions mopt;
  mopt.sessions_dir = dir.path;
  mopt.cold_audit = true;
  SessionManager mgr(mopt);

  const std::string opened = mgr.handle_line(
      R"({"op":"open_session","session":"r1","circuit":"tseng","scale":0.05,"seed":3})");
  auto obj = parse_jsonl_object(opened);
  ASSERT_TRUE(obj.at("ok").b) << opened;
  EXPECT_EQ(obj.at("op").str, "open_session");
  EXPECT_EQ(obj.at("circuit").str, "tseng");
  EXPECT_EQ(mgr.open_sessions(), 1u);

  const std::string applied = mgr.handle_line(
      R"({"op":"apply_delta","session":"r1","delta":"set_delay_model","wire_delay_per_unit":1.05,"logic_delay":0.5,"io_delay":0.3,"ff_delay":0.2})");
  obj = parse_jsonl_object(applied);
  ASSERT_TRUE(obj.at("ok").b) << applied;
  EXPECT_TRUE(obj.at("applied").b);
  EXPECT_EQ(mgr.deltas_persisted(), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/r1.ecs"));

  const std::string queried =
      mgr.handle_line(R"({"op":"query","session":"r1"})");
  obj = parse_jsonl_object(queried);
  ASSERT_TRUE(obj.at("ok").b) << queried;
  EXPECT_EQ(obj.at("deltas_applied").num, 1.0);

  // Failure paths come back as lines, never as exceptions.
  const std::string unknown =
      mgr.handle_line(R"({"op":"query","session":"nope"})");
  obj = parse_jsonl_object(unknown);
  EXPECT_FALSE(obj.at("ok").b);
  const std::string malformed = mgr.handle_line("{broken");
  obj = parse_jsonl_object(malformed);
  EXPECT_FALSE(obj.at("ok").b);
  const std::string no_delta =
      mgr.handle_line(R"({"op":"apply_delta","session":"r1"})");
  obj = parse_jsonl_object(no_delta);
  EXPECT_FALSE(obj.at("ok").b);

  const std::string closed =
      mgr.handle_line(R"({"op":"close_session","session":"r1"})");
  obj = parse_jsonl_object(closed);
  ASSERT_TRUE(obj.at("ok").b) << closed;
  EXPECT_EQ(obj.at("cold_audit").str, "ok");
  EXPECT_EQ(mgr.open_sessions(), 0u);

  // Reopening the same id resumes from the persisted .ecs file — the spec on
  // the line is ignored in favor of the journaled state.
  const std::string reopened = mgr.handle_line(
      R"({"op":"open_session","session":"r1","circuit":"tseng","scale":0.05,"seed":3})");
  obj = parse_jsonl_object(reopened);
  ASSERT_TRUE(obj.at("ok").b) << reopened;
  EXPECT_TRUE(obj.at("resumed").b);
  const auto reopened_obj = parse_jsonl_object(reopened);
  EXPECT_EQ(reopened_obj.at("deltas_applied").num, 1.0);
}

TEST(SessionManager, CrashHookCountsPersistedDeltas) {
  TempDir dir("crash");
  SessionManagerOptions mopt;
  mopt.sessions_dir = dir.path;
  mopt.crash_after_deltas = 1;
  SessionManager mgr(mopt);
  EXPECT_FALSE(mgr.crash_requested());
  ASSERT_TRUE(parse_jsonl_object(mgr.handle_line(
                  R"({"op":"open_session","session":"c1","circuit":"tseng","scale":0.05,"seed":3})"))
                  .at("ok")
                  .b);
  EXPECT_FALSE(mgr.crash_requested());
  ASSERT_TRUE(parse_jsonl_object(mgr.handle_line(
                  R"({"op":"apply_delta","session":"c1","delta":"set_delay_model","wire_delay_per_unit":1.2,"logic_delay":0.5,"io_delay":0.3,"ff_delay":0.2})"))
                  .at("ok")
                  .b);
  EXPECT_TRUE(mgr.crash_requested());
}

// The base_checksum text of an open_session result line (the u64 would lose
// bits as a parsed JSON double).
std::string base_checksum_of(const std::string& line) {
  const std::string key = "\"base_checksum\":";
  const auto pos = line.find(key);
  if (pos == std::string::npos) return "";
  const auto begin = pos + key.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

// A fresh open runs the batch job's own attempt, so its base is the one a
// session restores from that job's checkpoint.
TEST(SessionManager, FreshOpenMatchesBatchCheckpoint) {
  for (const char* variant : {"rt", "none"}) {
    SCOPED_TRACE(variant);
    TempDir dir(std::string("fresh_") + variant);
    ServiceOptions sopt;
    sopt.checkpoint_dir = dir.path;
    JobSpec job;
    job.id = "batch";
    job.circuit = "tseng";
    job.scale = 0.05;
    job.seed = 3;
    job.variant = variant;
    const std::vector<JobResult> done = FlowService(sopt).run_batch({job});
    ASSERT_EQ(done.at(0).state, JobState::kDone) << done.at(0).error;

    SessionManager mgr(SessionManagerOptions{});
    const std::string fresh = mgr.handle_line(
        R"({"op":"open_session","session":"fresh","circuit":"tseng",)"
        R"("scale":0.05,"seed":3,"variant":")" +
        std::string(variant) + "\"}");
    const std::string restored = mgr.handle_line(
        R"({"op":"open_session","session":"restored","from_checkpoint":")" +
        dir.path + "/batch.ckpt\"}");
    ASSERT_TRUE(parse_jsonl_object(fresh).at("ok").b) << fresh;
    ASSERT_TRUE(parse_jsonl_object(restored).at("ok").b) << restored;
    EXPECT_FALSE(base_checksum_of(fresh).empty());
    EXPECT_EQ(base_checksum_of(fresh), base_checksum_of(restored));
  }
}

}  // namespace
}  // namespace repro
