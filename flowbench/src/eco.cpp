// Workload `eco_session`: ECO sessions over a placed base of several thousand
// cells, each driven with a long pre-generated stream of deltas (writes) and
// interleaved queries (reads); for each, a second session replays a prefix of
// the stream so a stated share of applies hit the shared EcoResultCache.

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "eco/session.h"
#include "gen/circuit_gen.h"
#include "place/placer.h"
#include "serve/snapshot.h"
#include "timing/timing_graph.h"
#include "util/mem.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strfmt.h"

namespace flowbench {

using namespace repro;

namespace {

struct Op {
  bool query = false;
  Delta delta;
};

/// The writes follow bench/microbench_eco.cpp's random_delta, the repository's
/// ECO stream: 55% moves to a random free logic slot, 6% moves onto another
/// cell's slot (the session re-legalizes), 20% function changes, 15% rewires
/// and 4% delay-model nudges, each valid against the state it applies to.
/// That state is read from a generator session that applies each write as it
/// is drawn, so the stream is a function of (base, seed). One query follows
/// every three writes, the mix of examples/eco_session.jsonl.
std::vector<Op> make_stream(const std::string& base, std::uint64_t seed, int n_ops) {
  EcoSession gen("stream", parse_snapshot(base), EcoSessionOptions{});
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(static_cast<std::size_t>(n_ops));
  while (static_cast<int>(ops.size()) < n_ops) {
    Op op;
    if (ops.size() % 4 == 3) {
      op.query = true;
      ops.push_back(op);
      continue;
    }
    const Netlist& nl = gen.netlist();
    const Placement& pl = gen.placement();
    std::vector<CellId> logic;
    for (CellId c : nl.live_cell_ids())
      if (nl.cell(c).kind == CellKind::kLogic) logic.push_back(c);
    auto pick = [&]() { return logic[rng.next_below(logic.size())]; };
    Delta& d = op.delta;
    const std::uint64_t roll = rng.next_below(100);
    if (roll < 55) {  // move to a free slot
      const std::vector<Point> free = pl.free_logic_locations();
      if (free.empty()) continue;
      d.kind = DeltaKind::kMoveCell;
      d.cell = pick().value();
      const Point p = free[rng.next_below(free.size())];
      d.x = p.x;
      d.y = p.y;
    } else if (roll < 61) {  // move onto another cell's slot
      const CellId mover = pick();
      const Point p = pl.location(pick());
      if (p == pl.location(mover)) continue;
      d.kind = DeltaKind::kMoveCell;
      d.cell = mover.value();
      d.x = p.x;
      d.y = p.y;
    } else if (roll < 81) {  // function change, flip-flop flag kept
      const CellId c = pick();
      d.kind = DeltaKind::kSetFunction;
      d.cell = c.value();
      d.function = nl.cell(c).function ^ (rng.next_u64() | 1);
      d.registered = nl.cell(c).registered;
    } else if (roll < 96) {  // rewire pin p onto the net of sibling pin q
      const CellId c = pick();
      const std::vector<NetId>& in = nl.cell(c).inputs;
      if (in.size() < 2) continue;
      const std::size_t p = rng.next_below(in.size()), q = rng.next_below(in.size());
      if (p == q || in[p] == in[q] || nl.net(in[q]).driver == c) continue;
      d.kind = DeltaKind::kRewireInput;
      d.cell = c.value();
      d.pin = static_cast<std::int32_t>(p);
      d.net = in[q].value();
    } else {  // delay-model nudge
      d.kind = DeltaKind::kSetDelayModel;
      d.wire_delay_per_unit = 1.0 + 0.01 * static_cast<double>(rng.next_below(10));
    }
    gen.apply(d);
    ops.push_back(op);
  }
  return ops;
}

std::string base_snapshot_bytes(bool smoke) {
  const char* name = "tseng";
  const double scale = smoke ? 0.2 : 3.0;
  FlowSnapshot s;
  s.job_id = "eco-base";
  s.circuit = name;
  s.variant = "none";
  s.stage = FlowStage::kPlaced;
  s.cfg.scale = scale;
  s.cfg.seed = kInstanceSeed;
  s.nl = std::make_unique<Netlist>(
      generate_circuit(spec_for(suite_circuit(name), scale, kInstanceSeed)));
  // ~10% spare logic slots so every cell has free slots nearby.
  s.grid_n = FpgaGrid::min_grid_for(
      s.nl->num_logic() + s.nl->num_logic() / 10 + 8,
      s.nl->num_input_pads() + s.nl->num_output_pads());
  s.grid = std::make_unique<FpgaGrid>(s.grid_n, s.grid_io_rat);
  PlacerOptions popt;
  popt.backend = PlacerBackend::kAnalytic;
  popt.annealer.seed = kInstanceSeed * 977 + 13;
  s.pl = std::make_unique<Placement>(
      place_circuit(*s.nl, *s.grid, s.cfg.delay, popt));
  return serialize_snapshot(s);
}

const char* kind_name(const Op& op) {
  return op.query ? "query" : delta_kind_name(op.delta.kind);
}

}  // namespace

void run_eco_session(const Args& a, Tracer& tr, Report& rep) {
  const std::string base = base_snapshot_bytes(a.smoke);
  // Sessions run one after another, each over the base with its own stream.
  // The critical path a stream leads to depends on its seed (one session of
  // 12000 ops spread crit_ns 10% over five seeds); 32 average that out.
  const int n_sessions = a.smoke ? 2 : 32;
  const int n_ops = a.smoke ? 200 : 1500;
  // Each follower replays this many leading ops of its lead's stream.
  const int replay_ops = n_ops / 4;

  // Set-up: snapshot parse + session open, repeated for a steady median,
  // half before and half after the passes.
  auto open_session = [&]() {
    const double t0 = now_s();
    auto s = std::make_unique<EcoSession>("setup", parse_snapshot(base),
                                          EcoSessionOptions{});
    rep.setup_s.push_back(now_s() - t0);
    return s;
  };
  const int kSetupReps = 8;
  for (int r = 0; r < kSetupReps; ++r) open_session();
  std::vector<std::vector<Op>> streams;
  Rng stream_seeds(a.seed);
  for (int k = 0; k < n_sessions; ++k)
    streams.push_back(make_stream(base, stream_seeds.next_u64(), n_ops));

  struct PassStats {
    std::vector<double> delta_ms, query_ms;
    std::uint64_t evaluated = 0, hits = 0, rejected = 0, relegalized = 0,
                  relegalized_hits = 0, applies = 0;
    std::vector<double> crit, wl;
  } ps;
  TimingSnap timing_before, timing_after;
  int pass_no = 0;
  run_passes(a, tr, rep, [&](bool traced) {
    ++pass_no;
    // Cross-checks run on the first pass only (every pass must reproduce
    // its fingerprint, so later passes are held to the same answers).
    const bool check = pass_no == 1;
    ps = PassStats{};
    rep.fingerprint.clear();
    EcoResultCache cache;
    EcoSessionOptions opt;
    opt.cache = &cache;
    timing_before = TimingSnap::take();
    double pass = 0;
    for (int k = 0; k < n_sessions; ++k) {
      const std::vector<Op>& stream = streams[static_cast<std::size_t>(k)];
      const std::string sk = std::to_string(k);
      EcoSession lead("lead" + sk, parse_snapshot(base), opt);
      EcoSession follow("follow" + sk, parse_snapshot(base), opt);
      std::uint64_t chain_at_replay = 0;
      auto run_op = [&](EcoSession& s, const Op& op, std::size_t i, bool is_lead) {
        Scope span(tr, op.query ? "eco.query" : "eco.apply", sk + "." + std::to_string(i),
                   is_lead ? 0 : 1);
        const double t0 = now_s();
        const EcoDeltaResult res = op.query ? s.query() : s.apply(op.delta);
        const double dt = now_s() - t0;
        pass += dt;
        ++rep.attempted;
        if (!traced) rep.requests_s.push_back(dt);
        if (op.query) {
          ps.query_ms.push_back(dt * 1e3);
          if (is_lead) {
            ps.crit.push_back(res.crit_ns);
            ps.wl.push_back(res.wirelength);
          }
          return res;
        }
        ps.delta_ms.push_back(dt * 1e3);
        ++ps.applies;
        if (!res.applied) ++ps.rejected;
        else if (res.cache_hit) ++ps.hits;
        else ++ps.evaluated;
        if (res.legalizer_moves > 0) {
          ++ps.relegalized;
          if (res.cache_hit) ++ps.relegalized_hits;
        }
        tr.arg(span.index(), std::string("kind.") + kind_name(op), 1);
        tr.arg(span.index(), "cache_hit", res.cache_hit ? 1 : 0);
        return res;
      };
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const EcoDeltaResult res = run_op(lead, stream[i], i, true);
        if (static_cast<int>(i) + 1 == replay_ops) chain_at_replay = lead.chain();
        if (check && !stream[i].query && res.applied && !res.cache_hit &&
            i % 64 == 0) {
          const TimingCounterSuppressor quiet;  // keep the pass's counters clean
          const TimingGraph cold(lead.netlist(), lead.placement(), lead.config().delay);
          if (std::abs(res.crit_ns - cold.critical_delay()) > 1e-9 ||
              res.wirelength != lead.placement().total_wirelength())
            rep.miss(lead.id() + " delta " + std::to_string(i) +
                     ": incremental result differs from a cold rebuild");
        }
      }
      for (int i = 0; i < replay_ops; ++i)
        run_op(follow, stream[static_cast<std::size_t>(i)], static_cast<std::size_t>(i), false);

      if (follow.chain() != chain_at_replay || follow.cache_misses() != 0)
        rep.miss(follow.id() + ": replayed prefix diverged from the lead session");
      if (check) {
        const TimingCounterSuppressor quiet;
        for (EcoSession* s : {&lead, &follow}) {
          const std::string err = s->cold_rebuild_audit();
          if (!err.empty()) rep.miss(s->id() + ": cold_rebuild_audit: " + err);
        }
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "lead_chain=%016llx follow_chain=%016llx\n",
                    static_cast<unsigned long long>(lead.chain()),
                    static_cast<unsigned long long>(follow.chain()));
      rep.fingerprint += buf;
    }
    timing_after = TimingSnap::take();

    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "evaluated=%llu hits=%llu rejected=%llu relegalized=%llu "
                  "relegalized_hits=%llu\n",
                  static_cast<unsigned long long>(ps.evaluated),
                  static_cast<unsigned long long>(ps.hits),
                  static_cast<unsigned long long>(ps.rejected),
                  static_cast<unsigned long long>(ps.relegalized),
                  static_cast<unsigned long long>(ps.relegalized_hits));
    rep.fingerprint += buf;
    for (const auto& [k, v] : timing_after.minus(timing_before).named())
      rep.fingerprint += k + "=" + format_double_17g(v) + "\n";
    return pass;
  });
  rep.peak_rss_mib = mib(peak_rss_bytes());
  rep.ops_per_pass = n_sessions * (n_ops + replay_ops);
  for (int r = 0; r < kSetupReps; ++r) open_session();
  rep.crit_ns = ps.crit;
  rep.wirelength = ps.wl;

  auto& L = rep.layer;
  L["eco.evaluated"] = static_cast<double>(ps.evaluated);
  L["eco.cache_hits"] = static_cast<double>(ps.hits);
  L["eco.cache_hit_ratio"] =
      ps.applies ? static_cast<double>(ps.hits) / static_cast<double>(ps.applies) : 0;
  L["eco.rejected"] = static_cast<double>(ps.rejected);
  L["eco.relegalized"] = static_cast<double>(ps.relegalized);
  L["eco.relegalized_hits"] = static_cast<double>(ps.relegalized_hits);
  L["eco.delta_p50_ms"] = percentile(ps.delta_ms, 50);
  L["eco.delta_p99_ms"] = percentile(ps.delta_ms, 99);
  L["eco.query_p50_ms"] = percentile(ps.query_ms, 50);
  for (const auto& [k, v] : timing_after.minus(timing_before).named()) L[k] = v;
}

}  // namespace flowbench
