#include "eco/session.h"

#include <cmath>
#include <cstdlib>

#include "place/legalizer.h"
#include "util/strfmt.h"

namespace repro {
namespace {

constexpr char kEcoMagic[4] = {'R', 'P', 'E', '1'};

/// chain_0 = fnv1a64(base bytes); chain_{i+1} = fnv1a64(chain_i || enc_i).
std::uint64_t chain_step(std::uint64_t chain, const std::string& enc) {
  ByteWriter w;
  w.u64(chain);
  std::string bytes = w.take();
  bytes += enc;
  return fnv1a64(bytes);
}

/// The cells an edit is broadcast over: every live member of a logic cell's
/// equivalence class. Replication invariants (shared function/registered
/// flag, pairwise-equivalent per-pin drivers) only survive a function or
/// rewire edit if the whole class — "the signal" — is edited together.
std::vector<CellId> eq_group(const Netlist& nl, CellId c) {
  const Cell& cc = nl.cell(c);
  if (cc.kind == CellKind::kLogic && cc.eq_class.valid())
    return nl.eq_members(cc.eq_class);
  return {c};
}

/// Combinational reachability from `from`'s output to any input pin of
/// `target`, expanding only through cells `comb` says propagate (logic cells
/// that are — or are about to become — unregistered). The netlist edits
/// themselves never run a topological sort, but the timing graph's does, so
/// an edit that would close a combinational loop must be rejected up front.
template <typename CombPred>
bool comb_reaches(const Netlist& nl, CellId from, CellId target, CombPred comb) {
  std::vector<char> seen(nl.cell_capacity(), 0);
  std::vector<CellId> stack;
  stack.push_back(from);
  seen[from.index()] = 1;
  while (!stack.empty()) {
    const CellId c = stack.back();
    stack.pop_back();
    const Cell& cc = nl.cell(c);
    if (!cc.output.valid() || !nl.net_alive(cc.output)) continue;
    for (const Sink& s : nl.net(cc.output).sinks) {
      if (s.cell == target) return true;
      if (seen[s.cell.index()]) continue;
      const Cell& sc = nl.cell(s.cell);
      if (sc.kind == CellKind::kLogic && comb(s.cell, sc)) {
        seen[s.cell.index()] = 1;
        stack.push_back(s.cell);
      }
    }
  }
  return false;
}

bool contains(const std::vector<CellId>& v, CellId c) {
  for (CellId m : v)
    if (m == c) return true;
  return false;
}

/// Read-only validation of a delta against a committed state. Returns "" if
/// the delta is applicable, else the rejection reason. Shared verbatim
/// between the live session and the cold-rebuild replay so both paths admit
/// exactly the same deltas.
std::string validate_delta(const Netlist& nl, const Placement& pl,
                           const Delta& d) {
  auto check_cell = [&](std::int32_t id) -> std::string {
    if (id < 0 || static_cast<std::size_t>(id) >= nl.cell_capacity())
      return "cell id " + std::to_string(id) + " out of range";
    if (!nl.cell_alive(CellId(id)))
      return "cell " + std::to_string(id) + " is not alive";
    return "";
  };
  switch (d.kind) {
    case DeltaKind::kMoveCell: {
      std::string err = check_cell(d.cell);
      if (!err.empty()) return err;
      const CellId c(d.cell);
      const Point p{d.x, d.y};
      if (!pl.grid().in_array(p))
        return "target location outside the array";
      if (!pl.compatible(c, p))
        return "target location incompatible with the cell kind";
      return "";
    }
    case DeltaKind::kSetFunction: {
      std::string err = check_cell(d.cell);
      if (!err.empty()) return err;
      const CellId c(d.cell);
      if (nl.cell(c).kind != CellKind::kLogic)
        return "set_function target is not a logic cell";
      if (!d.registered) {
        // Unregistering may close a combinational loop that the flip-flop
        // was breaking. All class members toggle together, so the check
        // treats the whole group as hypothetically combinational.
        const std::vector<CellId> members = eq_group(nl, c);
        auto comb = [&](CellId id, const Cell& cell) {
          return !cell.registered || contains(members, id);
        };
        // A new cycle must pass through a member that transitions
        // registered -> combinational (the prior state was acyclic), so it
        // suffices to probe from those.
        for (CellId m : members)
          if (nl.cell(m).registered && comb_reaches(nl, m, m, comb))
            return "unregistering would create a combinational cycle";
      }
      return "";
    }
    case DeltaKind::kRewireInput: {
      std::string err = check_cell(d.cell);
      if (!err.empty()) return err;
      const CellId c(d.cell);
      const Cell& cc = nl.cell(c);
      if (cc.kind == CellKind::kInputPad)
        return "input pads have no input pins";
      if (d.pin < 0 || static_cast<std::size_t>(d.pin) >= cc.inputs.size())
        return "pin " + std::to_string(d.pin) + " out of range";
      if (d.net < 0 || static_cast<std::size_t>(d.net) >= nl.net_capacity())
        return "net id " + std::to_string(d.net) + " out of range";
      const NetId n(d.net);
      if (!nl.net_alive(n))
        return "net " + std::to_string(d.net) + " is not alive";
      const std::vector<CellId> members = eq_group(nl, c);
      for (CellId m : members)
        if (nl.cell(m).output == n)
          return "net is driven by an equivalence-class member of the target";
      const CellId driver = nl.net(n).driver;
      const Cell& dc = nl.cell(driver);
      if (dc.kind == CellKind::kLogic && !dc.registered) {
        auto comb = [](CellId, const Cell& cell) { return !cell.registered; };
        for (CellId m : members) {
          const Cell& mc = nl.cell(m);
          if (mc.kind == CellKind::kLogic && !mc.registered &&
              comb_reaches(nl, m, driver, comb))
            return "rewire would create a combinational cycle";
        }
      }
      return "";
    }
    case DeltaKind::kSetDelayModel: {
      const double vals[4] = {d.wire_delay_per_unit, d.logic_delay, d.io_delay,
                              d.ff_delay};
      for (double v : vals)
        if (!std::isfinite(v) || v < 0)
          return "delay model constants must be finite and >= 0";
      return "";
    }
  }
  return "unknown delta kind";
}

void collect_cell_nets(const Netlist& nl, CellId c, std::vector<NetId>* out) {
  const Cell& cc = nl.cell(c);
  if (cc.output.valid()) out->push_back(cc.output);
  for (NetId n : cc.inputs)
    if (n.valid()) out->push_back(n);
}

struct StructuralEffects {
  int legalizer_moves = 0;
  int cells_deleted = 0;
  /// The legalizer's place() calls, in order (empty when it did not run).
  std::vector<LegalizerMove> legalizer_placed;
  /// Nets whose wirelength changed; meaningless when cells were deleted
  /// (every net is then re-measured).
  std::vector<NetId> dirty_nets;
};

/// Folds a deferred delay-model change into the engine: one full re-time,
/// which splices any pending rewires first and covers every other pending
/// delta.
void flush_retime(TimingEngine* eng, bool* retime_pending) {
  if (!*retime_pending) return;
  eng->retime_with_wire_lengths(nullptr);
  *retime_pending = false;
}

/// The state transition of one (validated) delta. Used with the live
/// session's TimingEngine AND with eng == nullptr by the cold-rebuild
/// replay; legalize_timing_driven produces identical results either way, so
/// the two paths land on bit-identical states. Throws EcoError when the
/// legalizer cannot resolve an overfull target (the caller rolls back and
/// reports a rejection).
///
/// A delay-model change is not re-timed here: it sets *retime_pending so the
/// caller can defer the full re-time to the next evaluation — a cache-hit
/// stream never pays for it. The one place a stale engine would be consulted
/// mid-apply is the ripple legalizer, so the flush runs eagerly right before
/// it.
void apply_structural(Netlist& nl, Placement& pl, LinearDelayModel& dm,
                      const Delta& d, TimingEngine* eng, bool* retime_pending,
                      StructuralEffects* fx) {
  switch (d.kind) {
    case DeltaKind::kMoveCell: {
      const CellId c(d.cell);
      const Point p{d.x, d.y};
      collect_cell_nets(nl, c, &fx->dirty_nets);
      pl.place(c, p);
      if (eng) eng->on_cell_moved(c);
      if (pl.overuse(p) > 0) {
        if (eng) flush_retime(eng, retime_pending);
        // Bounded region re-place: the timing-driven ripple legalizer only
        // touches monotone paths from the overfull location to nearby free
        // slots, re-timed incrementally through the shared engine. Every
        // committed state is legal, so p is the only overfull slot.
        LegalizerOptions lopt;
        lopt.sole_overfull = p;
        LegalizerResult lr = legalize_timing_driven(nl, pl, dm, lopt, eng);
        if (!lr.success) throw EcoError("legalizer: " + lr.failure);
        fx->legalizer_moves = lr.ripple_moves;
        fx->cells_deleted = lr.unifications;
        if (lr.unifications == 0)
          for (const LegalizerMove& m : lr.moves)
            collect_cell_nets(nl, m.cell, &fx->dirty_nets);
        fx->legalizer_placed = std::move(lr.moves);
      }
      break;
    }
    case DeltaKind::kSetFunction: {
      const std::vector<CellId> members = eq_group(nl, CellId(d.cell));
      bool toggled = false;
      for (CellId m : members) {
        nl.set_function(m, d.function);
        if (nl.cell(m).registered != d.registered) {
          nl.set_registered(m, d.registered);
          toggled = true;
        }
      }
      // A truth-table change alone has no timing effect; a flip-flop toggle
      // turns the output node into a source (or back) and adds or drops the
      // D end point, which the engine's splice rebuilds like a rewire.
      if (toggled && eng) eng->on_cells_rewired(members);
      break;
    }
    case DeltaKind::kRewireInput: {
      const NetId n(d.net);
      const std::vector<CellId> members = eq_group(nl, CellId(d.cell));
      for (CellId m : members) {
        const NetId old = nl.cell(m).inputs[d.pin];
        if (old.valid()) fx->dirty_nets.push_back(old);
        nl.reassign_input(m, d.pin, n);
      }
      fx->dirty_nets.push_back(n);
      if (eng) eng->on_cells_rewired(members);
      break;
    }
    case DeltaKind::kSetDelayModel: {
      dm.wire_delay_per_unit = d.wire_delay_per_unit;
      dm.logic_delay = d.logic_delay;
      dm.io_delay = d.io_delay;
      dm.ff_delay = d.ff_delay;
      // Every edge delay changes, but the graph structure does not:
      // a structure-preserving full re-time, deferred.
      if (eng) *retime_pending = true;
      break;
    }
  }
}

/// Normalization shared by open and (as a validity check) resume: the
/// serialized base must be a pure function of circuit state + deterministic
/// config, so volatile fields (wall clock, metrics, thread count, audit
/// count) are zeroed. Chain checksums — and with them the result cache —
/// are then shareable across servers, runs, thread counts and audit levels.
void normalize_base(FlowSnapshot& s) {
  if (!s.nl || !s.grid || !s.pl || s.stage < FlowStage::kPlaced)
    throw EcoError("session base must contain a placed circuit");
  const std::string nerr = s.nl->validate();
  if (!nerr.empty()) throw EcoError("session base netlist invalid: " + nerr);
  const std::string perr = s.pl->check_legal();
  if (!perr.empty()) throw EcoError("session base placement illegal: " + perr);
  // A constant, NOT the session id: two sessions opened under different ids
  // on identical circuit state must produce identical base bytes (and so
  // share chain checksums and result-cache entries). The session id lives in
  // the .ecs envelope, never in the snapshot.
  s.job_id = "eco";
  s.stage = FlowStage::kReplicated;
  s.place_seconds = 0;
  s.replicate_seconds = 0;
  s.engine = EngineSummary{};
  s.has_metrics = false;
  s.metrics = CircuitMetrics{};
  s.cfg.num_threads = 1;
  // How many audit checks the producing run made depends on its audit
  // level, not on the circuit.
  s.audit_checks = 0;
  // Process-local knobs; cleared so a stale pointer can never be consulted.
  s.cfg.audit = AuditLevel::kOff;
  s.cfg.router.cancel = nullptr;
  s.cfg.annealer.cancel = nullptr;
}

}  // namespace

EcoSession::EcoSession(std::string session_id, FlowSnapshot base,
                       EcoSessionOptions opt)
    : id_(std::move(session_id)), opt_(opt), snap_(std::move(base)) {
  normalize_base(snap_);
  base_blob_ = serialize_snapshot(snap_);
  chain_ = fnv1a64(base_blob_);
  init_runtime();
}

EcoSession::EcoSession(ResumeTag, EcoSessionOptions opt) : opt_(opt) {}

void EcoSession::init_runtime() {
  committed_dm_ = snap_.cfg.delay;
  shadow_nl_ = std::make_unique<Netlist>(*snap_.nl);
  shadow_pl_ =
      std::make_unique<Placement>(snap_.pl->with_netlist(*shadow_nl_));
  eng_ = std::make_unique<TimingEngine>(*snap_.nl, *snap_.pl, snap_.cfg.delay);
  eng_retime_pending_ = false;
  all_nets_dirty_ = true;
  refresh_wirelength();
  last_crit_ = eng_->graph().critical_delay();
}

std::unique_ptr<EcoSession> EcoSession::resume(std::string_view bytes,
                                               EcoSessionOptions opt) {
  auto s = std::unique_ptr<EcoSession>(new EcoSession(ResumeTag{}, opt));
  std::string current_blob;
  try {
    const std::string_view payload =
        parse_wire_envelope(bytes, kEcoMagic, kEcoSessionVersion, "eco session");
    ByteReader r(payload);
    s->id_ = r.str();
    s->base_blob_ = r.str();
    s->chain_ = r.u64();
    s->cache_hits_ = r.u64();
    s->cache_misses_ = r.u64();
    const std::size_t n = r.count(1);
    s->journal_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) s->journal_.push_back(r.str());
    current_blob = r.str();
    if (!r.exhausted())
      throw WireError("trailing bytes after session payload");
  } catch (const WireError& e) {
    throw EcoError(std::string("eco session: ") + e.what());
  }
  // Integrity: the stored chain must re-derive from base bytes + journal —
  // a session file whose journal and chain disagree is corrupt even when
  // its envelope checksum holds.
  std::uint64_t chain = fnv1a64(s->base_blob_);
  for (const std::string& enc : s->journal_) {
    Delta::decode(enc);
    chain = chain_step(chain, enc);
  }
  if (chain != s->chain_)
    throw EcoError("eco session: chain checksum does not match the journal");
  try {
    s->snap_ = parse_snapshot(current_blob);
  } catch (const SnapshotError& e) {
    throw EcoError(std::string("eco session: ") + e.what());
  }
  if (s->snap_.job_id != "eco")
    throw EcoError("eco session: state snapshot is not a normalized eco base");
  if (!s->snap_.nl || !s->snap_.pl)
    throw EcoError("eco session: state snapshot has no circuit");
  const std::string nerr = s->snap_.nl->validate();
  if (!nerr.empty())
    throw EcoError("eco session: restored netlist invalid: " + nerr);
  const std::string perr = s->snap_.pl->check_legal();
  if (!perr.empty())
    throw EcoError("eco session: restored placement illegal: " + perr);
  s->init_runtime();
  return s;
}

void EcoSession::fill_counters(EcoDeltaResult* res) const {
  res->deltas_applied = static_cast<std::int64_t>(journal_.size());
  res->cache_hits = cache_hits_;
  res->cache_misses = cache_misses_;
}

void EcoSession::refresh_wirelength() {
  if (!all_nets_dirty_ && dirty_nets_.empty()) return;  // last_wl_ is exact
  const Netlist& nl = *snap_.nl;
  const Placement& pl = *snap_.pl;
  if (all_nets_dirty_) {
    net_wl_.assign(nl.net_capacity(), 0.0);
    wl_total_ = WirelengthSum{};
    dirty_nets_.clear();
    for (NetId n : nl.live_net_ids()) dirty_nets_.push_back(n);
  }
  net_wl_.resize(nl.net_capacity(), 0.0);
  // A dead net holds 0, so a net that was born or died needs no special
  // case; a net listed twice changes the total once.
  for (NetId n : dirty_nets_) {
    double& wl = net_wl_[n.index()];
    wl_total_.sub(wl);
    wl = nl.net_alive(n) ? pl.net_wirelength(n) : 0.0;
    wl_total_.add(wl);
  }
  all_nets_dirty_ = false;
  dirty_nets_.clear();
  last_wl_ = wl_total_.value();
  ++wirelength_sums_;
}

void EcoSession::evaluate(EcoDeltaResult* res) {
  flush_retime(eng_.get(), &eng_retime_pending_);
  eng_->update();
  last_crit_ = eng_->graph().critical_delay();
  res->crit_ns = last_crit_;
  refresh_wirelength();
  res->wirelength = last_wl_;
  if (opt_.audit != AuditLevel::kOff) {
    AuditOptions aopt;
    aopt.level = opt_.audit;
    aopt.seed = snap_.cfg.seed;
    const Auditor auditor(aopt);
    AuditReport rep = auditor.audit_stage("eco.delta", *snap_.nl,
                                          snap_.pl.get(), &snap_.cfg.delay,
                                          nullptr, nullptr);
    res->audit_checks = static_cast<std::uint64_t>(rep.checks_run);
    if (!rep.clean()) throw AuditError("eco.delta", std::move(rep));
  }
}

void EcoSession::rollback_to_committed() {
  // Copy-assign INTO the live objects: their addresses are what the engine
  // references, so the references stay valid across the restore.
  *snap_.nl = *shadow_nl_;
  *snap_.pl = shadow_pl_->with_netlist(*snap_.nl);
  snap_.cfg.delay = committed_dm_;
  // Rollbacks are rare (cancellation, audit violation, legalizer dead-end),
  // so a full in-place rebuild beats maintaining a per-delta engine shadow
  // on the hot path.
  eng_->resync();
  eng_retime_pending_ = false;
  all_nets_dirty_ = true;
  dirty_nets_.clear();
}

void EcoSession::commit_shadow(const Delta& d,
                               const std::vector<LegalizerMove>& legalizer_placed,
                               int cells_deleted) {
  if (cells_deleted > 0) {
    // The legalizer unified replicas: the netlist lost cells, so copy the
    // whole state instead of replaying.
    *shadow_nl_ = *snap_.nl;
    *shadow_pl_ = snap_.pl->with_netlist(*shadow_nl_);
  } else {
    // Replay the (cheap, deterministic) op on the shadow, then the
    // legalizer's moves in order: the same calls on a bit-identical
    // predecessor state produce a bit-identical successor.
    switch (d.kind) {
      case DeltaKind::kMoveCell:
        shadow_pl_->place(CellId(d.cell), Point{d.x, d.y});
        break;
      case DeltaKind::kSetFunction:
        for (CellId m : eq_group(*shadow_nl_, CellId(d.cell))) {
          shadow_nl_->set_function(m, d.function);
          shadow_nl_->set_registered(m, d.registered);
        }
        break;
      case DeltaKind::kRewireInput:
        for (CellId m : eq_group(*shadow_nl_, CellId(d.cell)))
          shadow_nl_->reassign_input(m, d.pin, NetId(d.net));
        break;
      case DeltaKind::kSetDelayModel:
        break;
    }
    for (const LegalizerMove& m : legalizer_placed)
      shadow_pl_->place(m.cell, m.to);
  }
  committed_dm_ = snap_.cfg.delay;
}

EcoDeltaResult EcoSession::apply(const Delta& d, const CancelToken* cancel) {
  EcoDeltaResult res;
  res.chain = chain_;
  res.reject = validate_delta(*snap_.nl, *snap_.pl, d);
  if (!res.reject.empty()) {
    res.crit_ns = last_crit_;
    res.wirelength = last_wl_;
    fill_counters(&res);
    return res;
  }

  const std::string enc = d.canonical_encoding();
  const std::uint64_t next_chain = chain_step(chain_, enc);
  std::optional<EcoCachedEval> cached;
  if (opt_.cache) cached = opt_.cache->lookup(next_chain);

  StructuralEffects fx;
  try {
    apply_structural(*snap_.nl, *snap_.pl, snap_.cfg.delay, d, eng_.get(),
                     &eng_retime_pending_, &fx);
    if (fx.cells_deleted > 0)
      all_nets_dirty_ = true;
    else
      dirty_nets_.insert(dirty_nets_.end(), fx.dirty_nets.begin(),
                         fx.dirty_nets.end());
    if (cancel) cancel->check("eco.delta");
    if (cached) {
      // Identical re-submission: the post-state metrics are known, so the
      // timing update, wirelength pass and audit battery are all deferred
      // (the engine folds the pending deltas into the next real update).
      ++cache_hits_;
      res.cache_hit = true;
      res.crit_ns = last_crit_ = cached->crit_ns;
      res.wirelength = last_wl_ = cached->wirelength;
    } else {
      ++cache_misses_;
      evaluate(&res);
      if (opt_.cache)
        opt_.cache->store(next_chain, {res.crit_ns, res.wirelength});
    }
  } catch (const EcoError& e) {
    // Soft mid-apply failure (legalizer dead-end): reject, session restored.
    rollback_to_committed();
    res.reject = e.what();
    res.crit_ns = last_crit_;
    res.wirelength = last_wl_;
    fill_counters(&res);
    return res;
  } catch (...) {
    // Cancellation / audit violation: restore, then let the caller classify.
    rollback_to_committed();
    throw;
  }

  commit_shadow(d, fx.legalizer_placed, fx.cells_deleted);
  journal_.push_back(enc);
  chain_ = next_chain;
  res.applied = true;
  res.chain = chain_;
  res.legalizer_moves = fx.legalizer_moves;
  res.cells_deleted = fx.cells_deleted;
  fill_counters(&res);
  return res;
}

EcoDeltaResult EcoSession::query() {
  EcoDeltaResult res;
  flush_retime(eng_.get(), &eng_retime_pending_);
  eng_->update();
  last_crit_ = eng_->graph().critical_delay();
  refresh_wirelength();
  res.applied = true;
  res.chain = chain_;
  res.crit_ns = last_crit_;
  res.wirelength = last_wl_;
  fill_counters(&res);
  return res;
}

CircuitMetrics EcoSession::routed_metrics(const CancelToken* cancel) const {
  FlowConfig rcfg = snap_.cfg;
  rcfg.audit = opt_.audit;
  rcfg.router.cancel = cancel;
  return evaluate_routed(snap_.circuit, *snap_.nl, *snap_.pl, rcfg);
}

std::string EcoSession::serialize() const {
  ByteWriter w;
  w.str(id_);
  w.str(base_blob_);
  w.u64(chain_);
  w.u64(cache_hits_);
  w.u64(cache_misses_);
  w.u64(journal_.size());
  for (const std::string& enc : journal_) w.str(enc);
  w.str(serialize_snapshot(snap_));
  return wire_envelope(kEcoMagic, kEcoSessionVersion, w.take());
}

std::string EcoSession::cold_rebuild_audit(double sta_tolerance) const {
  FlowSnapshot cold;
  try {
    cold = parse_snapshot(base_blob_);
  } catch (const SnapshotError& e) {
    return std::string("cold rebuild: ") + e.what();
  }
  for (std::size_t i = 0; i < journal_.size(); ++i) {
    Delta d;
    try {
      d = Delta::decode(journal_[i]);
    } catch (const EcoError& e) {
      return "cold rebuild: journal entry " + std::to_string(i) + ": " +
             e.what();
    }
    const std::string why = validate_delta(*cold.nl, *cold.pl, d);
    if (!why.empty())
      return "cold rebuild: journal entry " + std::to_string(i) +
             " rejected: " + why;
    StructuralEffects fx;
    bool unused_retime = false;
    try {
      apply_structural(*cold.nl, *cold.pl, cold.cfg.delay, d, nullptr,
                       &unused_retime, &fx);
    } catch (const EcoError& e) {
      return "cold rebuild: journal entry " + std::to_string(i) +
             " failed: " + e.what();
    }
  }
  const std::string cold_bytes = serialize_snapshot(cold);
  const std::string live_bytes = serialize_snapshot(snap_);
  if (cold_bytes != live_bytes)
    return "cold rebuild: state bytes diverge from the live session";
  const TimingGraph tg(*cold.nl, *cold.pl, cold.cfg.delay);
  const double drift = std::abs(tg.critical_delay() - last_crit_);
  if (!(drift <= sta_tolerance))
    return "cold rebuild: critical delay drift " + format_double_17g(drift) +
           " exceeds " + format_double_17g(sta_tolerance);
  const double wl = cold.pl->total_wirelength();
  if (wl != last_wl_)
    return "cold rebuild: wirelength " + format_double_17g(wl) +
           " != session " + format_double_17g(last_wl_);
  return "";
}

}  // namespace repro
