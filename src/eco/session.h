#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/wirelength.h"
#include "audit/auditor.h"
#include "eco/delta.h"
#include "place/legalizer.h"
#include "serve/snapshot.h"
#include "timing/timing_engine.h"
#include "util/cancel.h"

namespace repro {

inline constexpr std::uint32_t kEcoSessionVersion = 1;

/// One evaluated post-delta state: the deterministic metrics a repeated
/// identical submission can reuse without re-evaluating.
struct EcoCachedEval {
  double crit_ns = 0;
  double wirelength = 0;
};

/// Process-wide result cache shared by every session of a SessionManager.
/// Keyed by the journal chain checksum *after* a delta, which hashes the
/// normalized base snapshot bytes and every canonical delta encoding up to
/// and including that delta — i.e. (snapshot checksum, delta sequence). Two
/// sessions opened on identical parameters share entries.
class EcoResultCache {
 public:
  std::optional<EcoCachedEval> lookup(std::uint64_t chain) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(chain);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }
  void store(std::uint64_t chain, const EcoCachedEval& e) {
    std::lock_guard<std::mutex> lock(mu_);
    map_.emplace(chain, e);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, EcoCachedEval> map_;
};

struct EcoSessionOptions {
  /// Per-delta invariant battery over the touched state (netlist structure,
  /// placement occupancy, eq classes, STA drift probe). Runs on evaluated
  /// (cache-miss) applies; kOff costs nothing.
  AuditLevel audit = AuditLevel::kOff;
  /// Shared result cache; null disables caching (every apply evaluates).
  EcoResultCache* cache = nullptr;
};

/// Outcome of one apply/query against a session.
struct EcoDeltaResult {
  bool applied = false;
  /// Non-empty iff the delta was rejected; the session is unchanged.
  std::string reject;
  bool cache_hit = false;
  /// Journal chain checksum after this operation (unchanged on reject).
  std::uint64_t chain = 0;
  /// Incremental metrics: critical path (placement-estimated STA) and
  /// q(k)-corrected HPWL — bit-identical to a cold TimingGraph build and
  /// Placement::total_wirelength() on the same state (the session keeps an
  /// exact per-net total, so only the nets a write moved are re-measured).
  double crit_ns = 0;
  double wirelength = 0;
  int legalizer_moves = 0;
  int cells_deleted = 0;
  std::int64_t deltas_applied = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t audit_checks = 0;
};

/// A long-lived incremental circuit session (DESIGN.md §11).
///
/// Holds a live netlist/placement plus the persistent incremental
/// TimingEngine and a per-net wirelength cache, and applies a stream of
/// Deltas: validate (read-only) -> mutate -> incremental re-evaluate ->
/// commit, with any failure (cancellation, audit violation, legalizer
/// dead-end) rolling the session back to its last committed state via a
/// shadow copy. Every committed state is legal, validated, and exactly
/// reproducible by replaying the delta journal against the base snapshot
/// with no engine at all (cold_rebuild_audit()).
///
/// Persistence: serialize() emits an "RPE1" envelope (serve/wire.h) over the
/// normalized base snapshot bytes, the chain checksum, the per-session cache
/// counters, the delta journal (canonical encodings) and a current-state
/// snapshot. resume() restores byte-identically: a session that is killed,
/// resumed and continued serializes exactly like one that never stopped.
class EcoSession {
 public:
  /// Opens a session over a flow state at stage >= kPlaced. The snapshot is
  /// normalized first (job id, stage, volatile fields, thread count), so the
  /// base bytes — and with them every chain checksum — are a pure function
  /// of circuit state + deterministic config. Throws EcoError on an unusable
  /// base (missing circuit, illegal placement, invalid netlist).
  EcoSession(std::string session_id, FlowSnapshot base, EcoSessionOptions opt);

  /// Restores a serialized session. Throws EcoError on corruption (bad
  /// envelope, chain/journal mismatch, invalid restored state).
  static std::unique_ptr<EcoSession> resume(std::string_view bytes,
                                            EcoSessionOptions opt);

  EcoSession(const EcoSession&) = delete;
  EcoSession& operator=(const EcoSession&) = delete;

  const std::string& id() const { return id_; }
  const std::string& circuit() const { return snap_.circuit; }
  std::uint64_t base_checksum() const { return fnv1a64(base_blob_); }
  std::uint64_t chain() const { return chain_; }
  std::int64_t deltas_applied() const {
    return static_cast<std::int64_t>(journal_.size());
  }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t cache_misses() const { return cache_misses_; }
  const std::vector<std::string>& journal() const { return journal_; }
  const Netlist& netlist() const { return *snap_.nl; }
  const Placement& placement() const { return *snap_.pl; }
  const FlowConfig& config() const { return snap_.cfg; }
  /// How many times this session brought its wirelength total up to date:
  /// writes and queries that moved no net reuse the last total.
  std::uint64_t wirelength_sums() const { return wirelength_sums_; }

  /// Applies one delta. Rejections (validation failure, legalizer dead-end)
  /// return applied=false with the session untouched. FlowCancelled and
  /// AuditError propagate AFTER the session has been rolled back to its
  /// pre-delta committed state.
  EcoDeltaResult apply(const Delta& d, const CancelToken* cancel = nullptr);

  /// Current incremental metrics; folds any timing work deferred by
  /// cache-hit applies. Does not change the chain or the journal.
  EcoDeltaResult query();

  /// Full routed metrics of the current state (W_inf / W_ls critical paths,
  /// routed wirelength, W_min) via the warm-start-capable deterministic
  /// router path. Read-only on the session.
  CircuitMetrics routed_metrics(const CancelToken* cancel = nullptr) const;

  /// RPE1 session bytes (see class comment). Bit-deterministic.
  std::string serialize() const;

  /// Paranoid delta-chain audit: replays the whole journal against a cold
  /// parse of the base snapshot through the engine-free structural path and
  /// compares serialized state bytes (exact), cold-rebuilt critical delay
  /// (<= sta_tolerance) and total wirelength (exact). "" on agreement.
  std::string cold_rebuild_audit(double sta_tolerance = 1e-9) const;

 private:
  struct ResumeTag {};
  EcoSession(ResumeTag, EcoSessionOptions opt);
  void init_runtime();
  void fill_counters(EcoDeltaResult* res) const;
  void evaluate(EcoDeltaResult* res);
  void refresh_wirelength();
  void rollback_to_committed();
  void commit_shadow(const Delta& d,
                     const std::vector<LegalizerMove>& legalizer_placed,
                     int cells_deleted);

  std::string id_;
  EcoSessionOptions opt_;

  /// Live state. nl/grid/pl are the objects the engine references; the
  /// FlowSnapshot container doubles as the serialization vehicle (its
  /// normalization fields are set once at open and never change).
  FlowSnapshot snap_;

  /// Serialized normalized base state (chain anchor; replayed by the cold
  /// audit). Stored verbatim for byte-stable persistence.
  std::string base_blob_;

  std::uint64_t chain_ = 0;
  std::vector<std::string> journal_;  ///< canonical encodings, apply order
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  /// Last committed state (copy). Rollback copy-assigns these back into the
  /// live objects — addresses stay stable, so the engine's references remain
  /// valid.
  std::unique_ptr<Netlist> shadow_nl_;
  std::unique_ptr<Placement> shadow_pl_;
  LinearDelayModel committed_dm_;

  std::unique_ptr<TimingEngine> eng_;
  /// A delay-model change left every edge delay stale. The full re-time is
  /// deferred to the next evaluation, so cache-hit streams never pay for
  /// it; it runs eagerly only when the ripple legalizer is about to consult
  /// the engine.
  bool eng_retime_pending_ = false;

  /// Wirelength cache: each net id's share of the total (0 for a dead net)
  /// and their exact sum. Evaluation re-measures only the nets dirtied since
  /// the last refresh and moves the total by their change; the sum does not
  /// depend on order, so it reads bit-equal to Placement::total_wirelength()
  /// (last_wl_ is exact whenever no net is dirty).
  std::vector<double> net_wl_;
  WirelengthSum wl_total_;
  std::vector<NetId> dirty_nets_;
  bool all_nets_dirty_ = false;
  std::uint64_t wirelength_sums_ = 0;

  double last_crit_ = 0;
  double last_wl_ = 0;
};

}  // namespace repro
