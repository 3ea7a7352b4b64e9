#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace repro {

/// Streaming summary statistics (Welford's algorithm for variance).
class StatAccumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::size_t n_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0;
  double m2_ = 0;
};

/// Process-global counters for the timing layer, exposing how much work the
/// incremental TimingEngine performs versus the from-scratch bootstrap path.
/// Tests assert on these (e.g. "zero graph rebuilds inside the replication
/// engine's main loop") and the benches report them, so the incremental win
/// is observable rather than asserted.
///
/// The fields are atomics: the flow service runs several jobs' timing
/// engines concurrently, and their counts must neither be lost nor race
/// with readers.
struct TimingCounters {
  std::atomic<std::uint64_t> graph_builds{0};        ///< TimingGraph constructions (bootstrap/oracle)
  std::atomic<std::uint64_t> full_sta_passes{0};     ///< complete run_sta sweeps (all edges + all nodes)
  std::atomic<std::uint64_t> engine_resyncs{0};      ///< TimingEngine full in-place rebuilds
  std::atomic<std::uint64_t> topo_sorts{0};          ///< whole-graph topological sorts
  std::atomic<std::uint64_t> incremental_updates{0}; ///< TimingEngine::update() calls served incrementally
  std::atomic<std::uint64_t> nodes_reevaluated{0};   ///< arrival/downstream recomputes on the delta path
  std::atomic<std::uint64_t> edges_redelayed{0};     ///< edge-delay recomputes on the delta path
  std::atomic<std::uint64_t> rebuilds_avoided{0};    ///< updates that would have been full rebuilds before
  std::atomic<std::uint64_t> paranoid_checks{0};     ///< incremental-vs-oracle cross-checks performed

  void reset() {
    graph_builds = 0;
    full_sta_passes = 0;
    engine_resyncs = 0;
    topo_sorts = 0;
    incremental_updates = 0;
    nodes_reevaluated = 0;
    edges_redelayed = 0;
    rebuilds_avoided = 0;
    paranoid_checks = 0;
  }
};

/// The global timing counter instance (thread-safe: atomic fields).
TimingCounters& timing_counters();

/// RAII guard that suppresses timing-counter accounting in the current scope
/// of the current thread (the flag is thread-local, so a suppressor on one
/// thread does not hide work done concurrently by others). The paranoid
/// oracle rebuild uses this so cross-check TimingGraph constructions do not
/// pollute the "rebuilds avoided" evidence.
class TimingCounterSuppressor {
 public:
  TimingCounterSuppressor();
  ~TimingCounterSuppressor();
  static bool active();

 private:
  bool prev_;
};

/// Process-global high-water counters for the generation-stamped scratch
/// arenas introduced by the million-cell scale pass (DESIGN.md §9). Each
/// field records the peak capacity, in bytes, that one arena family ever
/// reached in this process; reuse/growth counts show how often a call was
/// served without any allocation. Like TimingCounters these are atomics —
/// concurrent service jobs run SPT extraction and embedding on their own
/// threads with thread-local arenas, all reporting here.
struct ArenaCounters {
  std::atomic<std::uint64_t> spt_scratch_bytes{0};       ///< SPT extraction arenas
  std::atomic<std::uint64_t> monotone_scratch_bytes{0};  ///< monotone-bound arenas
  std::atomic<std::uint64_t> embed_scratch_bytes{0};     ///< embedder DP arenas
  std::atomic<std::uint64_t> sim_buffer_bytes{0};        ///< simulator flat buffers
  std::atomic<std::uint64_t> annealer_bbox_bytes{0};     ///< incremental net bboxes
  std::atomic<std::uint64_t> analytic_net_model_bytes{0};  ///< analytic placer pin CSR
  std::atomic<std::uint64_t> analytic_density_bytes{0};    ///< analytic placer bin grids
  std::atomic<std::uint64_t> scratch_reuses{0};   ///< calls served with no growth
  std::atomic<std::uint64_t> scratch_growths{0};  ///< calls that grew an arena

  void reset();
  /// Sum of the per-arena peaks (a cheap upper bound on arena footprint).
  std::uint64_t total_bytes() const;
};

/// The global arena counter instance (thread-safe: atomic fields).
ArenaCounters& arena_counters();

/// Monotone fetch-max: raises `field` to `bytes` if larger (memory_order
/// relaxed — the counters are observability, never synchronization).
void arena_record_peak(std::atomic<std::uint64_t>& field, std::uint64_t bytes);

/// Arithmetic mean of a vector (0 for empty).
double mean_of(const std::vector<double>& v);

/// Geometric mean of a vector of positive values (0 for empty).
double geomean_of(const std::vector<double>& v);

/// Format a double with fixed precision — shared by the table printers.
std::string fmt(double v, int precision = 3);

}  // namespace repro
