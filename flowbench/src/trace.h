#pragma once

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer of the
// program (one span per call), kept in memory and written at exit as Chrome
// trace-event JSON. A span's self time is its duration minus the part of
// that interval covered by its child spans. When the tracer is inactive,
// begin() returns -1 and nothing is recorded, so untraced passes pay one
// branch per call site.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace flowbench {

/// Seconds on the steady clock.
double now_s();

/// Snapshot of the process-global timing counters (util/stats.h), taken at
/// span boundaries so each span can carry the work it caused.
struct TimingSnap {
  std::uint64_t graph_builds = 0;
  std::uint64_t full_sta_passes = 0;
  std::uint64_t incremental_updates = 0;
  std::uint64_t nodes_reevaluated = 0;
  std::uint64_t edges_redelayed = 0;
  std::uint64_t engine_resyncs = 0;

  static TimingSnap take();
  TimingSnap minus(const TimingSnap& before) const;
  /// (name, value) pairs under the per-layer metric names ("timing.*").
  std::vector<std::pair<std::string, double>> named() const;
};

class Tracer {
 public:
  struct Span {
    std::string name;  ///< layer, e.g. "place" or "eco.apply"
    std::string id;    ///< job or delta id
    int parent = -1;
    int lane = 0;  ///< trace-viewer row (one per concurrent job)
    double t0 = 0;
    double t1 = 0;
    TimingSnap timing_at_begin;
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer();

  bool active() const { return active_; }
  void set_active(bool on) { active_ = on; }

  /// Opens a span nested in the innermost open one; -1 when inactive.
  int begin(const std::string& name, const std::string& id, int lane = 0);
  /// Closes span `s` and attaches the timing-counter work done inside it.
  void end(int s);
  /// Records a span whose interval was measured elsewhere (for example by
  /// the program's own per-stage clocks); -1 when inactive.
  int add(const std::string& name, const std::string& id, double t0, double t1,
          int parent, int lane);
  void arg(int s, const std::string& key, double value);

  std::size_t size() const { return spans_.size(); }
  /// Sum of self time per span name, in seconds.
  std::map<std::string, double> self_seconds() const;
  /// Writes Chrome trace-event JSON ("X" events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool active_ = false;
  double origin_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, const std::string& id,
        int lane = 0)
      : t_(t), s_(t.begin(name, id, lane)) {}
  ~Scope() { t_.end(s_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int index() const { return s_; }

 private:
  Tracer& t_;
  int s_;
};

}  // namespace flowbench
