#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "util/stats.h"

namespace flowbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

TimingSnap TimingSnap::take() {
  const repro::TimingCounters& c = repro::timing_counters();
  TimingSnap s;
  s.graph_builds = c.graph_builds.load();
  s.full_sta_passes = c.full_sta_passes.load();
  s.incremental_updates = c.incremental_updates.load();
  s.nodes_reevaluated = c.nodes_reevaluated.load();
  s.edges_redelayed = c.edges_redelayed.load();
  s.engine_resyncs = c.engine_resyncs.load();
  return s;
}

TimingSnap TimingSnap::minus(const TimingSnap& b) const {
  TimingSnap d;
  d.graph_builds = graph_builds - b.graph_builds;
  d.full_sta_passes = full_sta_passes - b.full_sta_passes;
  d.incremental_updates = incremental_updates - b.incremental_updates;
  d.nodes_reevaluated = nodes_reevaluated - b.nodes_reevaluated;
  d.edges_redelayed = edges_redelayed - b.edges_redelayed;
  d.engine_resyncs = engine_resyncs - b.engine_resyncs;
  return d;
}

std::vector<std::pair<std::string, double>> TimingSnap::named() const {
  return {
      {"timing.graph_builds", static_cast<double>(graph_builds)},
      {"timing.full_sta_passes", static_cast<double>(full_sta_passes)},
      {"timing.incremental_updates", static_cast<double>(incremental_updates)},
      {"timing.nodes_reevaluated", static_cast<double>(nodes_reevaluated)},
      {"timing.edges_redelayed", static_cast<double>(edges_redelayed)},
      {"timing.engine_resyncs", static_cast<double>(engine_resyncs)},
  };
}

Tracer::Tracer() : origin_(now_s()) {}

int Tracer::begin(const std::string& name, const std::string& id, int lane) {
  if (!active_) return -1;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.lane = lane;
  s.timing_at_begin = TimingSnap::take();
  s.t0 = now_s();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int s) {
  if (s < 0) return;
  Span& sp = spans_[static_cast<std::size_t>(s)];
  sp.t1 = now_s();
  for (const auto& [key, v] :
       TimingSnap::take().minus(sp.timing_at_begin).named())
    if (v > 0) sp.args.emplace_back(key, v);
  if (!open_.empty() && open_.back() == s) open_.pop_back();
}

int Tracer::add(const std::string& name, const std::string& id, double t0,
                double t1, int parent, int lane) {
  if (!active_) return -1;
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.lane = lane;
  s.t0 = t0;
  s.t1 = t1;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::arg(int s, const std::string& key, double value) {
  if (s >= 0) spans_[static_cast<std::size_t>(s)].args.emplace_back(key, value);
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.t0);
      b = std::min(b, s.t1);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    out[s.name] += std::max(0.0, (s.t1 - s.t0) - covered);
  }
  return out;
}

namespace {

void json_string(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) < 0x20) continue;
    std::fputc(c, f);
  }
  std::fputc('"', f);
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fputs(i ? ",\n{\"name\":" : "{\"name\":", f);
    json_string(f, s.name);
    std::fputs(",\"cat\":", f);
    json_string(f, s.name.substr(0, s.name.find('.')));
    std::fprintf(f, ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
                 s.lane, (s.t0 - origin_) * 1e6, (s.t1 - s.t0) * 1e6);
    std::fputs(",\"args\":{\"id\":", f);
    json_string(f, s.id);
    for (const auto& [k, v] : s.args) {
      std::fputc(',', f);
      json_string(f, k);
      std::fprintf(f, ":%.17g", v);
    }
    std::fputs("}}", f);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace flowbench
