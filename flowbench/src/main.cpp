// Flow benchmark: one workload per invocation.
//
//   flowbench --workload replicate|place_route|eco_session|serve_batch
//             --seed N --seconds S --trace 0|1
//             [--smoke] [--inject-fault function|occupant|route]
//             [--out-dir DIR]
//
// With --trace 0 it measures untraced passes and prints the end-to-end
// metrics; with --trace 1 it runs one untraced and one traced pass and prints
// the per-layer metrics, the per-layer table and the tracing overhead, and
// writes the spans as Chrome trace-event JSON. Every run checks its outputs
// (outside the timed passes) and compares its deterministic fingerprint with
// any earlier run of the same build and seed. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Exit status is
// 0 only when every check passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/wire.h"
#include "util/stats.h"
#include "util/strfmt.h"

namespace flowbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string exe_hash() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(repro::fnv1a64(bytes)));
  return buf;
}

std::vector<Metric> end_to_end(const Report& r) {
  return {
      {"setup_s", "s", median(r.setup_s)},
      {"pass_s", "s", median(r.pass_s)},
      {"job_geo_s", "s", repro::geomean_of(r.requests_s)},
      {"peak_rss_mib", "MiB", r.peak_rss_mib},
      {"crit_ns", "ns_delay", repro::geomean_of(r.crit_ns)},
      {"wirelength", "segments", repro::geomean_of(r.wirelength)},
      {"ops", "count", static_cast<double>(r.ops_per_pass)},
  };
}

std::vector<Metric> per_layer(const Report& r, const Tracer& tr) {
  const std::map<std::string, double> self = tr.self_seconds();
  auto t = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second;
  };
  auto l = [&](const char* name) {
    auto it = r.layer.find(name);
    return it == r.layer.end() ? 0.0 : it->second;
  };
  const repro::ArenaCounters& ac = repro::arena_counters();
  const double place_route = t("place") + t("route");
  const double untraced = r.pass_s.empty() ? 0 : r.pass_s.front();
  std::vector<Metric> m = {
      {"gen.s", "s", t("gen")},
      {"place.s", "s", t("place")},
      {"place.work_units", "count", l("place.work_units")},
      {"place.accept_ratio", "ratio", l("place.accept_ratio")},
      {"place.legalizer_passes", "count", l("place.legalizer_passes")},
      {"replicate.s", "s", t("replicate")},
      {"replicate.iterations", "count", l("replicate.iterations")},
      {"replicate.improve_ratio", "ratio", l("replicate.improve_ratio")},
      {"replicate.tree_internal_total", "count", l("replicate.tree_internal_total")},
      {"replicate.replicated", "count", l("replicate.replicated")},
      {"replicate.unified", "count", l("replicate.unified")},
      {"replicate.block_overhead_pct", "%", l("replicate.block_overhead_pct")},
      {"replicate.lower_bound_hits", "count", l("replicate.lower_bound_hits")},
      {"replicate.region_truncations", "count", l("replicate.region_truncations")},
      {"replicate.share", "ratio", place_route > 0 ? t("replicate") / place_route : 0},
      {"embed.arena_peak_mib", "MiB", mib(ac.embed_scratch_bytes.load())},
      {"replicate.spec_launched", "count", l("replicate.spec_launched")},
      {"replicate.spec_hits", "count", l("replicate.spec_hits")},
      {"replicate.spec_hit_ratio", "ratio", l("replicate.spec_hit_ratio")},
      {"replicate.spec_discarded", "count", l("replicate.spec_discarded")},
  };
  for (const auto& [name, v] : TimingSnap{}.named())
    m.push_back({name, "count", l(name.c_str())});
  const std::vector<Metric> rest = {
      {"route.s", "s", t("route")},
      {"route.nodes_expanded", "count", l("route.nodes_expanded")},
      {"route.passes", "count", l("route.passes")},
      {"route.wmin", "tracks", l("route.wmin")},
      {"arena.spt_mib", "MiB", mib(ac.spt_scratch_bytes.load())},
      {"arena.monotone_mib", "MiB", mib(ac.monotone_scratch_bytes.load())},
      {"arena.sim_mib", "MiB", mib(ac.sim_buffer_bytes.load())},
      {"arena.bbox_mib", "MiB", mib(ac.annealer_bbox_bytes.load())},
      {"arena.growths", "count", static_cast<double>(ac.scratch_growths.load())},
      {"audit.s", "s", t("audit")},
      {"audit.checks", "count", l("audit.checks")},
      {"serve.queue_wait_s", "s", l("serve.queue_wait_s")},
      {"serve.queue_wait_max_s", "s", l("serve.queue_wait_max_s")},
      {"serve.concurrency", "ratio", l("serve.concurrency")},
      {"serve.checkpoint_s", "s", t("checkpoint")},
      {"serve.checkpoint_bytes", "bytes", l("serve.checkpoint_bytes")},
      {"serve.job_self_s", "s", t("job")},
      {"serve.ref_pass_s", "s", l("serve.ref_pass_s")},
      {"serve.engine_threads_slowdown", "ratio", l("serve.engine_threads_slowdown")},
      {"serve.ref_peak_rss_mib", "MiB", l("serve.ref_peak_rss_mib")},
      {"eco.apply_s", "s", t("eco.apply")},
      {"eco.query_s", "s", t("eco.query")},
      {"eco.evaluated", "count", l("eco.evaluated")},
      {"eco.cache_hits", "count", l("eco.cache_hits")},
      {"eco.cache_hit_ratio", "ratio", l("eco.cache_hit_ratio")},
      {"eco.rejected", "count", l("eco.rejected")},
      {"eco.relegalized", "count", l("eco.relegalized")},
      {"eco.relegalized_hits", "count", l("eco.relegalized_hits")},
      {"eco.delta_p50_ms", "ms", l("eco.delta_p50_ms")},
      {"eco.delta_p99_ms", "ms", l("eco.delta_p99_ms")},
      {"eco.query_p50_ms", "ms", l("eco.query_p50_ms")},
      {"trace.overhead_s", "s", r.traced_pass_s - untraced},
      {"trace.overhead_pct", "%",
       untraced > 0 ? 100.0 * (r.traced_pass_s - untraced) / untraced : 0},
      {"trace.spans", "count", static_cast<double>(tr.size())},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

/// Compares this run's fingerprint with the one an earlier run of the same
/// build and seed left behind; "" when they agree or none exists yet.
std::string check_fingerprint(const Args& a, const std::string& fp) {
  const std::string path = a.out_dir + "/fingerprint-" + a.workload +
                           (a.smoke ? "-smoke-" : "-") + std::to_string(a.seed) + ".txt";
  const std::string content = "exe " + exe_hash() + "\n" + fp;
  std::ifstream in(path);
  if (in) {
    std::stringstream old;
    old << in.rdbuf();
    const std::string prev = old.str();
    if (prev.substr(0, prev.find('\n')) == content.substr(0, content.find('\n')))
      return prev == content ? "" : "fingerprint differs from an earlier run (" + path + ")";
  }
  std::ofstream(path) << content;
  return "";
}

int usage() {
  std::fprintf(stderr,
               "usage: flowbench --workload replicate|place_route|eco_session|"
               "serve_batch --seed N --seconds S --trace 0|1 [--smoke] "
               "[--inject-fault function|occupant|route] [--out-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace flowbench

int main(int argc, char** argv) {
  using namespace flowbench;
  Args a;
  bool serve_reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--smoke") a.smoke = true;
    else if (k == "--serve-reference") serve_reference = true;  // serve_batch's child
    else if (k == "--workload" && has_value) a.workload = argv[++i];
    else if (k == "--seed" && has_value) a.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (k == "--seconds" && has_value) a.seconds = std::atof(argv[++i]);
    else if (k == "--trace" && has_value) a.trace = std::string(argv[++i]) == "1";
    else if (k == "--inject-fault" && has_value) a.fault = argv[++i];
    else if (k == "--out-dir" && has_value) a.out_dir = argv[++i];
    else return usage();
  }
  if (!a.fault.empty() && a.fault != "function" && a.fault != "occupant" &&
      a.fault != "route")
    return usage();
  void (*run)(const Args&, Tracer&, Report&) = nullptr;
  if (a.workload == "replicate") run = run_replicate;
  else if (a.workload == "place_route") run = run_place_route;
  else if (a.workload == "eco_session") run = run_eco_session;
  else if (a.workload == "serve_batch") run = run_serve_batch;
  else return usage();
  std::filesystem::create_directories(a.out_dir);
  if (serve_reference) {
    try {
      return run_serve_reference(a);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve reference: %s\n", e.what());
      return 1;
    }
  }

  Tracer tr;
  Report rep;
  try {
    run(a, tr, rep);
  } catch (const std::exception& e) {
    rep.miss(std::string("workload threw: ") + e.what());
  }
  if (rep.attempted == 0) rep.attempted = 1;
  // The geomeans take logs: a sample that is not positive is a wrong answer.
  for (const auto& [what, samples] :
       {std::pair{"request latency", &rep.requests_s},
        std::pair{"crit_ns", &rep.crit_ns}, std::pair{"wirelength", &rep.wirelength}})
    for (double x : *samples)
      if (!(x > 0)) {
        rep.miss(std::string(what) + " sample " + repro::format_double_17g(x) +
                 " is not positive");
        break;
      }
  if (rep.misses.empty()) {
    const std::string err = check_fingerprint(a, rep.fingerprint);
    if (!err.empty()) rep.miss(err);
  }
  std::printf("workload %s seed %llu: %zu passes, pass_s median %.4f s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              rep.pass_s.size(), median(rep.pass_s));
  std::printf("fingerprint %016llx\n",
              static_cast<unsigned long long>(repro::fnv1a64(rep.fingerprint)));
  for (const std::string& m : rep.misses) std::fprintf(stderr, "CHECK FAILED: %s\n", m.c_str());

  std::vector<Metric> metrics = a.trace ? per_layer(rep, tr) : end_to_end(rep);
  if (a.trace) {
    std::printf("%-34s %18s  %s\n", "layer metric", "value", "unit");
    for (const Metric& m : metrics)
      std::printf("%-34s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("tracing overhead: traced pass %.4f s vs untraced %.4f s\n",
                rep.traced_pass_s, rep.pass_s.empty() ? 0.0 : rep.pass_s.front());
    const std::string path =
        a.out_dir + "/trace-" + a.workload + "-" + std::to_string(a.seed) + ".json";
    if (tr.write_chrome_json(path)) std::printf("trace written to %s\n", path.c_str());
  }

  const bool correct = rep.misses.empty();
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           repro::format_double_17g(v) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
