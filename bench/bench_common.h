#pragma once

// Shared helpers for the benches: the BENCH_*.json summary line, the gates
// that hold a run against its committed BENCH_*.json, and for the table
// benches one optimization variant run on a copy of a prepared circuit and
// evaluated post-routing.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flow/experiment.h"
#include "replicate/engine.h"
#include "replicate/local_replication.h"
#include "serve/jsonl.h"

namespace repro::bench {

inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

/// Emits the `summary` block every BENCH_*.json opens with (schema in
/// EXPERIMENTS.md): benchmark name, one headline speedup figure (NaN, written
/// as null, for a bench without one), run date. Call immediately after
/// writing the opening "{\n".
inline void emit_summary(std::FILE* out, const char* name,
                         double aggregate_speedup) {
  char date[16];
  std::time_t now = std::time(nullptr);
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(date, sizeof date, "%Y-%m-%d", &tm_buf);
  char speedup[32] = "null";
  if (!std::isnan(aggregate_speedup))
    std::snprintf(speedup, sizeof speedup, "%.2f", aggregate_speedup);
  std::fprintf(out,
               "  \"summary\": {\"name\": \"%s\", \"aggregate_speedup\": "
               "%s, \"date\": \"%s\"},\n",
               name, speedup, date);
}

inline std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---- fingerprints (FNV-1a 64) ---------------------------------------------

inline std::uint64_t fnv_init() { return 1469598103934665603ull; }
inline void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

inline std::uint64_t placement_fingerprint(const Netlist& nl,
                                           const Placement& pl) {
  std::uint64_t h = fnv_init();
  for (CellId c : nl.live_cell_ids()) {
    Point p = pl.location(c);
    mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.x)));
    mix(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(p.y)));
  }
  return h;
}

// ---- gates against the committed BENCH_*.json (schema in EXPERIMENTS.md) ---

/// The two flags of a bench that gates against its committed artifact.
struct BenchArgs {
  bool smoke = false;     ///< --smoke: the smoke size only
  std::string reference;  ///< --reference <committed BENCH_<name>.json>
};

/// Parses argv; prints usage and returns false on anything else.
inline bool parse_bench_args(int argc, char** argv, const char* name,
                             BenchArgs* args) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--smoke")) {
      args->smoke = true;
    } else if (!std::strcmp(argv[i], "--reference") && i + 1 < argc) {
      args->reference = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: microbench_%s [--smoke] [--reference "
                   "BENCH_%s.json]\n",
                   name, name);
      return false;
    }
  }
  return true;
}

/// How a measured number is held against its bound.
enum class GateRule { kExact, kAtMost, kAtLeast };

inline bool within(GateRule rule, double value, double bound) {
  if (rule == GateRule::kExact) return value == bound;
  return rule == GateRule::kAtMost ? value <= bound : value >= bound;
}

/// One field of a bench's `smoke_gate` line: the measured value, and the
/// rule comparing it with the committed one — equal, or at most / at least
/// `factor` x committed. Strings are always exact.
struct GateField {
  std::string key;
  JsonValue value;
  GateRule rule = GateRule::kExact;
  double factor = 1;
  int decimals = 0;  ///< digits after the point when the number is written
};

inline GateField exact(std::string key, std::string value) {
  return {std::move(key),
          {JsonValue::Kind::kString, false, 0, std::move(value)}};
}

inline GateField exact(std::string key, std::uint64_t value) {
  return {std::move(key),
          {JsonValue::Kind::kNumber, false, static_cast<double>(value), ""}};
}

inline GateField bounded(std::string key, double value, GateRule rule,
                         double factor, int decimals) {
  return {std::move(key), {JsonValue::Kind::kNumber, false, value, ""}, rule,
          factor, decimals};
}

inline std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

/// A full-run gate on a headline figure: `key` of the artifact's one-line
/// flat object `object` (`summary`, `quality`, ...) must be at most / at
/// least `bound`. `measured` is this run's value.
struct HeadlineGate {
  const char* object;
  const char* key;
  GateRule rule;
  double bound;
  double measured;
};

/// Writes the `smoke_gate` line of an artifact from the gate's field list.
inline void write_smoke_gate(std::FILE* out,
                             const std::vector<GateField>& fields) {
  std::string line = "  \"smoke_gate\": {";
  for (const GateField& f : fields) {
    if (&f != &fields.front()) line += ", ";
    line += "\"" + f.key + "\": ";
    line += f.value.kind == JsonValue::Kind::kString
                ? "\"" + f.value.str + "\""
                : fixed(f.value.num, f.decimals);
  }
  std::fprintf(out, "%s},\n", line.c_str());
}

/// The one-line flat object `"name": {...}` of an artifact's text. Throws
/// JsonlError when there is no such line or it is not a flat object.
inline std::map<std::string, JsonValue> flat_object(const std::string& text,
                                                    const std::string& name) {
  const std::string head = "\"" + name + "\": ";
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const std::size_t begin = line.find_first_not_of(' ');
    if (begin == std::string::npos || line.compare(begin, head.size(), head))
      continue;
    line.erase(line.find_last_not_of(", \r") + 1);
    return parse_jsonl_object(line.substr(begin + head.size()));
  }
  throw JsonlError("no \"" + name + "\" line");
}

/// Compares the smoke-gate fields with the committed `smoke_gate` object;
/// prints one FAIL line per violation and returns their number.
inline int check_smoke_gate(const std::map<std::string, JsonValue>& committed,
                            const std::vector<GateField>& fields) {
  int failures = 0;
  for (const auto& [key, v] : committed) {
    bool measured = false;
    for (const GateField& f : fields) measured = measured || f.key == key;
    if (!measured) {
      std::fprintf(stderr, "FAIL: %s in committed smoke_gate is not measured\n",
                   key.c_str());
      ++failures;
    }
  }
  for (const GateField& f : fields) {
    std::string ours = f.value.str, ref, relation = "differs from";
    try {
      const auto it = committed.find(f.key);
      if (it == committed.end()) throw JsonlError("missing");
      bool ok;
      if (f.value.kind == JsonValue::Kind::kString) {
        ref = json_string(it->second, f.key);
        ok = ref == ours;
      } else {
        // Exact numbers are counts: the committed one must be an integer.
        const double r = f.rule == GateRule::kExact
                             ? static_cast<double>(json_u64(it->second, f.key))
                             : json_number(it->second, f.key);
        ok = within(f.rule, f.value.num, f.factor * r);
        ours = fixed(f.value.num, f.decimals);
        ref = fixed(r, f.decimals);
        if (f.rule != GateRule::kExact)
          relation = (f.rule == GateRule::kAtMost ? "above " : "below ") +
                     fixed(f.factor, 1) + "x";
      }
      if (ok) continue;
      std::fprintf(stderr, "FAIL: %s %s %s committed %s\n", f.key.c_str(),
                   ours.c_str(), relation.c_str(), ref.c_str());
    } catch (const JsonlError& e) {
      std::fprintf(stderr, "FAIL: %s in committed smoke_gate: %s\n",
                   f.key.c_str(), e.what());
    }
    ++failures;
  }
  return failures;
}

/// Holds each headline value against its gate: this run's, or with
/// `committed` (an artifact's text) the committed one. Prints one FAIL line
/// per violation and returns their number.
inline int check_headline(const std::vector<HeadlineGate>& gates,
                          const std::string* committed) {
  int failures = 0;
  for (const HeadlineGate& g : gates) {
    double value = g.measured;
    try {
      if (committed) {
        const auto obj = flat_object(*committed, g.object);
        const auto it = obj.find(g.key);
        if (it == obj.end()) throw JsonlError("missing");
        value = json_number(it->second, g.key);
      }
      if (within(g.rule, value, g.bound)) continue;
      std::fprintf(stderr, "FAIL: %s.%s %s%.4g %s the %g gate\n", g.object,
                   g.key, committed ? "committed " : "", value,
                   g.rule == GateRule::kAtMost ? "above" : "below", g.bound);
    } catch (const JsonlError& e) {
      std::fprintf(stderr, "FAIL: %s.%s in committed file: %s\n", g.object,
                   g.key, e.what());
    }
    ++failures;
  }
  return failures;
}

/// Every gate of one bench run. A full run holds its headline values to
/// `headline`; with --reference the smoke-gate fields are compared with the
/// committed `smoke_gate` line and the committed headline values are held to
/// the same `headline` gates. Prints one FAIL line per violation and returns
/// their number.
inline int check_gates(const BenchArgs& args,
                       const std::vector<GateField>& smoke_gate,
                       const std::vector<HeadlineGate>& headline) {
  int failures = args.smoke ? 0 : check_headline(headline, nullptr);
  if (args.reference.empty()) return failures;
  std::ifstream in(args.reference, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "FAIL: cannot read reference %s\n",
                 args.reference.c_str());
    return failures + 1;
  }
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  int ref_failures = check_headline(headline, &text);
  try {
    ref_failures +=
        check_smoke_gate(flat_object(text, "smoke_gate"), smoke_gate);
  } catch (const JsonlError& e) {
    std::fprintf(stderr, "FAIL: smoke_gate of %s: %s\n",
                 args.reference.c_str(), e.what());
    ++ref_failures;
  }
  if (ref_failures == 0)
    std::printf("gates vs %s: %zu smoke_gate fields and %zu headline "
                "values pass\n",
                args.reference.c_str(), smoke_gate.size(), headline.size());
  return failures + ref_failures;
}

/// A netlist+placement copy that can be optimized independently.
struct WorkingCopy {
  std::unique_ptr<Netlist> nl;
  std::unique_ptr<Placement> pl;

  explicit WorkingCopy(const PlacedCircuit& pc)
      : nl(std::make_unique<Netlist>(*pc.nl)),
        pl(std::make_unique<Placement>(pc.pl->with_netlist(*nl))) {}
};

struct VariantOutcome {
  CircuitMetrics metrics;
  double optimize_seconds = 0;
  EngineResult engine;  // zero-initialized for non-engine variants
};

/// Runs the replication engine variant on a copy and evaluates it routed.
inline VariantOutcome run_engine_variant(const PlacedCircuit& pc,
                                         const FlowConfig& cfg, EmbedVariant variant) {
  WorkingCopy w(pc);
  EngineOptions opt;
  opt.variant = variant;
  opt.num_threads = cfg.num_threads;
  const double t0 = now_seconds();
  VariantOutcome out;
  out.engine = run_replication_engine(*w.nl, *w.pl, cfg.delay, opt);
  out.optimize_seconds = now_seconds() - t0;
  out.metrics = evaluate_routed(pc.name, *w.nl, *w.pl, cfg);
  return out;
}

/// Runs local replication best-of-three (the paper's protocol) on copies and
/// evaluates the winner routed.
inline VariantOutcome run_local_replication_best3(const PlacedCircuit& pc,
                                                  const FlowConfig& cfg) {
  VariantOutcome out;
  std::unique_ptr<WorkingCopy> best;
  double best_crit = 0;
  const double t0 = now_seconds();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto w = std::make_unique<WorkingCopy>(pc);
    LocalReplicationOptions opt;
    opt.seed = seed * 7919;
    LocalReplicationResult r = run_local_replication(*w->nl, *w->pl, cfg.delay, opt);
    if (!best || r.final_critical < best_crit) {
      best_crit = r.final_critical;
      best = std::move(w);
    }
  }
  out.optimize_seconds = now_seconds() - t0;
  out.metrics = evaluate_routed(pc.name, *best->nl, *best->pl, cfg);
  return out;
}

}  // namespace repro::bench
