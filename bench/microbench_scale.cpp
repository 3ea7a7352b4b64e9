// Scale benchmark: the default generate -> place -> replicate -> route
// pipeline on generated clma-profile circuits of 2k / 10k / 30k / 100k logic
// blocks (DESIGN.md §9), with per-stage wall time and peak RSS as telemetry.
// Writes BENCH_scale.json into the working directory.
//
// Gate (--smoke runs the smallest size only). With --reference <committed
// BENCH_scale.json>:
//   - the smoke size's netlist, placement and history fingerprints, routed
//     wirelength and routed-delay bits must equal the committed values
//     exactly: the flow is deterministic, so any difference is a behaviour
//     change that needs a deliberate re-baseline;
//   - the arena high-water bytes (deterministic ArenaCounters accounting,
//     not kernel RSS) must not exceed the committed value by more than 10%.
// Seconds and RSS are machine-dependent and never gated.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/circuit_gen.h"
#include "place/annealer.h"
#include "replicate/engine.h"
#include "route/router.h"
#include "util/mem.h"
#include "util/stats.h"

namespace repro {
namespace {

// ---- netlist fingerprint (FNV-1a 64) -------------------------------------

using bench::fnv_init;
using bench::mix;

std::uint64_t netlist_fingerprint(const Netlist& nl) {
  std::uint64_t h = fnv_init();
  for (CellId c : nl.live_cell_ids()) {
    const Cell& cell = nl.cell(c);
    mix(h, static_cast<std::uint64_t>(cell.kind));
    mix(h, cell.function);
    mix(h, cell.registered ? 1 : 0);
    mix(h, cell.output.valid() ? cell.output.value() : static_cast<std::uint64_t>(-7));
    for (NetId n : cell.inputs)
      mix(h, n.valid() ? n.value() : static_cast<std::uint64_t>(-7));
  }
  for (NetId n : nl.live_net_ids()) {
    const Net& net = nl.net(n);
    mix(h, net.driver.value());
    for (const Sink& s : net.sinks) {
      mix(h, s.cell.value());
      mix(h, static_cast<std::uint64_t>(s.pin));
    }
  }
  return h;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// ---- bench ----------------------------------------------------------------

struct StageResult {
  double seconds = 0;
  std::uint64_t peak_rss = 0;
};

struct SizeResult {
  int num_logic = 0;
  std::size_t cells = 0;
  StageResult gen, place, replicate, route;
  double final_critical = 0;
  double routed_delay = 0;
  std::int64_t wirelength = 0;
  std::uint64_t netlist_fp = 0;
  std::uint64_t placement_fp = 0;
  std::uint64_t history_fp = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t scratch_reuses = 0;
  std::uint64_t scratch_growths = 0;
};

/// The clma profile scaled to the requested LUT count keeps Table I's
/// density/I-O shape at every size (the generator's structural tests pin the
/// same profile at >= 1e5 cells).
CircuitSpec spec_for_size(int num_logic, std::uint64_t seed) {
  const McncCircuit& clma = mcnc_suite().back();
  return spec_for(clma, static_cast<double>(num_logic) / clma.luts, seed);
}

SizeResult run_size(int num_logic, std::uint64_t seed) {
  const LinearDelayModel dm;
  SizeResult out;
  out.num_logic = num_logic;

  // ---- generate
  reset_peak_rss();
  double t0 = bench::now_seconds();
  Netlist nl = generate_circuit(spec_for_size(num_logic, seed));
  out.gen.seconds = bench::now_seconds() - t0;
  out.gen.peak_rss = peak_rss_bytes();
  out.cells = nl.num_live_cells();
  FpgaGrid grid(FpgaGrid::min_grid_for(
      nl.num_logic(), nl.num_input_pads() + nl.num_output_pads()));
  arena_counters().reset();

  // ---- place
  reset_peak_rss();
  t0 = bench::now_seconds();
  AnnealerOptions aopt;
  aopt.inner_num = 0.1;  // bench knob: keeps 1e5-cell anneals in minutes
  aopt.seed = seed * 977 + 13;
  Placement pl = anneal_placement(nl, grid, dm, aopt);
  out.place.seconds = bench::now_seconds() - t0;
  out.place.peak_rss = peak_rss_bytes();

  // ---- replicate
  reset_peak_rss();
  t0 = bench::now_seconds();
  EngineOptions eopt;
  eopt.variant = EmbedVariant::kLex3;
  // Bench knobs: bounded optimization effort, modest trees and short Pareto
  // lists bound the embedding DP per call, and the region guard keeps
  // chip-spanning trees from costing a chip-sized DP at 1e4+ cells.
  eopt.max_iterations = 4;
  eopt.max_stagnant_iterations = 4;
  eopt.max_tree_internal = 64;
  eopt.max_labels = 8;
  eopt.max_region_points = 4096;
  eopt.num_threads = 1;
  EngineResult r = run_replication_engine(nl, pl, dm, eopt);
  out.replicate.seconds = bench::now_seconds() - t0;
  out.replicate.peak_rss = peak_rss_bytes();
  out.final_critical = r.final_critical;
  out.history_fp = fnv_init();
  for (const IterationStats& it : r.history) {
    mix(out.history_fp, static_cast<std::uint64_t>(it.iteration));
    mix(out.history_fp, double_bits(it.critical_delay));
    mix(out.history_fp, static_cast<std::uint64_t>(it.replicated_cum));
    mix(out.history_fp, static_cast<std::uint64_t>(it.unified_cum));
  }

  // ---- route (W_inf)
  reset_peak_rss();
  t0 = bench::now_seconds();
  RouterOptions ropt;
  RoutingResult rr = route(nl, pl, ropt);
  out.route.seconds = bench::now_seconds() - t0;
  out.route.peak_rss = peak_rss_bytes();
  out.routed_delay = routed_critical_delay(nl, pl, dm, rr);
  out.wirelength = rr.total_wirelength;

  out.netlist_fp = netlist_fingerprint(nl);
  out.placement_fp = bench::placement_fingerprint(nl, pl);
  const ArenaCounters& ac = arena_counters();
  out.arena_bytes = ac.total_bytes();
  out.scratch_reuses = ac.scratch_reuses.load();
  out.scratch_growths = ac.scratch_growths.load();
  return out;
}

}  // namespace
}  // namespace repro

int main(int argc, char** argv) {
  using namespace repro;
  bench::BenchArgs args;
  if (!bench::parse_bench_args(argc, argv, "scale", &args)) return 2;
  const bool smoke = args.smoke;

  const std::uint64_t seed = 7;
  const std::vector<int> sizes =
      smoke ? std::vector<int>{2000} : std::vector<int>{2000, 10000, 30000, 100000};

  std::vector<SizeResult> results;
  for (int n : sizes) {
    results.push_back(run_size(n, seed));
    const SizeResult& r = results.back();
    std::printf(
        "n=%6d cells=%6zu place=%7.2fs repl=%7.2fs route=%7.2fs "
        "rss=%5.0f/%5.0f/%5.0f MiB crit=%.4f wl=%lld nl_fp=%016llx\n",
        n, r.cells, r.place.seconds, r.replicate.seconds, r.route.seconds,
        r.place.peak_rss / 1048576.0, r.replicate.peak_rss / 1048576.0,
        r.route.peak_rss / 1048576.0, r.final_critical,
        static_cast<long long>(r.wirelength),
        static_cast<unsigned long long>(r.netlist_fp));
    std::fflush(stdout);
  }

  // The smoke gate always reads the smallest size, which both full and
  // smoke runs execute. The scale bench has no headline gate.
  const SizeResult& s = results[0];
  const std::vector<bench::GateField> smoke_gate = {
      bench::exact("smoke_netlist_fp", bench::hex(s.netlist_fp)),
      bench::exact("smoke_placement_fp", bench::hex(s.placement_fp)),
      bench::exact("smoke_history_fp", bench::hex(s.history_fp)),
      bench::exact("smoke_wirelength", s.wirelength),
      bench::exact("smoke_routed_delay_bits",
                   bench::hex(double_bits(s.routed_delay))),
      bench::bounded("smoke_arena_bytes", s.arena_bytes,
                     bench::GateRule::kAtMost, 1.1, 0),
  };
  const int failures = bench::check_gates(args, smoke_gate, {});

  FILE* out = std::fopen("BENCH_scale.json", "w");
  if (!out) {
    std::fprintf(stderr, "cannot open BENCH_scale.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  bench::emit_summary(out, "scale", NAN);
  std::fprintf(out, "  \"benchmark\": \"scale\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  bench::write_smoke_gate(out, smoke_gate);
  std::fprintf(out,
               "  \"note\": \"one configuration (the defaults); the gate "
               "compares the smoke size's fingerprints, wirelength and "
               "routed-delay bits exactly and its arena high-water bytes "
               "within 10%%; seconds and rss are machine-dependent "
               "telemetry\",\n  \"sizes\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(
        out,
        "    {\"num_logic\": %d, \"cells\": %zu,\n"
        "     \"gen_seconds\": %.3f, \"place_seconds\": %.3f, "
        "\"replicate_seconds\": %.3f, \"route_seconds\": %.3f,\n"
        "     \"gen_peak_rss_bytes\": %llu, \"place_peak_rss_bytes\": %llu, "
        "\"replicate_peak_rss_bytes\": %llu, \"route_peak_rss_bytes\": %llu,\n"
        "     \"arena_bytes\": %llu, \"scratch_reuses\": %llu, "
        "\"scratch_growths\": %llu,\n"
        "     \"final_critical_ns\": %.6f, \"routed_delay_ns\": %.6f, "
        "\"wirelength\": %lld,\n"
        "     \"netlist_fp\": \"%016llx\", \"placement_fp\": \"%016llx\", "
        "\"history_fp\": \"%016llx\"}%s\n",
        r.num_logic, r.cells, r.gen.seconds, r.place.seconds,
        r.replicate.seconds, r.route.seconds,
        static_cast<unsigned long long>(r.gen.peak_rss),
        static_cast<unsigned long long>(r.place.peak_rss),
        static_cast<unsigned long long>(r.replicate.peak_rss),
        static_cast<unsigned long long>(r.route.peak_rss),
        static_cast<unsigned long long>(r.arena_bytes),
        static_cast<unsigned long long>(r.scratch_reuses),
        static_cast<unsigned long long>(r.scratch_growths), r.final_critical,
        r.routed_delay, static_cast<long long>(r.wirelength),
        static_cast<unsigned long long>(r.netlist_fp),
        static_cast<unsigned long long>(r.placement_fp),
        static_cast<unsigned long long>(r.history_fp),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  if (failures) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
    return 1;
  }
  std::printf("all gates passed\n");
  return 0;
}
