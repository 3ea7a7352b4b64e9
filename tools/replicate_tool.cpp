// Command-line driver for the placement-coupled replication flow.
//
// Input is either a technology-mapped BLIF netlist (--blif) or a generated
// MCNC-like circuit (--circuit NAME). The tool anneals a timing-driven
// placement (or loads one with --place), optionally runs one of the
// replication variants, optionally routes, and can write the resulting
// netlist/placement/SVG.
//
//   replicate_tool --circuit apex2 --variant lex3 --route
//   replicate_tool --blif design.blif --variant rt \
//                  --out-blif out.blif --out-place out.place --svg out.svg
//
// Exit code 0 on success, 1 on an internal failure (equivalence/legality), 2
// on bad usage.

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "eco/session_manager.h"
#include "flow/experiment.h"
#include "flow/svg_report.h"
#include "netlist/blif.h"
#include "netlist/sim.h"
#include "place/place_io.h"
#include "replicate/engine.h"
#include "replicate/local_replication.h"
#include "util/mem.h"
#include "util/stats.h"
#include "timing/timing_graph.h"
#include "util/log.h"

using namespace repro;

namespace {

struct Args {
  std::string blif;
  std::string circuit = "apex2";
  double scale = 0.25;
  std::uint64_t seed = 7;
  std::string placer;  // "" = leave to REPRO_PLACER / config default
  std::string variant = "lex3";
  int threads = 0;
  std::string place_in;
  std::string out_blif;
  std::string out_place;
  std::string svg;
  bool do_route = false;
  std::string audit;  // "" = leave to REPRO_AUDIT / config default
  std::string eco;    // session-op JSONL file to replay offline
  bool verbose = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: replicate_tool [options]\n"
      "  --blif FILE        read a technology-mapped BLIF netlist\n"
      "  --circuit NAME     generate an MCNC-like circuit (default apex2)\n"
      "  --scale S          generator scale vs Table I sizes (default 0.25)\n"
      "  --seed N           generator/annealer seed (default 7)\n"
      "  --place FILE       load an initial placement instead of annealing\n"
      "  --placer BACKEND   annealer | analytic | hybrid (default annealer,\n"
      "                     or REPRO_PLACER); see DESIGN.md section 10\n"
      "  --variant V        rt|lex2|lex3|lex4|lex5|mc|local|none (default lex3)\n"
      "  --threads N        embedder join threads (0 = hardware, 1 = serial;\n"
      "                     results are identical for every value)\n"
      "  --route            evaluate routed W_inf / W_ls critical paths\n"
      "  --audit LEVEL      invariant auditing after place/replicate/route:\n"
      "                     off | stage | paranoid (default off, or\n"
      "                     REPRO_AUDIT); exit 3 on an audit failure\n"
      "  --eco FILE         replay a session-op JSONL stream (open_session /\n"
      "                     apply_delta / query / close_session) in memory,\n"
      "                     printing one result line per op; every close runs\n"
      "                     the cold-rebuild delta-chain audit. Exit 1 if any\n"
      "                     op failed. Other flags set the base flow config\n"
      "  --out-blif FILE    write the optimized netlist\n"
      "  --out-place FILE   write the final placement\n"
      "  --svg FILE         write a placement/criticality SVG\n"
      "  --verbose          engine debug logging; with --route, one line per\n"
      "                     W_min search probe\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    auto need = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "replicate_tool: missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    // Numeric values parse strictly; a malformed or out-of-range one is a
    // usage error, never a silent default.
    auto bad_value = [&] {
      std::fprintf(stderr, "replicate_tool: bad value '%s' for %s\n", v, arg);
      return false;
    };
    if (!std::strcmp(arg, "--blif")) {
      if (!(v = need(arg))) return false;
      a.blif = v;
    } else if (!std::strcmp(arg, "--circuit")) {
      if (!(v = need(arg))) return false;
      a.circuit = v;
    } else if (!std::strcmp(arg, "--scale")) {
      if (!(v = need(arg))) return false;
      if (!parse_double(v, &a.scale) || a.scale <= 0) return bad_value();
    } else if (!std::strcmp(arg, "--seed")) {
      if (!(v = need(arg))) return false;
      long seed = 0;
      if (!parse_long(v, &seed) || seed < 0) return bad_value();
      a.seed = static_cast<std::uint64_t>(seed);
    } else if (!std::strcmp(arg, "--place")) {
      if (!(v = need(arg))) return false;
      a.place_in = v;
    } else if (!std::strcmp(arg, "--placer")) {
      if (!(v = need(arg))) return false;
      a.placer = v;
    } else if (!std::strcmp(arg, "--variant")) {
      if (!(v = need(arg))) return false;
      a.variant = v;
    } else if (!std::strcmp(arg, "--threads")) {
      if (!(v = need(arg))) return false;
      long threads = 0;
      if (!parse_long(v, &threads) || threads < 0 || threads > INT_MAX) return bad_value();
      a.threads = static_cast<int>(threads);
    } else if (!std::strcmp(arg, "--route")) {
      a.do_route = true;
    } else if (!std::strcmp(arg, "--audit")) {
      if (!(v = need(arg))) return false;
      a.audit = v;
    } else if (!std::strcmp(arg, "--eco")) {
      if (!(v = need(arg))) return false;
      a.eco = v;
    } else if (!std::strcmp(arg, "--out-blif")) {
      if (!(v = need(arg))) return false;
      a.out_blif = v;
    } else if (!std::strcmp(arg, "--out-place")) {
      if (!(v = need(arg))) return false;
      a.out_place = v;
    } else if (!std::strcmp(arg, "--svg")) {
      if (!(v = need(arg))) return false;
      a.svg = v;
    } else if (!std::strcmp(arg, "--verbose")) {
      a.verbose = true;
    } else {
      std::fprintf(stderr, "replicate_tool: unknown option '%s'\n", arg);
      return false;
    }
  }
  return true;
}

}  // namespace

namespace {

int run(const Args& args);

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  if (args.verbose) set_log_level(LogLevel::kDebug);
  // Any uncaught failure becomes a one-line error on stderr, never an
  // unhandled-exception traceback.
  try {
    return run(args);
  } catch (const AuditError& e) {
    std::fprintf(stderr, "replicate_tool: audit failed: %s\n", e.what());
    std::fprintf(stderr, "%s\n", e.report().to_jsonl_lines().c_str());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replicate_tool: error: %s\n", e.what());
    return 1;
  }
}

namespace {

int run(const Args& args) {

  FlowConfig cfg = config_from_env();
  cfg.scale = args.scale;
  cfg.seed = args.seed;
  if (!args.placer.empty() && !parse_placer_backend(args.placer, &cfg.placer)) {
    std::fprintf(stderr, "replicate_tool: bad --placer backend '%s'\n",
                 args.placer.c_str());
    return usage();
  }
  if (!args.audit.empty() && !parse_audit_level(args.audit, &cfg.audit)) {
    std::fprintf(stderr, "replicate_tool: bad --audit level '%s'\n",
                 args.audit.c_str());
    return usage();
  }
  // ---- ECO replay mode ------------------------------------------------------
  if (!args.eco.empty()) {
    std::ifstream in(args.eco);
    if (!in) {
      std::fprintf(stderr, "replicate_tool: cannot read %s\n",
                   args.eco.c_str());
      return 2;
    }
    SessionManagerOptions mopt;
    mopt.audit = cfg.audit;
    mopt.cold_audit = true;  // offline replay is the paranoid path
    mopt.base = cfg;
    SessionManager sessions(mopt);
    bool any_failed = false;
    std::string line;
    while (std::getline(in, line)) {
      const auto pos = line.find_first_not_of(" \t\r");
      if (pos == std::string::npos || line[pos] == '#') continue;
      const std::string result = sessions.handle_line(line);
      std::printf("%s\n", result.c_str());
      if (result.find("\"ok\":false") != std::string::npos) any_failed = true;
    }
    return any_failed ? 1 : 0;
  }

  AuditOptions audit_opt;
  audit_opt.level = cfg.audit;
  audit_opt.seed = cfg.seed;
  const Auditor auditor(audit_opt);

  // ---- obtain a netlist -----------------------------------------------------
  std::unique_ptr<Netlist> nl;
  std::string name;
  if (!args.blif.empty()) {
    try {
      BlifResult r = read_blif_file(args.blif);
      nl = std::make_unique<Netlist>(std::move(r.netlist));
      name = r.model_name.empty() ? args.blif : r.model_name;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replicate_tool: error reading %s: %s\n",
                   args.blif.c_str(), e.what());
      return 2;
    }
  } else {
    const McncCircuit* c = find_mcnc_circuit(args.circuit);
    if (!c) {
      std::fprintf(stderr, "replicate_tool: unknown circuit '%s'\n",
                   args.circuit.c_str());
      return usage();
    }
    nl = std::make_unique<Netlist>(generate_circuit(spec_for(*c, cfg.scale, cfg.seed)));
    name = c->name;
  }
  Netlist golden = *nl;
  std::printf("%s: %zu LUTs (%zu registered), %zu inputs, %zu outputs\n",
              name.c_str(), nl->num_logic(), nl->num_registered(),
              nl->num_input_pads(), nl->num_output_pads());

  // ---- place ----------------------------------------------------------------
  const int n = FpgaGrid::min_grid_for(nl->num_logic(),
                                       nl->num_input_pads() + nl->num_output_pads());
  FpgaGrid grid(n);
  std::unique_ptr<Placement> pl;
  if (!args.place_in.empty()) {
    pl = std::make_unique<Placement>(*nl, grid);
    try {
      read_placement_file(*pl, args.place_in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replicate_tool: error reading %s: %s\n",
                   args.place_in.c_str(), e.what());
      return 2;
    }
  } else {
    PlacerOptions popt;
    popt.backend = cfg.placer;
    popt.annealer = cfg.annealer;
    popt.annealer.seed = cfg.seed;
    popt.analytic = cfg.analytic;
    popt.audit = cfg.audit;
    popt.audit_seed = cfg.seed;
    PlacerStats pstats;
    pl = std::make_unique<Placement>(
        place_circuit(*nl, grid, cfg.delay, popt, &pstats));
    std::printf("placer %s: %llu work units\n",
                placer_backend_name(pstats.backend),
                static_cast<unsigned long long>(pstats.work_units()));
  }
  {
    TimingGraph tg(*nl, *pl, cfg.delay);
    std::printf("placed on %dx%d; critical path estimate %.2f ns\n", n, n,
                tg.critical_delay());
  }
  if (cfg.audit != AuditLevel::kOff)
    Auditor::require_clean(
        "place", auditor.audit_stage("place", *nl, pl.get(), &cfg.delay));

  // ---- optimize ---------------------------------------------------------------
  if (args.variant == "local") {
    LocalReplicationOptions opt;
    opt.seed = cfg.seed;
    LocalReplicationResult r = run_local_replication(*nl, *pl, cfg.delay, opt);
    std::printf("local replication: %.2f -> %.2f ns (%d replicas)\n",
                r.initial_critical, r.final_critical, r.replications);
  } else if (args.variant != "none") {
    EngineOptions opt;
    if (!parse_variant(args.variant, &opt.variant)) return usage();
    opt.num_threads = args.threads > 0 ? args.threads : cfg.num_threads;
    EngineResult r = run_replication_engine(*nl, *pl, cfg.delay, opt);
    std::printf("%s: %.2f -> %.2f ns over %zu iterations "
                "(%d replicated, %d unified)%s\n",
                variant_name(opt.variant), r.initial_critical, r.final_critical,
                r.history.size(), r.total_replicated, r.total_unified,
                r.ran_out_of_slots ? " [slots exhausted]" : "");
    if (r.region_truncations > 0)
      std::printf("warning: %llu embedding region(s) truncated by "
                  "max_region_points guard\n",
                  static_cast<unsigned long long>(r.region_truncations));
  }

  // ---- verify -----------------------------------------------------------------
  std::string why;
  if (!functionally_equivalent(golden, *nl, 64, 0xC0FFEE, &why)) {
    std::fprintf(stderr,
                 "replicate_tool: INTERNAL ERROR: optimized netlist not "
                 "equivalent: %s\n",
                 why.c_str());
    return 1;
  }
  if (!pl->legal()) {
    std::fprintf(stderr, "replicate_tool: INTERNAL ERROR: placement illegal: %s\n",
                 pl->check_legal().c_str());
    return 1;
  }
  if (cfg.audit != AuditLevel::kOff)
    Auditor::require_clean(
        "replicate",
        auditor.audit_stage("replicate", *nl, pl.get(), &cfg.delay, &golden));

  // ---- route / outputs ----------------------------------------------------------
  if (args.do_route) {
    CircuitMetrics m = evaluate_routed(name, *nl, *pl, cfg);
    std::printf(
        "routed: W_inf %.2f ns | W_ls %.2f ns (Wmin %d) | wirelength %lld | "
        "%llu nodes expanded in %llu passes\n",
        m.crit_winf, m.crit_wls, m.wmin, static_cast<long long>(m.wirelength),
        static_cast<unsigned long long>(m.route_nodes_expanded),
        static_cast<unsigned long long>(m.route_passes));
    if (args.verbose) {
      // Width "inf" is the infinite-resource run that seeds the upper bound.
      for (const WminProbeStats& p : m.wmin_probes)
        std::printf("  W_min probe: width %s %s (%s), %d passes, %llu nodes expanded\n",
                    p.width > 0 ? std::to_string(p.width).c_str() : "inf",
                    p.success ? "routed" : "failed", p.warm ? "warm" : "cold",
                    p.passes, static_cast<unsigned long long>(p.nodes_expanded));
    }
  }
  try {
    if (!args.out_blif.empty()) {
      write_blif_file(*nl, name, args.out_blif);
      std::printf("wrote %s\n", args.out_blif.c_str());
    }
    if (!args.out_place.empty()) {
      write_placement_file(*pl, name, args.out_place);
      std::printf("wrote %s\n", args.out_place.c_str());
    }
    if (!args.svg.empty()) {
      write_placement_svg_file(*pl, cfg.delay, args.svg);
      std::printf("wrote %s\n", args.svg.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replicate_tool: error writing outputs: %s\n",
                 e.what());
    return 1;
  }

  // Memory trajectory: process peak RSS plus the scratch-arena high-water
  // marks (DESIGN.md §9). Diagnostic only — values vary across machines.
  const ArenaCounters& ac = arena_counters();
  std::printf(
      "memory: peak rss %.1f MiB | arenas %.1f MiB "
      "(spt %zu, monotone %zu, embed %zu, sim %zu, bbox %zu bytes; "
      "%llu reuses, %llu growths)\n",
      static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0),
      static_cast<double>(ac.total_bytes()) / (1024.0 * 1024.0),
      static_cast<std::size_t>(ac.spt_scratch_bytes.load()),
      static_cast<std::size_t>(ac.monotone_scratch_bytes.load()),
      static_cast<std::size_t>(ac.embed_scratch_bytes.load()),
      static_cast<std::size_t>(ac.sim_buffer_bytes.load()),
      static_cast<std::size_t>(ac.annealer_bbox_bytes.load()),
      static_cast<unsigned long long>(ac.scratch_reuses.load()),
      static_cast<unsigned long long>(ac.scratch_growths.load()));
  return 0;
}

}  // namespace
