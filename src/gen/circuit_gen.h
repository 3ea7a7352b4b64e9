#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.h"

namespace repro {

/// Parameters of the synthetic circuit generator.
///
/// MCNC netlists are not shipped with this repository; the generator
/// produces K-LUT netlists with the *structural* properties the replication
/// engine is sensitive to — fanout distribution, reconvergence, logic depth,
/// sequential boundaries and I/O counts — parameterised per circuit from the
/// published Table I statistics (see mcnc_suite()). DESIGN.md documents this
/// substitution.
struct CircuitSpec {
  std::string name;
  int num_logic = 100;    ///< LUT blocks (BLEs)
  int num_inputs = 8;     ///< input pads
  int num_outputs = 8;    ///< output pads
  double registered_fraction = 0.0;  ///< fraction of BLEs with the FF used
  int lut_inputs = 4;     ///< K
  /// Combinational depth target: cells are generated in `depth` layers and
  /// draw inputs from earlier layers (mostly the previous one), matching the
  /// shallow, wide structure of technology-mapped logic. Reconvergence
  /// arises from fanout reuse plus the long-range picks below.
  int depth = 9;
  /// Probability that an input is drawn uniformly from ALL earlier layers
  /// instead of the immediately preceding ones (long-range reconvergence).
  double long_range_prob = 0.15;
  /// Rent-style locality: cells belong to clusters of ~cluster_size blocks
  /// and draw inputs from their own cluster with probability
  /// intra_cluster_prob. Technology-mapped netlists are strongly clustered;
  /// without this the generated circuits exhibit a flat criticality
  /// histogram (every cell near-critical after placement), which removes
  /// the sparse critical strands that timing-driven replication exploits
  /// (Beraudo & Lillis: "the number of cells that have near-critical paths
  /// flowing through them is relatively small").
  int cluster_size = 48;
  double intra_cluster_prob = 0.8;
  /// Probability that an input of a *registered* BLE is rewired to a later
  /// signal after construction (sequential feedback).
  double feedback_prob = 0.3;
  std::uint64_t seed = 1;
};

/// Generates a valid, connected netlist for the spec. Every LUT output is
/// used (dangling outputs are attached to spare input pins); all LUT
/// functions are random non-constant truth tables.
Netlist generate_circuit(const CircuitSpec& spec);

/// Per-circuit entry of the 20-circuit MCNC benchmark suite with the block
/// statistics of the paper's Table I.
struct McncCircuit {
  const char* name;
  int luts;
  int ios;
  bool sequential;
  int fpga_size;  ///< Table I's published array size (for reference)
};

/// The Table I suite, in the paper's order (ex5p .. clma).
const std::vector<McncCircuit>& mcnc_suite();

/// The suite entry called `name`, or nullptr if there is none.
const McncCircuit* find_mcnc_circuit(std::string_view name);

/// Builds the CircuitSpec for one suite entry scaled by `scale` (block counts
/// multiplied by scale; a scale of 1.0 reproduces Table I sizes).
CircuitSpec spec_for(const McncCircuit& c, double scale, std::uint64_t seed);

}  // namespace repro
