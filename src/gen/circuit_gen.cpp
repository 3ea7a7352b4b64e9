#include "gen/circuit_gen.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace repro {
namespace {

/// Random non-constant truth table over k variables.
std::uint64_t random_function(Rng& rng, int k) {
  const std::uint64_t mask =
      (k >= 6) ? ~0ULL : ((1ULL << (1ULL << k)) - 1ULL);
  std::uint64_t f = 0;
  do {
    f = rng.next_u64() & mask;
  } while (f == 0 || f == mask);
  return f;
}

/// Order-statistics multiset over {0..n-1}, all initially present, backed by
/// a Fenwick tree. Replaces the PO-selection vector whose erase() made
/// output hookup quadratic in circuit size: select(k) returns the (k+1)-th
/// smallest remaining element — exactly what indexing the sorted, erase-
/// compacted vector returned — so the generated netlist is byte-identical.
class OrderStatSet {
 public:
  explicit OrderStatSet(std::size_t n) : n_(n), tree_(n + 1, 0), size_(n) {
    for (std::size_t i = 1; i <= n_; ++i) {
      tree_[i] += 1;
      std::size_t j = i + (i & (~i + 1));
      if (j <= n_) tree_[j] += tree_[i];
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// (k+1)-th smallest remaining element (0-based rank), removed from the set.
  std::size_t take(std::size_t k) {
    assert(k < size_);
    std::size_t pos = 0;
    std::size_t rank = k + 1;  // 1-based
    std::size_t mask = std::bit_floor(n_);
    for (; mask != 0; mask >>= 1) {
      std::size_t next = pos + mask;
      if (next <= n_ && tree_[next] < rank) {
        pos = next;
        rank -= tree_[next];
      }
    }
    // pos is now the count of elements strictly before the answer; the
    // element itself is pos (0-based) since the universe is {0..n-1}.
    for (std::size_t i = pos + 1; i <= n_; i += i & (~i + 1)) tree_[i] -= 1;
    --size_;
    return pos;
  }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> tree_;
  std::size_t size_;
};

}  // namespace

Netlist generate_circuit(const CircuitSpec& spec) {
  Rng rng(spec.seed);
  Netlist nl;
  const std::size_t est_cells = static_cast<std::size_t>(spec.num_inputs) +
                                static_cast<std::size_t>(spec.num_logic) +
                                static_cast<std::size_t>(spec.num_outputs);
  nl.reserve(est_cells, est_cells);

  const int num_clusters =
      std::max(1, (spec.num_logic + spec.cluster_size - 1) / spec.cluster_size);

  // Signals in creation order, with (layer, cluster) membership (layer 0 =
  // primary inputs and registered outputs; logic layers 1..depth).
  std::vector<NetId> signals;
  std::vector<int> fanout_count;
  // pools[layer][cluster] -> signal indices; pools[layer][num_clusters] is
  // the union pool of the layer.
  std::vector<std::vector<std::vector<std::size_t>>> pools(
      spec.depth + 1,
      std::vector<std::vector<std::size_t>>(num_clusters + 1));

  signals.reserve(est_cells);
  fanout_count.reserve(est_cells);
  auto push_signal = [&](NetId n, int layer, int cluster) {
    pools[layer][cluster].push_back(signals.size());
    pools[layer][num_clusters].push_back(signals.size());
    signals.push_back(n);
    fanout_count.push_back(0);
  };

  for (int i = 0; i < spec.num_inputs; ++i)
    push_signal(nl.cell(nl.add_input_pad("pi" + std::to_string(i))).output, 0,
                i % num_clusters);

  // Choose an input for a cell in (layer L, cluster C): mostly the previous
  // layer, a bit from the two before it, occasionally anywhere earlier
  // (long-range reconvergence); within the chosen layer, prefer the cell's
  // own cluster (Rent-style locality). Unused signals are preferred so
  // outputs do not dangle.
  auto choose_input = [&](int cell_layer, int cluster) -> std::size_t {
    int src_layer;
    bool long_range = rng.next_bool(spec.long_range_prob);
    if (long_range) {
      src_layer = static_cast<int>(rng.next_below(cell_layer));
    } else {
      double u = rng.next_double();
      src_layer = cell_layer - 1 - (u < 0.7 ? 0 : (u < 0.9 ? 1 : 2));
      src_layer = std::max(0, src_layer);
    }
    const bool intra = !long_range && rng.next_bool(spec.intra_cluster_prob);
    const std::vector<std::size_t>* pool = nullptr;
    for (int l = src_layer; l >= 0 && (!pool || pool->empty()); --l)
      pool = intra && !pools[l][cluster].empty() ? &pools[l][cluster]
                                                 : &pools[l][num_clusters];
    // Two draws; prefer a not-yet-used signal.
    std::size_t a = (*pool)[rng.next_below(pool->size())];
    if (fanout_count[a] == 0) return a;
    std::size_t b = (*pool)[rng.next_below(pool->size())];
    return fanout_count[b] == 0 ? b : a;
  };

  std::vector<CellId> luts;
  luts.reserve(static_cast<std::size_t>(spec.num_logic));
  for (int i = 0; i < spec.num_logic; ++i) {
    // Clusters are contiguous runs of cells; each spreads over all layers.
    const int cluster = std::min(i / spec.cluster_size, num_clusters - 1);
    const int within = i % spec.cluster_size;
    const int cluster_span = std::min(spec.cluster_size, spec.num_logic);
    const int cell_layer = 1 + (within * spec.depth) / std::max(1, cluster_span);
    const int k = std::min(spec.lut_inputs, 2 + static_cast<int>(rng.next_below(
                                                    spec.lut_inputs - 1)));
    std::vector<NetId> inputs;
    std::vector<std::size_t> used;
    for (int p = 0; p < k; ++p) {
      std::size_t idx = choose_input(cell_layer, cluster);
      // Avoid duplicate input nets on one LUT when possible.
      for (int retry = 0;
           retry < 4 && std::find(used.begin(), used.end(), idx) != used.end();
           ++retry)
        idx = choose_input(cell_layer, cluster);
      used.push_back(idx);
      inputs.push_back(signals[idx]);
      ++fanout_count[idx];
    }
    const bool registered = rng.next_bool(spec.registered_fraction);
    CellId c = nl.add_logic("n" + std::to_string(i), std::move(inputs),
                            random_function(rng, k), registered);
    luts.push_back(c);
    // A registered output starts new paths: structurally it behaves like a
    // fresh source, so file it under layer 0 for depth accounting.
    push_signal(nl.cell(c).output, registered ? 0 : cell_layer, cluster);
  }

  // Sequential feedback: registered BLEs may take inputs from later signals
  // (no combinational cycle can form: the D pin is a timing end point).
  if (spec.feedback_prob > 0) {
    for (CellId c : luts) {
      const Cell& cell = nl.cell(c);
      if (!cell.registered) continue;
      for (int p = 0; p < static_cast<int>(cell.inputs.size()); ++p) {
        if (!rng.next_bool(spec.feedback_prob)) continue;
        std::size_t idx = rng.next_below(signals.size());
        ++fanout_count[idx];
        nl.reassign_input(c, p, signals[idx]);
      }
    }
  }

  // Primary outputs: prefer deep (late) signals. The pool starts as the full
  // sorted signal-index set; taking the pick-th smallest remaining element
  // from the Fenwick set is exactly what indexing (and erasing from) the
  // sorted vector used to do, without the O(n) erase per output.
  OrderStatSet po_pool(signals.size());
  for (int i = 0; i < spec.num_outputs; ++i) {
    CellId pad = nl.add_output_pad("po" + std::to_string(i));
    std::size_t idx;
    if (!po_pool.empty()) {
      // Quadratic bias toward late signals.
      double u = rng.next_double();
      std::size_t pick = static_cast<std::size_t>(
          std::sqrt(u) * static_cast<double>(po_pool.size() - 1));
      idx = po_pool.take(pick);
    } else {
      idx = rng.next_below(signals.size());
    }
    ++fanout_count[idx];
    nl.connect(signals[idx], pad, 0);
  }

  // Attach any dangling LUT outputs as extra inputs of later cells with
  // spare pins (keeps every block observable, mirroring mapped netlists).
  for (std::size_t i = static_cast<std::size_t>(spec.num_inputs); i < signals.size();
       ++i) {
    if (fanout_count[i] > 0) continue;
    bool attached = false;
    for (std::size_t attempt = 0; attempt < 64 && !attached; ++attempt) {
      CellId c = luts[rng.next_below(luts.size())];
      const Cell& cell = nl.cell(c);
      if (cell.output == signals[i]) continue;
      if (static_cast<int>(cell.inputs.size()) >= spec.lut_inputs) continue;
      // Only attach where no combinational cycle can form: registered cells
      // (the D pin is a timing end point) or cells created after the signal.
      const bool later = cell.output.value() > signals[i].value();
      if (!cell.registered && !later) continue;
      attached = true;
      nl.grow_input(c, signals[i],
                    random_function(rng, static_cast<int>(cell.inputs.size()) + 1));
      ++fanout_count[i];
    }
    // If no host was found the block stays dangling-but-alive; rare and
    // harmless (it is excluded from timing end points).
  }

  assert(nl.validate().empty());
  return nl;
}

const std::vector<McncCircuit>& mcnc_suite() {
  // Block statistics from the paper's Table I.
  static const std::vector<McncCircuit> kSuite = {
      {"ex5p", 1064, 71, false, 33},     {"tseng", 1047, 174, true, 33},
      {"apex4", 1262, 28, false, 36},    {"misex3", 1397, 28, false, 38},
      {"alu4", 1522, 22, false, 40},     {"diffeq", 1497, 103, true, 39},
      {"dsip", 1370, 426, true, 54},     {"seq", 1750, 76, false, 42},
      {"apex2", 1878, 41, false, 44},    {"s298", 1931, 10, true, 44},
      {"des", 1591, 501, false, 63},     {"bigkey", 1707, 426, true, 54},
      {"frisc", 3556, 136, true, 60},    {"spla", 3690, 62, false, 61},
      {"elliptic", 3604, 245, true, 61}, {"ex1010", 4598, 20, false, 68},
      {"pdc", 4575, 56, false, 68},      {"s38417", 6406, 135, true, 81},
      {"s38584.1", 6447, 342, true, 81}, {"clma", 8383, 144, true, 92},
  };
  return kSuite;
}

const McncCircuit* find_mcnc_circuit(std::string_view name) {
  for (const McncCircuit& m : mcnc_suite())
    if (name == m.name) return &m;
  return nullptr;
}

CircuitSpec spec_for(const McncCircuit& c, double scale, std::uint64_t seed) {
  CircuitSpec spec;
  spec.name = c.name;
  spec.num_logic = std::max(16, static_cast<int>(std::lround(c.luts * scale)));
  // I/O counts scale with the PERIMETER (sqrt of the area scale), so the
  // suite keeps Table I's density profile: dsip/bigkey/des stay I/O-limited
  // with low design density while the rest stay near-full.
  const int ios =
      std::max(4, static_cast<int>(std::lround(c.ios * std::sqrt(scale))));
  spec.num_inputs = std::max(2, ios / 2);
  spec.num_outputs = std::max(2, ios - spec.num_inputs);
  spec.registered_fraction = c.sequential ? 0.35 : 0.0;
  // Mapped K=4 MCNC circuits are shallow and wide; depth grows only weakly
  // with size (alu4 ~6-7 levels, clma ~11-13).
  spec.depth = std::clamp(
      static_cast<int>(std::lround(4.0 + 1.8 * std::log10(spec.num_logic))), 5, 14);
  spec.seed = seed;
  return spec;
}

}  // namespace repro
