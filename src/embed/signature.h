#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "util/ids.h"

namespace repro {

/// Fixed-capacity, descending-ordered vector of path arrival times.
///
/// This is the delay part of a candidate-solution signature:
///   * n = 1 is the paper's 2-D (cost, max-arrival) signature (Section II-C);
///   * n = N is Lex-N (Section VI-A): the N largest arrival times of
///     *distinct* paths in the subtree, compared lexicographically;
///   * the Lex-mc variant stores [t, tc].
/// The join rules of Section VI-A ("t = max..., t2 = max of the rest...")
/// are exactly "merge the children's delay multisets and keep the N largest",
/// which is what merged_with implements.
struct DelayVec {
  static constexpr int kCapacity = 6;

  double v[kCapacity];
  std::int8_t n = 0;

  static DelayVec single(double t) {
    DelayVec d;
    d.n = 1;
    d.v[0] = t;
    return d;
  }
  static DelayVec pair(double t, double t2) {
    DelayVec d;
    d.n = 2;
    d.v[0] = t;
    d.v[1] = t2;
    return d;
  }

  double primary() const { return n ? v[0] : -std::numeric_limits<double>::infinity(); }

  /// Adds `delta` to every tracked path (wire/gate delay on the common stem).
  void shift(double delta) {
    for (int i = 0; i < n; ++i) v[i] += delta;
  }

  /// Merges two descending multisets keeping the `keep` largest entries.
  DelayVec merged_with(const DelayVec& o, int keep) const {
    assert(keep <= kCapacity);
    DelayVec out;
    int i = 0;
    int j = 0;
    while (out.n < keep && (i < n || j < o.n)) {
      if (j >= o.n || (i < n && v[i] >= o.v[j]))
        out.v[out.n++] = v[i++];
      else
        out.v[out.n++] = o.v[j++];
    }
    return out;
  }

  /// Lexicographic comparison; missing entries count as -infinity (a
  /// solution tracking fewer paths is better, all else equal). Compares the
  /// common prefix, then the lengths, which equals the -infinity-padded rule
  /// as long as every entry is finite.
  ///
  /// Preconditions: every entry is finite (no -inf, +inf or NaN). Stored
  /// labels also have n >= 1 (leaves start with one or two arrivals and
  /// joins merge n >= 1 children), which the embedder's wavefront relies on
  /// when it orders its queue by v[0] before comparing whole vectors.
  int lex_compare(const DelayVec& o) const {
    const int m = std::min<int>(n, o.n);
    for (int i = 0; i < m; ++i) {
      if (v[i] < o.v[i]) return -1;
      if (v[i] > o.v[i]) return 1;
    }
    return (n > o.n) - (n < o.n);
  }

  bool lex_less_equal(const DelayVec& o) const { return lex_compare(o) <= 0; }
  bool lex_equal(const DelayVec& o) const { return lex_compare(o) == 0; }
};

/// Provenance of a candidate solution, for top-down reconstruction
/// (Section II: "the actual embedding is reconstructed ... by retracing the
/// choices of subtree configurations").
struct Provenance {
  enum class Kind : std::uint8_t { kInitial, kAugment, kJoin };
  /// kAugment: the vertex the label was propagated from, and the index of
  /// the predecessor label in A[i][from].
  EmbedVertexId from;
  std::uint32_t pred_label = 0;
  /// kJoin: per-child label index in A[child][j] (children in tree order).
  /// Stored inline for <= 2 children; otherwise spill_index is the offset of
  /// the first of them in the embedder's flat spill pool.
  std::uint32_t child_labels_inline[2] = {0, 0};
  std::int32_t spill_index = -1;
  Kind kind = Kind::kInitial;
};

/// The dominance key of a candidate embedding of a subtree with its root
/// driven from a vertex: the hot half of a label, which the dominance scan,
/// the wavefront and the join read. Its LabelCold sits at the same index.
struct LabelKey {
  /// First so that, on the Itanium ABI, the small fields below fill the
  /// tail padding of DelayVec and a key takes 64 bytes instead of 72.
  [[no_unique_address]] DelayVec delay;
  /// Branching bit (Section II-A, approach 1): 1 for initial/join solutions
  /// (the subtree root is AT the vertex), 0 for augmented ones.
  std::uint8_t branching = 0;
  /// Set when a later insertion dominated this label. Dominated labels stay
  /// in place (indices are provenance-stable) but are skipped for expansion
  /// and joins.
  std::uint8_t dead = 0;
  /// Wire length since the last branching point; used when a nonlinear
  /// stem-delay function is configured: the quadratic stems of Fig. 7, or
  /// the Elmore variant, whose upstream resistance R(u) = r_out + r * stem_len
  /// is a function of it (docs/ALGORITHMS.md §2).
  std::int32_t stem_len = 0;
  double cost = 0;
};

/// The cold half of a label: read when a label is expanded, joined or
/// extracted, never by the dominance scan.
struct LabelCold {
  /// Lex-mc only: number of critical inputs in the subtree (w); excluded
  /// from the dominance test per Section VI-A.
  std::int32_t mc_weight = 0;
  Provenance prov;
};

}  // namespace repro
