#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace repro {

/// Priority queue of the maze search: a binary min-heap on (f, node) over
/// 16-byte entries. push, pop and heapify make exactly the element moves of
/// libstdc++'s std::push_heap / std::pop_heap / std::make_heap under the same
/// order, so the heap layout after every operation — and with it the pop
/// order, even among equal keys — is the one those algorithms give. The pop
/// is bottom-up: the hole walks to a leaf along the smaller child, then the
/// last entry sifts up from there. Comparison and child select are
/// branch-free; their outcomes follow the key data, which a branch predictor
/// cannot learn.
class MazeQueue {
 public:
  struct Entry {
    double f;  ///< path cost + lookahead when pushed
    std::int32_t node;
    /// The node's push version when pushed. An entry is stale once the node
    /// has been pushed again; the wrap at 2^32 is harmless because no search
    /// pushes one node that often.
    std::uint32_t version;
  };
  static_assert(sizeof(Entry) == 16);

  bool empty() const { return heap_.empty(); }
  void clear() { heap_.clear(); }

  /// Appends without ordering; heapify() must follow before the next pop().
  void append(Entry x) { heap_.push_back(x); }

  void heapify() {
    const std::size_t len = heap_.size();
    if (len < 2) return;
    for (std::size_t parent = (len - 2) / 2;; --parent) {
      sift_down(parent, len, heap_[parent]);
      if (parent == 0) return;
    }
  }

  void push(Entry x) {
    heap_.push_back(x);
    sift_up(heap_.size() - 1, 0, x);
  }

  /// Removes and returns the least entry; the queue must not be empty.
  Entry pop() {
    const Entry top = heap_.front();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, heap_.size(), last);
    return top;
  }

 private:
  static bool less(const Entry& a, const Entry& b) {
    return (a.f < b.f) | ((a.f == b.f) & (a.node < b.node));
  }

  void sift_up(std::size_t hole, std::size_t top, Entry x) {
    Entry* h = heap_.data();
    std::size_t parent = (hole - 1) / 2;
    while (hole > top && less(x, h[parent])) {
      h[hole] = h[parent];
      hole = parent;
      parent = (hole - 1) / 2;
    }
    h[hole] = x;
  }

  /// Refills the hole at `hole` with `x` in a heap of `len` entries: walks
  /// the hole down to a leaf, always taking the smaller child (the right one
  /// on a tie), then sifts x up from there.
  void sift_down(std::size_t hole, std::size_t len, Entry x) {
    Entry* h = heap_.data();
    const std::size_t top = hole;
    std::size_t child = hole;
    while (child < (len - 1) / 2) {
      child = 2 * child + 2;
      child -= less(h[child - 1], h[child]);
      h[hole] = h[child];
      hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
      child = 2 * child + 1;
      h[hole] = h[child];
      hole = child;
    }
    sift_up(hole, top, x);
  }

  std::vector<Entry> heap_;
};

}  // namespace repro
