// Per-processor data TLB: fully associative, true LRU.
//
// Pages sit in recency order, slot 0 the most recently used; slots a cold
// TLB has not filled yet hold kNoPage. A probe tests slot 0 inline (the
// common case: successive references on one page) and otherwise makes one
// walk that shifts every slot it passes down by one: a hit at slot i stops
// there, so slots [0, i) move to [1, i] and the page lands in slot 0; a miss
// shifts the whole array, dropping the LRU page off the end. The walk that
// finds the page is the walk that promotes or refills it, so a refill never
// searches the set a second time. Hits and misses are those of any
// fully-associative true-LRU cache of `entries` pages (tlb_test pins this
// against SetAssocCache).
#pragma once

#include <cassert>
#include <vector>

#include "sim/addr.hpp"
#include "util/types.hpp"

namespace dss::sim {

class Tlb {
 public:
  explicit Tlb(u32 entries) : pages_(entries, kNoPage) {
    assert(entries >= 1);
  }

  /// Translate every page the reference [addr, addr + len) touches, in
  /// address order, each becoming the MRU page; returns how many of them
  /// missed (each one refilled).
  u32 translate(SimAddr addr, u32 len) {
    const u64 last = (addr + len - 1) / kPlacementPageBytes;
    u32 misses = 0;
    for (u64 page = addr / kPlacementPageBytes; page <= last; ++page) {
      misses += lookup(page) ? 0 : 1;
    }
    return misses;
  }

 private:
  /// Never a page number: a page is a byte address >> 14.
  static constexpr u64 kNoPage = ~u64{0};

  /// Translate `page`; true on a hit. Either way `page` becomes the MRU.
  bool lookup(u64 page) {
    if (pages_[0] == page) return true;
    u64 prev = pages_[0];
    pages_[0] = page;
    for (std::size_t i = 1; i < pages_.size(); ++i) {
      const u64 cur = pages_[i];
      pages_[i] = prev;
      if (cur == page) return true;
      prev = cur;
    }
    return false;
  }

  DSS_SHARD_PARTITIONED std::vector<u64> pages_;  ///< MRU first
};

}  // namespace dss::sim
