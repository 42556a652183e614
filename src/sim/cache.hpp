// Set-associative cache model with MESI line states and true-LRU replacement.
//
// The model is functional at tag granularity only: it tracks which line
// addresses are resident and in which coherence state, not the data (the
// DBMS keeps functional data in host memory).
//
// Way storage is a flat structure-of-arrays: each way is one packed u64,
// `(tag << 2) | state`, with 0 meaning invalid (LineState::I is 0, so the
// low two bits ARE the MESI state). A set's ways are contiguous, so the
// lookup hot path — the single most executed loop in the simulator — is a
// masked compare over one cache line of host memory with no pointer chasing
// and no per-way padding (the previous {u64, enum} pair padded to 16 bytes;
// packing halves the footprint and doubles effective tag bandwidth).
//
// Replacement bookkeeping is geometry-specialized (all three schemes
// implement *exactly* true LRU, so results are identical across them):
//   * assoc == 1 (the V-Class's direct-mapped 2 MB cache): no LRU state at
//     all — lookups touch nothing and the victim is the single way.
//   * assoc == 2 (the Origin's 2-way L1/L2): `order_[set]` holds the MRU
//     way index; a touch is one store and the LRU victim is `mru ^ 1`.
//   * assoc >= 3 (no stock geometry; the TLBs are sim::Tlb): classic
//     timestamp LRU, kept in a side array so the tag/state array stays
//     compact.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "sim/addr.hpp"
#include "sim/config.hpp"
#include "util/types.hpp"

namespace dss::sim {

enum class LineState : u8 { I = 0, S = 1, E = 2, M = 3 };

[[nodiscard]] constexpr bool is_exclusive(LineState s) {
  return s == LineState::E || s == LineState::M;
}

/// A line evicted to make room for an insertion.
struct Eviction {
  u64 line_addr;   ///< line address (byte address >> line shift)
  LineState state; ///< state it held when evicted (never I)
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Line address for a byte address.
  [[nodiscard]] u64 line_of(SimAddr a) const { return a >> line_shift_; }
  [[nodiscard]] u32 line_bytes() const { return cfg_.line_bytes; }
  [[nodiscard]] u32 line_shift() const { return line_shift_; }

  /// Look up a line; returns its state or nullopt on miss. Updates LRU.
  /// Defined inline: this is the innermost probe of every simulated
  /// reference. The inline part is the common case, a hit on the only way
  /// (direct-mapped) or on the MRU way (two-way). An MRU hit needs no
  /// recency update, since promoting the MRU way is a no-op. Everything
  /// else continues out of line in lookup_past_mru().
  // dss-lint: hot-path
  [[nodiscard]] std::optional<LineState> lookup(u64 line_addr) {
    const u32 set = set_of(line_addr);
    const u64 want = tag_of(line_addr) << 2;
    if (repl_ != Repl::kStamp) {
      const u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
      const u64 mru = repl_ == Repl::kNone ? 0 : order_[set];
      // Branchless hit test on the packed way word `(tag << 2) | state`:
      // x = word ^ want is the MESI state exactly when the tags match, and
      // state 0 (an invalid way) folds into the same unsigned `x - 1 >= 3`
      // rejection as a tag mismatch — one subtract-compare decides both.
      const u64 x = base[mru] ^ want;
      if (x - 1 < 3) return static_cast<LineState>(x);
      if (repl_ == Repl::kNone) return std::nullopt;
    }
    return lookup_past_mru(set, want);
  }

  /// Prefetch hint for the way words of `line_addr`'s set (advisory, no
  /// state change); the batch loops issue this a fixed lookahead ahead of
  /// the probe itself.
  void prefetch_set(u64 line_addr) const {
    DSS_PREFETCH(&ways_[static_cast<std::size_t>(set_of(line_addr)) *
                        cfg_.assoc]);
  }

  /// Line address insert(line_addr, ...) would evict now, or nullopt when
  /// its set has a free way. No state change (used to prefetch).
  [[nodiscard]] std::optional<u64> victim_of(u64 line_addr) const;

  /// Look up without touching LRU (for invariant checks / probes).
  [[nodiscard]] std::optional<LineState> probe(u64 line_addr) const;

  /// Change the state of a resident line (must be resident).
  void set_state(u64 line_addr, LineState s);

  /// Insert a line in the given state (must not be resident); returns the
  /// victim evicted to make room, if any.
  std::optional<Eviction> insert(u64 line_addr, LineState s);

  /// Remove a line if resident; returns the state it held.
  std::optional<LineState> invalidate(u64 line_addr);

  /// Visit every resident line.
  void for_each_line(const std::function<void(u64, LineState)>& fn) const;

  /// Append a canonical encoding of this cache's protocol-relevant state to
  /// `out`: per set, the resident count followed by (line_addr << 2 | state)
  /// for each resident way in MRU -> LRU order. Physical way indices are
  /// deliberately *not* encoded — insertion fills any free way and eviction
  /// picks the recency-order LRU, so two caches with the same resident lines
  /// in the same recency order are behaviourally identical. The model
  /// checker hashes this to canonicalize explored states.
  void append_canonical(std::vector<u64>& out) const;

  [[nodiscard]] u64 resident_lines() const { return resident_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  /// Replacement scheme, chosen once from the geometry (see file comment).
  enum class Repl : u8 { kNone, kTwoWay, kStamp };

  /// Packed way word: `(tag << 2) | state`; 0 == invalid.
  [[nodiscard]] static u64 pack(u64 tag, LineState s) {
    return (tag << 2) | static_cast<u64>(s);
  }

  [[nodiscard]] u32 set_of(u64 line_addr) const {
    return static_cast<u32>(line_addr & (num_sets_ - 1));
  }
  [[nodiscard]] u64 tag_of(u64 line_addr) const { return line_addr >> set_bits_; }
  /// Packed word of a resident line (nullptr on miss). The pointer is only
  /// valid until the next insert/invalidate on this cache.
  [[nodiscard]] u64* find(u64 line_addr);
  [[nodiscard]] const u64* find(u64 line_addr) const;

  /// Promote way `w` of `set` to most-recently-used. Defined inline: it sits
  /// on the lookup hit path, and for the common geometries (assoc 1 and 2)
  /// it must fold into the caller as a no-op or a single store.
  void touch(u32 set, u32 w) {
    switch (repl_) {
      case Repl::kNone:
        return;
      case Repl::kTwoWay:
        order_[set] = w;
        return;
      case Repl::kStamp:
        stamps_[static_cast<std::size_t>(set) * cfg_.assoc + w] = ++clock_;
        return;
    }
  }
  /// lookup() of tag word `want` in `set` once the MRU way (if the scheme
  /// has one) missed: the rest of the set, with the hit's recency update.
  [[nodiscard]] std::optional<LineState> lookup_past_mru(u32 set, u64 want);

  /// Way insert() fills in `set`: the first free way, else the LRU way.
  [[nodiscard]] u32 insert_way(u32 set) const;

  /// Way index of the least-recently-used way of a full set.
  [[nodiscard]] u32 lru_way(u32 set) const {
    switch (repl_) {
      case Repl::kNone:
        return 0;
      case Repl::kTwoWay:
        return static_cast<u32>(order_[set]) ^ 1;
      case Repl::kStamp:
        return lru_way_stamp(set);
    }
    return 0;  // unreachable
  }
  [[nodiscard]] u32 lru_way_stamp(u32 set) const;

  DSS_REPLAY_SAFE CacheConfig cfg_;
  DSS_REPLAY_SAFE u32 line_shift_;
  DSS_REPLAY_SAFE u32 num_sets_;
  DSS_REPLAY_SAFE u32 set_bits_;
  DSS_SHARD_PARTITIONED u64 resident_ = 0;
  /// packed way words, num_sets_ * assoc, set-major
  DSS_SHARD_PARTITIONED std::vector<u64> ways_;

  // --- replacement state (see header comment) ---
  DSS_REPLAY_SAFE Repl repl_ = Repl::kNone;
  /// two-way: MRU way
  DSS_SHARD_PARTITIONED std::vector<u64> order_;
  DSS_SHARD_PARTITIONED std::vector<u64> stamps_;  ///< stamp mode: per-way timestamp
  DSS_SHARD_PARTITIONED u64 clock_ = 0;  ///< stamp mode: monotonic source
};

}  // namespace dss::sim
