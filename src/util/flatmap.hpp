// Open-addressed hash map from u64 keys to small mapped values.
//
// The simulator's innermost loops are dominated by two map structures: the
// coherence directory (one entry per cached unit) and the per-processor
// line-residency histories (one bitmap block per 64 lines ever touched).
// std::unordered_map pays a pointer chase per node plus allocator traffic on
// every insert/erase; this map stores key/value pairs inline in one flat
// power-of-two array with linear probing, so the hot probe is one mix, one
// mask, and a short contiguous scan.
//
// Deletion uses backward-shift (Robin-Hood style compaction without the
// distance metadata): no tombstones, so load factor — and therefore probe
// length — never degrades over a long run. References returned by find/get
// are invalidated by insertion (growth) and by erase (shifting), exactly
// like iterators of a flat vector; callers must not hold one across a
// mutating call. Key 0xFFFF'FFFF'FFFF'FFFF is reserved as the empty marker
// (never a valid line/unit address: it would imply a byte address above
// 2^66).
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace dss::util {

template <typename V>
class FlatMap {
 public:
  static constexpr u64 kEmptyKey = ~u64{0};

  /// One inline key/value pair. find_slot() hands one out so a caller can
  /// read, update and erase an entry with a single probe.
  struct Slot {
    u64 key = kEmptyKey;
    V value{};
  };

  FlatMap() { rehash(kMinCapacity); }

  void reserve(std::size_t expected) {
    std::size_t cap = kMinCapacity;
    // Size so `expected` entries stay under the max load factor (7/8).
    while (cap * 7 / 8 < expected) cap *= 2;
    if (cap > slots_.size()) rehash(cap);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Mapped value for `key`, default-constructed if absent (operator[]).
  [[nodiscard]] V& get_or_insert(u64 key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 8 > slots_.size() * 7) rehash(slots_.size() * 2);
    std::size_t i = index_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return s.value;
      if (s.key == kEmptyKey) {
        s.key = key;
        s.value = V{};
        ++size_;
        return s.value;
      }
      i = (i + 1) & mask_;
    }
  }

  /// Slot holding `key`, nullptr when absent.
  [[nodiscard]] Slot* find_slot(u64 key) {
    std::size_t i = index_of(key);
    while (true) {
      Slot& s = slots_[i];
      if (s.key == key) return &s;
      if (s.key == kEmptyKey) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  /// Pointer to the mapped value, nullptr when absent.
  [[nodiscard]] V* find(u64 key) {
    Slot* s = find_slot(key);
    return s != nullptr ? &s->value : nullptr;
  }
  [[nodiscard]] const V* find(u64 key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// Hint the hardware prefetcher at the slot `key` hashes to (the head of
  /// its probe chain). Advisory only — touches no map state; the batched
  /// replay loop issues this a fixed lookahead ahead of each probe.
  void prefetch(u64 key) const { DSS_PREFETCH(&slots_[index_of(key)]); }

  /// Remove `key` if present.
  void erase(u64 key) {
    if (Slot* s = find_slot(key)) erase(*s);
  }

  /// Remove the entry in `slot`, a find_slot() result no mutating call has
  /// invalidated (backward-shift deletion: the probe chain is compacted in
  /// place, no tombstones).
  void erase(Slot& slot) {
    const auto i = static_cast<std::size_t>(&slot - slots_.data());
    assert(i < slots_.size() && slot.key != kEmptyKey);
    --size_;
    // Shift the tail of the cluster back over the hole.
    std::size_t hole = i;
    std::size_t j = (i + 1) & mask_;
    while (slots_[j].key != kEmptyKey) {
      const std::size_t home = index_of(slots_[j].key);
      // Move j back iff its home position does not lie strictly after the
      // hole within the probe ring (i.e. the element may not pass its home).
      const bool movable = ((j - home) & mask_) >= ((j - hole) & mask_);
      if (movable) {
        slots_[hole] = slots_[j];
        hole = j;
      }
      j = (j + 1) & mask_;
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = V{};
  }

  /// Visit every (key, value) pair. Order is the physical slot order — it
  /// depends on insertion history, so callers needing a canonical order
  /// must sort (the model checker and exporters do).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t index_of(u64 key) const {
    // Fibonacci multiplicative mix: line/unit addresses are sequential in
    // the low bits, which raw masking would cluster into one probe chain.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) &
           mask_;
  }

  void rehash(std::size_t new_cap) {
    assert((new_cap & (new_cap - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_cap, Slot{});
    mask_ = new_cap - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = index_of(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
      ++size_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dss::util
