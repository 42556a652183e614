// Full-map directory state for the coherence protocol.
//
// Both machines keep memory-based directory state (the V-Class in its EMAC
// memory controllers, the Origin in per-node directory memory). The directory
// tracks, per coherence unit (the last-level cache line), whether the unit is
// uncached, shared by a set of processors, or owned exclusively by one — plus
// the migratory-sharing detection bits used by the V-Class protocol
// enhancement the paper discusses in Section 4.2.3.
#pragma once

#include <functional>

#include "sim/addr.hpp"
#include "util/flatmap.hpp"
#include "util/types.hpp"

namespace dss::sim {

enum class DirState : u8 { Uncached, Shared, Owned };

struct DirEntry {
  DirState state = DirState::Uncached;
  u64 sharers = 0;  ///< bitmask of processors with an S copy (state Shared)
  u32 owner = 0;    ///< processor with the E/M copy (state Owned)

  // Migratory-sharing detection (Cox & Fowler style): a unit is flagged
  // migratory when a processor that read it while dirty in another cache
  // subsequently writes it. Reads to migratory units hand over exclusive
  // ownership instead of degrading to Shared.
  bool migratory = false;
  bool has_dirty_reader = false;
  u32 last_dirty_reader = 0;

  [[nodiscard]] u32 sharer_count() const;
  [[nodiscard]] bool is_sharer(u32 p) const { return (sharers >> p) & 1; }
  void add_sharer(u32 p) { sharers |= (u64{1} << p); }
  void remove_sharer(u32 p) { sharers &= ~(u64{1} << p); }
};

class Directory {
 public:
  using Slot = util::FlatMap<DirEntry>::Slot;

  /// Pre-size the hash map for an expected number of simultaneously cached
  /// units (the sum of last-level capacities is an upper bound). Access
  /// storms otherwise trigger repeated rehashes of a multi-thousand-entry
  /// map in the simulator's innermost loop.
  void reserve(std::size_t expected_units);

  /// Entry for a unit, default-constructed (Uncached) if absent.
  [[nodiscard]] DirEntry& entry(u64 unit_addr);

  /// Probe without creating (nullptr if the unit was never cached).
  [[nodiscard]] const DirEntry* probe(u64 unit_addr) const;

  /// Slot of a unit in the directory (nullptr if absent), for a caller that
  /// updates an entry and then trims it with one probe. Invalidated by any
  /// insert or erase.
  [[nodiscard]] Slot* find_slot(u64 unit_addr) {
    return entries_.find_slot(unit_addr);
  }

  /// Drop the entry in `slot` if it returned to Uncached (keeps the map
  /// small).
  void erase_if_uncached(Slot& slot);

  void for_each(const std::function<void(u64, const DirEntry&)>& fn) const;

  /// Prefetch hint for `unit_addr`'s hash slot (advisory, no state change);
  /// the batched replay loop issues this a fixed lookahead ahead so the
  /// directory probe of a miss finds its slot already in cache.
  void prefetch(u64 unit_addr) const { entries_.prefetch(unit_addr); }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  DSS_SHARD_PARTITIONED util::FlatMap<DirEntry> entries_;
};

}  // namespace dss::sim
