#include "sim/directory.hpp"

#include <bit>

namespace dss::sim {

u32 DirEntry::sharer_count() const { return static_cast<u32>(std::popcount(sharers)); }

void Directory::reserve(std::size_t expected_units) {
  entries_.reserve(expected_units);
}

DirEntry& Directory::entry(u64 unit_addr) {
  return entries_.get_or_insert(unit_addr);
}

const DirEntry* Directory::probe(u64 unit_addr) const {
  return entries_.find(unit_addr);
}

void Directory::erase_if_uncached(Slot& slot) {
  const DirEntry& e = slot.value;
  if (e.state == DirState::Uncached && !e.migratory && !e.has_dirty_reader) {
    entries_.erase(slot);
  }
}

void Directory::for_each(
    const std::function<void(u64, const DirEntry&)>& fn) const {
  entries_.for_each(fn);
}

}  // namespace dss::sim
