#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dss::sim {

namespace {
u32 log2_exact(u64 v) {
  assert(v != 0 && (v & (v - 1)) == 0 && "cache geometry must be a power of two");
  return static_cast<u32>(std::countr_zero(v));
}
}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : cfg_(cfg),
      line_shift_(log2_exact(cfg.line_bytes)),
      num_sets_(cfg.num_sets()),
      set_bits_(log2_exact(num_sets_)),
      ways_(static_cast<std::size_t>(num_sets_) * cfg.assoc) {
  assert(num_sets_ >= 1);
  assert(cfg.assoc >= 1);
  if (cfg_.assoc == 2) {
    repl_ = Repl::kTwoWay;
    order_.assign(num_sets_, 1);  // way 1 is MRU <=> way 0 is the victim
  } else if (cfg_.assoc > 2) {
    repl_ = Repl::kStamp;
    stamps_.assign(ways_.size(), 0);
  }
}

u64* SetAssocCache::find(u64 line_addr) {
  const u32 set = set_of(line_addr);
  const u64 want = tag_of(line_addr) << 2;
  u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
  for (u32 w = 0; w < cfg_.assoc; ++w) {
    const u64 v = base[w];
    if ((v & 3) != 0 && (v & ~u64{3}) == want) return &base[w];
  }
  return nullptr;
}

const u64* SetAssocCache::find(u64 line_addr) const {
  return const_cast<SetAssocCache*>(this)->find(line_addr);
}

std::optional<LineState> SetAssocCache::lookup_past_mru(u32 set, u64 want) {
  const u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
  auto hit = [&](u32 w) { return (base[w] ^ want) - 1 < 3; };
  auto state = [&](u32 w) { return static_cast<LineState>(base[w] ^ want); };
  switch (repl_) {
    case Repl::kNone:
      return std::nullopt;  // the inline probe covered the only way
    case Repl::kTwoWay: {
      const auto w = static_cast<u32>(order_[set]) ^ 1;
      if (!hit(w)) return std::nullopt;
      order_[set] = w;
      return state(w);
    }
    case Repl::kStamp:
      for (u32 w = 0; w < cfg_.assoc; ++w) {
        if (hit(w)) {
          touch(set, w);
          return state(w);
        }
      }
      return std::nullopt;
  }
  return std::nullopt;  // unreachable
}

u32 SetAssocCache::lru_way_stamp(u32 set) const {
  const u64* base = &stamps_[static_cast<std::size_t>(set) * cfg_.assoc];
  u32 victim = 0;
  for (u32 w = 1; w < cfg_.assoc; ++w) {
    if (base[w] < base[victim]) victim = w;
  }
  return victim;
}

std::optional<LineState> SetAssocCache::probe(u64 line_addr) const {
  const u64* v = find(line_addr);
  if (v == nullptr) return std::nullopt;
  return static_cast<LineState>(*v & 3);
}

void SetAssocCache::set_state(u64 line_addr, LineState s) {
  u64* v = find(line_addr);
  assert(v != nullptr && "set_state on non-resident line");
  assert(s != LineState::I && "use invalidate() to drop a line");
  *v = (*v & ~u64{3}) | static_cast<u64>(s);
}

u32 SetAssocCache::insert_way(u32 set) const {
  const u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
  for (u32 w = 0; w < cfg_.assoc; ++w) {
    if ((base[w] & 3) == 0) return w;
  }
  return lru_way(set);  // set full: evict true LRU
}

std::optional<u64> SetAssocCache::victim_of(u64 line_addr) const {
  const u32 set = set_of(line_addr);
  const u64 v = ways_[static_cast<std::size_t>(set) * cfg_.assoc +
                      insert_way(set)];
  if ((v & 3) == 0) return std::nullopt;
  return ((v >> 2) << set_bits_) | set;
}

std::optional<Eviction> SetAssocCache::insert(u64 line_addr, LineState s) {
  assert(s != LineState::I);
  assert(find(line_addr) == nullptr && "insert of already-resident line");
  const u32 set = set_of(line_addr);
  u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
  const u32 slot = insert_way(set);
  const u64 victim = base[slot];
  std::optional<Eviction> evicted;
  if ((victim & 3) != 0) {
    // Reconstruct the victim's line address from its tag and this set index.
    const u64 victim_line = ((victim >> 2) << set_bits_) | set;
    evicted = Eviction{victim_line, static_cast<LineState>(victim & 3)};
    --resident_;
  }
  base[slot] = pack(tag_of(line_addr), s);
  touch(set, slot);
  ++resident_;
  return evicted;
}

std::optional<LineState> SetAssocCache::invalidate(u64 line_addr) {
  u64* v = find(line_addr);
  if (v == nullptr) return std::nullopt;
  const auto prior = static_cast<LineState>(*v & 3);
  *v = 0;
  --resident_;
  return prior;
}

void SetAssocCache::append_canonical(std::vector<u64>& out) const {
  std::vector<u32> order(cfg_.assoc);
  for (u32 set = 0; set < num_sets_; ++set) {
    const u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
    // Way indices in MRU -> LRU order for this set, per replacement scheme.
    switch (repl_) {
      case Repl::kNone:
        order[0] = 0;
        break;
      case Repl::kTwoWay:
        order[0] = static_cast<u32>(order_[set]);
        order[1] = order[0] ^ 1;
        break;
      case Repl::kStamp: {
        const u64* st = &stamps_[static_cast<std::size_t>(set) * cfg_.assoc];
        for (u32 w = 0; w < cfg_.assoc; ++w) order[w] = w;
        std::sort(order.begin(), order.end(),
                  [st](u32 a, u32 b) { return st[a] > st[b]; });
        break;
      }
    }
    u64 count = 0;
    for (u32 w = 0; w < cfg_.assoc; ++w) {
      if ((base[order[w]] & 3) != 0) ++count;
    }
    out.push_back(count);
    for (u32 w = 0; w < cfg_.assoc; ++w) {
      const u64 way = base[order[w]];
      if ((way & 3) == 0) continue;
      const u64 line = ((way >> 2) << set_bits_) | set;
      out.push_back((line << 2) | ((way & 3) - 1));
    }
  }
}

void SetAssocCache::for_each_line(
    const std::function<void(u64, LineState)>& fn) const {
  for (u32 set = 0; set < num_sets_; ++set) {
    const u64* base = &ways_[static_cast<std::size_t>(set) * cfg_.assoc];
    for (u32 w = 0; w < cfg_.assoc; ++w) {
      const u64 v = base[w];
      if ((v & 3) != 0) {
        fn(((v >> 2) << set_bits_) | set, static_cast<LineState>(v & 3));
      }
    }
  }
}

}  // namespace dss::sim
