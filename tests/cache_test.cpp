// Unit + property tests for the set-associative cache model.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "util/rng.hpp"

namespace dss::sim {
namespace {

CacheConfig small_cfg(u64 size = 1024, u32 line = 32, u32 assoc = 2) {
  return CacheConfig{size, line, assoc, 1};
}

TEST(Cache, Geometry) {
  SetAssocCache c(small_cfg());
  EXPECT_EQ(c.config().num_sets(), 16u);
  EXPECT_EQ(c.line_bytes(), 32u);
  EXPECT_EQ(c.line_of(0), 0u);
  EXPECT_EQ(c.line_of(31), 0u);
  EXPECT_EQ(c.line_of(32), 1u);
}

TEST(Cache, MissThenHit) {
  SetAssocCache c(small_cfg());
  EXPECT_FALSE(c.lookup(5).has_value());
  EXPECT_FALSE(c.insert(5, LineState::E).has_value());
  auto st = c.lookup(5);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(*st, LineState::E);
  EXPECT_EQ(c.resident_lines(), 1u);
}

TEST(Cache, SetStateAndInvalidate) {
  SetAssocCache c(small_cfg());
  (void)c.insert(7, LineState::S);
  c.set_state(7, LineState::M);
  EXPECT_EQ(*c.probe(7), LineState::M);
  EXPECT_EQ(*c.invalidate(7), LineState::M);
  EXPECT_FALSE(c.probe(7).has_value());
  EXPECT_FALSE(c.invalidate(7).has_value());
  EXPECT_EQ(c.resident_lines(), 0u);
}

TEST(Cache, EvictsLruWithinSet) {
  // 16 sets, 2-way: lines 0, 16, 32 all map to set 0.
  SetAssocCache c(small_cfg());
  (void)c.insert(0, LineState::E);
  (void)c.insert(16, LineState::E);
  (void)c.lookup(0);  // 0 now MRU, 16 LRU
  auto ev = c.insert(32, LineState::E);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 16u);
  EXPECT_EQ(ev->state, LineState::E);
  EXPECT_TRUE(c.probe(0).has_value());
  EXPECT_TRUE(c.probe(32).has_value());
}

TEST(Cache, DirectMappedConflicts) {
  SetAssocCache c(small_cfg(1024, 32, 1));  // 32 sets, direct-mapped
  (void)c.insert(3, LineState::M);
  auto ev = c.insert(3 + 32, LineState::E);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 3u);
  EXPECT_EQ(ev->state, LineState::M);
}

TEST(Cache, ForEachLineVisitsAll) {
  SetAssocCache c(small_cfg());
  for (u64 l = 0; l < 10; ++l) (void)c.insert(l * 3 + 1000, LineState::S);
  std::map<u64, LineState> seen;
  c.for_each_line([&](u64 l, LineState s) { seen[l] = s; });
  EXPECT_EQ(seen.size(), 10u);
  for (const auto& [l, s] : seen) EXPECT_EQ(s, LineState::S);
}

/// Reference model: per-set LRU list.
class RefCache {
 public:
  RefCache(u32 sets, u32 assoc) : sets_(sets), assoc_(assoc), lru_(sets) {}

  std::optional<u64> access(u64 line) {  // returns eviction
    auto& set = lru_[line % sets_];
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (*it == line) {
        set.erase(it);
        set.push_front(line);
        return std::nullopt;
      }
    }
    set.push_front(line);
    if (set.size() > assoc_) {
      const u64 victim = set.back();
      set.pop_back();
      return victim;
    }
    return std::nullopt;
  }

 private:
  u32 sets_, assoc_;
  std::vector<std::list<u64>> lru_;
};

struct GeomParam {
  u64 size;
  u32 line;
  u32 assoc;
};

class CacheLruProperty : public ::testing::TestWithParam<GeomParam> {};

TEST_P(CacheLruProperty, MatchesReferenceModelUnderRandomAccesses) {
  const auto gp = GetParam();
  SetAssocCache c(CacheConfig{gp.size, gp.line, gp.assoc, 1});
  RefCache ref(c.config().num_sets(), gp.assoc);
  Rng rng(gp.size + gp.line + gp.assoc);
  for (int i = 0; i < 20'000; ++i) {
    const u64 line = static_cast<u64>(rng.uniform(0, 4096));
    const bool hit = c.lookup(line).has_value();
    const auto ref_ev = ref.access(line);
    if (hit) {
      EXPECT_FALSE(ref_ev.has_value()) << "model hit but reference evicted";
      continue;
    }
    const auto ev = c.insert(line, LineState::S);
    ASSERT_EQ(ev.has_value(), ref_ev.has_value()) << "eviction disagreement";
    if (ev) {
      EXPECT_EQ(ev->line_addr, *ref_ev);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheLruProperty,
    ::testing::Values(GeomParam{1024, 32, 1}, GeomParam{1024, 32, 2},
                      GeomParam{2048, 32, 4}, GeomParam{4096, 128, 2},
                      GeomParam{8192, 64, 8}, GeomParam{512, 32, 2}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.size) + "l" +
             std::to_string(info.param.line) + "a" +
             std::to_string(info.param.assoc);
    });

/// List-based true-LRU reference with MESI states: per set, resident
/// (line, state) pairs in MRU -> LRU order.
class RefLru {
 public:
  RefLru(u32 sets, u32 assoc) : sets_(sets), assoc_(assoc), lru_(sets) {}

  std::optional<LineState> lookup(u64 line) {
    auto& set = lru_[line % sets_];
    const auto it = find(set, line);
    if (it == set.end()) return std::nullopt;
    set.splice(set.begin(), set, it);
    return it->second;
  }
  std::optional<Eviction> insert(u64 line, LineState s) {
    auto& set = lru_[line % sets_];
    std::optional<Eviction> ev;
    if (set.size() == assoc_) {
      ev = Eviction{set.back().first, set.back().second};
      set.pop_back();
    }
    set.emplace_front(line, s);
    return ev;
  }
  std::optional<LineState> invalidate(u64 line) {
    auto& set = lru_[line % sets_];
    const auto it = find(set, line);
    if (it == set.end()) return std::nullopt;
    const LineState s = it->second;
    set.erase(it);
    return s;
  }
  /// SetAssocCache::append_canonical's encoding.
  [[nodiscard]] std::vector<u64> canonical() const {
    std::vector<u64> out;
    for (const auto& set : lru_) {
      out.push_back(set.size());
      for (const auto& [line, s] : set) {
        out.push_back((line << 2) | (static_cast<u64>(s) - 1));
      }
    }
    return out;
  }

 private:
  using Set = std::list<std::pair<u64, LineState>>;
  static Set::iterator find(Set& set, u64 line) {
    return std::find_if(set.begin(), set.end(),
                        [line](const auto& e) { return e.first == line; });
  }
  u32 sets_, assoc_;
  std::vector<Set> lru_;
};

TEST(Cache, RandomOpsMatchListLruAcrossReplacementSchemes) {
  // Assoc 1 (no recency state) and 2 (MRU way) are the stock L1/L2
  // geometries, each with its own inline probe; every assoc above 2 takes
  // the timestamp scheme. Lines span three times the capacity so sets
  // overflow; invalidations leave holes that later inserts refill.
  constexpr LineState kStates[] = {LineState::S, LineState::E, LineState::M};
  for (u32 assoc : {1u, 2u, 4u, 7u, 8u, 16u, 32u}) {
    SCOPED_TRACE(assoc);
    constexpr u32 kSets = 4;
    SetAssocCache c(CacheConfig{u64{kSets} * 32 * assoc, 32, assoc, 1});
    ASSERT_EQ(c.config().num_sets(), kSets);
    RefLru ref(kSets, assoc);
    Rng rng(assoc);
    const i64 span = 3 * kSets * assoc;
    for (int i = 0; i < 30'000; ++i) {
      const u64 line = static_cast<u64>(rng.uniform(0, span - 1));
      if (rng.chance(0.15)) {
        ASSERT_EQ(c.invalidate(line), ref.invalidate(line)) << "op " << i;
        continue;
      }
      const auto got = c.lookup(line);
      ASSERT_EQ(got, ref.lookup(line)) << "op " << i;
      if (got) continue;
      const LineState s = kStates[rng.uniform(0, 2)];
      const auto ev = c.insert(line, s);
      const auto ref_ev = ref.insert(line, s);
      ASSERT_EQ(ev.has_value(), ref_ev.has_value()) << "op " << i;
      if (ev) {
        ASSERT_EQ(ev->line_addr, ref_ev->line_addr) << "op " << i;
        ASSERT_EQ(ev->state, ref_ev->state) << "op " << i;
      }
      if (i % 97 == 0) {
        std::vector<u64> canon;
        c.append_canonical(canon);
        ASSERT_EQ(canon, ref.canonical()) << "op " << i;
      }
    }
    std::vector<u64> canon;
    c.append_canonical(canon);
    EXPECT_EQ(canon, ref.canonical());
  }
}

TEST(Cache, ResidentCountTracksInsertEvictInvalidate) {
  SetAssocCache c(small_cfg(512, 32, 2));  // 8 sets * 2 ways = 16 lines
  Rng rng(99);
  u64 expected = 0;
  for (int i = 0; i < 5'000; ++i) {
    const u64 line = static_cast<u64>(rng.uniform(0, 100));
    if (rng.chance(0.3)) {
      if (c.invalidate(line).has_value()) --expected;
    } else if (!c.lookup(line).has_value()) {
      const auto ev = c.insert(line, LineState::S);
      if (!ev) ++expected;
    }
    ASSERT_EQ(c.resident_lines(), expected);
    ASSERT_LE(c.resident_lines(), 16u);
  }
}

}  // namespace
}  // namespace dss::sim
