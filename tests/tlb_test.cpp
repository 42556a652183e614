// Data-TLB model tests.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "perf/counters.hpp"
#include "sim/cache.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "sim/tlb.hpp"
#include "util/rng.hpp"

namespace dss::sim {
namespace {

MachineConfig tlb_machine(u32 entries, u32 penalty) {
  MachineConfig c = vclass().scaled(64);
  c.num_processors = 2;
  c.tlb_entries = entries;
  c.tlb_miss_penalty = penalty;
  return c;
}

struct Rig {
  explicit Rig(const MachineConfig& cfg) : m(cfg) {
    m.attach_counters(0, &c0);
    m.attach_counters(1, &c1);
  }
  MachineSim m;
  perf::Counters c0, c1;
  u64 t = 0;
};

TEST(Tlb, FirstTouchMissesThenHits) {
  Rig r(tlb_machine(8, 50));
  (void)r.m.access(0, AccessKind::Read, kSharedBase, 8, ++r.t);
  EXPECT_EQ(r.c0.tlb_misses, 1u);
  (void)r.m.access(0, AccessKind::Read, kSharedBase + 64, 8, ++r.t);
  EXPECT_EQ(r.c0.tlb_misses, 1u) << "same page: no refill";
  (void)r.m.access(0, AccessKind::Read, kSharedBase + kPlacementPageBytes, 8, ++r.t);
  EXPECT_EQ(r.c0.tlb_misses, 2u);
}

TEST(Tlb, MissAddsExposedPenalty) {
  Rig with(tlb_machine(8, 50));
  Rig without(tlb_machine(0, 0));
  const u64 lat_with =
      with.m.access(0, AccessKind::Read, kSharedBase, 8, 1);
  const u64 lat_without =
      without.m.access(0, AccessKind::Read, kSharedBase, 8, 1);
  EXPECT_EQ(lat_with, lat_without + 50);
}

TEST(Tlb, CapacityEvictionLru) {
  Rig r(tlb_machine(4, 50));
  for (u64 pg = 0; pg < 4; ++pg) {
    (void)r.m.access(0, AccessKind::Read, kSharedBase + pg * kPlacementPageBytes, 8, ++r.t);
  }
  EXPECT_EQ(r.c0.tlb_misses, 4u);
  // Page 0 is LRU; touching a 5th page evicts it.
  (void)r.m.access(0, AccessKind::Read, kSharedBase + 4 * kPlacementPageBytes, 8, ++r.t);
  (void)r.m.access(0, AccessKind::Read, kSharedBase, 8, ++r.t);
  EXPECT_EQ(r.c0.tlb_misses, 6u) << "page 0 must have been evicted";
}

TEST(Tlb, PerProcessorPrivate) {
  Rig r(tlb_machine(8, 50));
  (void)r.m.access(0, AccessKind::Read, kSharedBase, 8, ++r.t);
  (void)r.m.access(1, AccessKind::Read, kSharedBase, 8, ++r.t);
  EXPECT_EQ(r.c0.tlb_misses, 1u);
  EXPECT_EQ(r.c1.tlb_misses, 1u) << "each CPU has its own TLB";
}

TEST(Tlb, AccessSpanningPagesTranslatesBoth) {
  Rig r(tlb_machine(8, 50));
  (void)r.m.access(0, AccessKind::Read, kSharedBase + kPlacementPageBytes - 4,
                   8, ++r.t);
  EXPECT_EQ(r.c0.tlb_misses, 2u);
}

TEST(Tlb, StockMachinesHaveTlbs) {
  EXPECT_EQ(vclass().tlb_entries, 120u);
  EXPECT_EQ(origin2000().tlb_entries, 128u);
  EXPECT_GT(origin2000().tlb_miss_penalty, vclass().tlb_miss_penalty)
      << "software refill on the R10000 costs more than the PA's walker";
  EXPECT_EQ(vclass().scaled(16).tlb_entries, 7u);
}

/// One reference: a byte address and a length (which may cross pages).
using Ref = std::pair<SimAddr, u32>;

/// Replays `refs` through sim::Tlb and through the oracle, a fully
/// associative true-LRU SetAssocCache of page-sized lines refilled on every
/// miss, and expects the same misses reference by reference.
void expect_matches_oracle(u32 entries, const std::vector<Ref>& refs) {
  SCOPED_TRACE(entries);
  Tlb tlb(entries);
  SetAssocCache oracle(CacheConfig{u64{entries} * kPlacementPageBytes,
                                   static_cast<u32>(kPlacementPageBytes),
                                   entries, 1});
  u64 total = 0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const auto [addr, len] = refs[i];
    u32 want = 0;
    for (u64 page = addr / kPlacementPageBytes;
         page <= (addr + len - 1) / kPlacementPageBytes; ++page) {
      if (oracle.lookup(page).has_value()) continue;
      ++want;
      (void)oracle.insert(page, LineState::E);
    }
    ASSERT_EQ(tlb.translate(addr, len), want) << "reference " << i;
    total += want;
  }
  EXPECT_GT(total, 0u);
}

/// The scaled and unscaled TLB sizes: scale 256 (4), scale 16 (7 and 8)
/// and the stock V-Class (120) and Origin (128).
constexpr u32 kEntries[] = {4, 7, 8, 120, 128};

TEST(Tlb, MatchesFullyAssociativeCacheOnRandomReferences) {
  for (u32 entries : kEntries) {
    Rng rng(entries);
    std::vector<Ref> refs;
    const auto pages = static_cast<i64>(3 * entries);
    for (int i = 0; i < 20'000; ++i) {
      const auto page = static_cast<u64>(rng.uniform(0, pages - 1));
      // One in eight references straddles the page's upper boundary.
      const bool cross = rng.uniform(0, 7) == 0;
      const u64 off = cross ? kPlacementPageBytes - 4
                            : static_cast<u64>(rng.uniform(0, 2047)) * 8;
      refs.emplace_back(kSharedBase + page * kPlacementPageBytes + off,
                        cross ? 8u : 8u << rng.uniform(0, 3));
    }
    expect_matches_oracle(entries, refs);
  }
}

TEST(Tlb, MatchesFullyAssociativeCacheOnLoopingReferences) {
  for (u32 entries : kEntries) {
    // Loops one page under, at and over capacity (the last misses on every
    // page under LRU), each page touched on a run of references, with one
    // page-crossing reference per lap.
    for (u32 loop : {entries - 1, entries, entries + 1}) {
      std::vector<Ref> refs;
      for (u32 lap = 0; lap < 6; ++lap) {
        for (u32 pg = 0; pg < loop; ++pg) {
          const SimAddr base = kSharedBase + u64{pg} * kPlacementPageBytes;
          for (u32 k = 0; k < 4; ++k) refs.emplace_back(base + 64 * k, 8);
        }
        refs.emplace_back(kSharedBase + kPlacementPageBytes - 4, 8);
      }
      expect_matches_oracle(entries, refs);
    }
  }
}

}  // namespace
}  // namespace dss::sim
