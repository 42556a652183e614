// Performance-counter model tests.
#include <gtest/gtest.h>

#include <set>

#include "member_count.hpp"
#include "perf/counters.hpp"
#include "perf/platform_events.hpp"

namespace dss::perf {
namespace {

TEST(Counters, DerivedMetrics) {
  Counters c;
  c.cycles = 14'000'000;
  c.instructions = 10'000'000;
  c.l1d_misses = 5'000;
  c.l2d_misses = 1'000;
  c.loads = 90'000;
  c.stores = 10'000;
  c.mem_requests = 1'000;
  c.mem_latency_cycles = 110'000;
  c.vol_ctx_switches = 20;
  c.invol_ctx_switches = 10;
  EXPECT_DOUBLE_EQ(c.cpi(), 1.4);
  EXPECT_DOUBLE_EQ(c.cycles_per_minstr(), 1.4e6);
  EXPECT_DOUBLE_EQ(c.l1d_per_minstr(), 500.0);
  EXPECT_DOUBLE_EQ(c.l2d_per_minstr(), 100.0);
  EXPECT_DOUBLE_EQ(c.avg_mem_latency(), 110.0);
  EXPECT_DOUBLE_EQ(c.vol_ctx_per_minstr(), 2.0);
  EXPECT_DOUBLE_EQ(c.invol_ctx_per_minstr(), 1.0);
  EXPECT_DOUBLE_EQ(c.l1d_miss_rate(), 0.05);
  EXPECT_DOUBLE_EQ(c.l2d_miss_rate(), 0.2);
}

TEST(Counters, ZeroSafeDerivedMetrics) {
  const Counters c;
  EXPECT_EQ(c.cpi(), 0.0);
  EXPECT_EQ(c.avg_mem_latency(), 0.0);
  EXPECT_EQ(c.l1d_miss_rate(), 0.0);
}

TEST(Counters, Accumulate) {
  Counters a, b;
  a.cycles = 10;
  a.dirty_misses = 3;
  b.cycles = 5;
  b.dirty_misses = 4;
  b.migratory_transfers = 2;
  a += b;
  EXPECT_EQ(a.cycles, 15u);
  EXPECT_EQ(a.dirty_misses, 7u);
  EXPECT_EQ(a.migratory_transfers, 2u);
}

/// The table's members are distinct, and with the `others` members that
/// are not scalars they are every member of S.
template <class S, std::size_t N>
void expect_table_covers(const std::array<CounterField<S>, N>& table,
                         std::size_t others) {
  const S s{};
  std::set<std::size_t> offsets;
  std::set<std::string> names;
  for (const auto& f : table) {
    offsets.insert(testing::offset_in(s, s.*f.member));
    names.insert(f.name);
  }
  EXPECT_EQ(offsets.size(), N);
  EXPECT_EQ(names.size(), N);
  EXPECT_EQ(N + others, testing::member_count<S>());
}

TEST(Counters, FieldTablesCoverTheirStructs) {
  expect_table_covers(kCpiStackFields, 0);
  // l1/l2_miss_causes, obj_misses, obj_comm_misses and stack.
  expect_table_covers(kCounterFields, 5);
  // Every member is a u64 (arrays of them included), so the byte sizes
  // agree too.
  EXPECT_EQ(sizeof(Counters),
            kCounterFields.size() * sizeof(u64) + 2 * sizeof(MissBreakdown) +
                2 * kNumObjClasses * sizeof(u64) + sizeof(CpiStack));
}

TEST(Counters, TablesDriveAccumulationAndStackSums) {
  Counters a;
  Counters b;
  u64 v = 1;
  for (const auto& f : kCounterFields) b.*f.member = v++;
  u64 mem = 0;
  u64 all = 0;
  for (const auto& f : kCpiStackFields) {
    b.stack.*f.member = v;
    all += v;
    if (f.machine) mem += v;
    ++v;
  }
  a += b;
  a += b;
  for (const auto& f : kCounterFields) {
    EXPECT_EQ(a.*f.member, 2 * (b.*f.member)) << f.name;
  }
  EXPECT_EQ(b.stack.total(), all);
  EXPECT_EQ(b.stack.mem_stall(), mem);
  EXPECT_EQ(a.stack.total(), 2 * all);
  // mem_stall() is every bucket below the CPU core.
  EXPECT_EQ(all - mem, b.stack.compute + b.stack.spin + b.stack.sched);
}

TEST(Counters, MachineWalkSkipsProcessSideFields) {
  Counters c;
  for (const auto& f : kCounterFields) c.*f.member = 1;
  for (const auto& f : kCpiStackFields) c.stack.*f.member = 1;
  c.l1_miss_causes[MissCause::kCold] = 1;
  c.obj_comm_misses[2] = 1;
  u64 seen = 0;
  for_each_machine_field([&seen](u64& x) { seen += x; x = 0; }, c);
  // 15 machine counters, the two tallies set above, 8 memory-stall buckets.
  EXPECT_EQ(seen, 15u + 2u + 8u);
  EXPECT_EQ(c.cycles, 1u);
  EXPECT_EQ(c.loads, 0u);
  EXPECT_EQ(c.index_descents, 1u);
  EXPECT_EQ(c.stack.compute, 1u);
  EXPECT_EQ(c.stack.intervention, 0u);
}

TEST(PlatformEvents, CataloguesDiffer) {
  const auto& hp = platform_events(Platform::VClass);
  const auto& sgi = platform_events(Platform::Origin2000);
  EXPECT_FALSE(hp.empty());
  EXPECT_FALSE(sgi.empty());
  // The V-Class has no L2 event; the Origin has no open-request counter.
  Counters c;
  EXPECT_FALSE(read_event(Platform::VClass, "L2_DCACHE_MISS", c).has_value());
  EXPECT_FALSE(read_event(Platform::Origin2000, "MEM_OPEN_TICKS", c).has_value());
}

TEST(PlatformEvents, ReadsMapToCounters) {
  Counters c;
  c.cycles = 123;
  c.instructions = 456;
  c.l1d_misses = 7;
  c.l2d_misses = 8;
  c.cache_interventions = 9;
  c.invalidations_recv = 10;
  c.mem_latency_cycles = 11;
  EXPECT_EQ(read_event(Platform::VClass, "CPU_CYCLES", c), 123u);
  EXPECT_EQ(read_event(Platform::VClass, "DCACHE_MISS", c), 7u);
  EXPECT_EQ(read_event(Platform::VClass, "MEM_OPEN_TICKS", c), 11u);
  EXPECT_EQ(read_event(Platform::Origin2000, "GRAD_INSTR", c), 456u);
  EXPECT_EQ(read_event(Platform::Origin2000, "L2_DCACHE_MISS", c), 8u);
  EXPECT_EQ(read_event(Platform::Origin2000, "EXT_INTERVENTION", c), 9u);
  EXPECT_EQ(read_event(Platform::Origin2000, "EXT_INVALIDATE", c), 10u);
}

TEST(PlatformEvents, EveryCataloguedEventIsReadable) {
  const Counters c;
  for (auto platform : {Platform::VClass, Platform::Origin2000}) {
    for (const auto& ev : platform_events(platform)) {
      EXPECT_TRUE(read_event(platform, ev.name, c).has_value())
          << platform_name(platform) << "/" << ev.name;
    }
  }
}

TEST(PlatformEvents, Names) {
  EXPECT_STREQ(platform_name(Platform::VClass), "HP V-Class");
  EXPECT_STREQ(platform_name(Platform::Origin2000), "SGI Origin 2000");
}

}  // namespace
}  // namespace dss::perf
