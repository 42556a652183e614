// Unit tests for the Directory container and the machine config factories.
#include <gtest/gtest.h>

#include "sim/directory.hpp"
#include "sim/machine_configs.hpp"

namespace dss::sim {
namespace {

TEST(Directory, EntryCreatesUncached) {
  Directory d;
  EXPECT_EQ(d.probe(42), nullptr);
  DirEntry& e = d.entry(42);
  EXPECT_EQ(e.state, DirState::Uncached);
  EXPECT_NE(d.probe(42), nullptr);
  EXPECT_EQ(d.size(), 1u);
}

TEST(Directory, SharerBitmask) {
  DirEntry e;
  e.add_sharer(0);
  e.add_sharer(31);
  e.add_sharer(63);
  EXPECT_EQ(e.sharer_count(), 3u);
  EXPECT_TRUE(e.is_sharer(31));
  EXPECT_FALSE(e.is_sharer(5));
  e.remove_sharer(31);
  EXPECT_EQ(e.sharer_count(), 2u);
  EXPECT_FALSE(e.is_sharer(31));
  e.remove_sharer(31);  // idempotent
  EXPECT_EQ(e.sharer_count(), 2u);
}

TEST(Directory, EraseIfUncachedKeepsLiveEntries) {
  Directory d;
  d.entry(1).state = DirState::Shared;
  (void)d.entry(2);  // stays Uncached
  d.erase_if_uncached(*d.find_slot(1));
  d.erase_if_uncached(*d.find_slot(2));
  EXPECT_NE(d.probe(1), nullptr);
  EXPECT_EQ(d.probe(2), nullptr);
}

TEST(Directory, ForEachVisitsAll) {
  Directory d;
  for (u64 u = 0; u < 10; ++u) d.entry(u).state = DirState::Shared;
  std::size_t n = 0;
  d.for_each([&](u64, const DirEntry&) { ++n; });
  EXPECT_EQ(n, 10u);
}

TEST(MachineConfigs, PaperParameters) {
  const auto hp = vclass();
  EXPECT_EQ(hp.num_processors, 16u);
  EXPECT_DOUBLE_EQ(hp.clock_mhz, 200.0);
  EXPECT_TRUE(hp.uma);
  EXPECT_EQ(hp.dcache.size(), 1u);
  EXPECT_EQ(hp.dcache[0].size_bytes, 2ULL << 20);
  EXPECT_EQ(hp.dcache[0].line_bytes, 32u);
  EXPECT_TRUE(hp.migratory_opt);
  EXPECT_FALSE(hp.speculative_reply);
  EXPECT_EQ(hp.mem_banks, 8u);  // 8 EMACs

  const auto sgi = origin2000();
  EXPECT_EQ(sgi.num_processors, 32u);
  EXPECT_DOUBLE_EQ(sgi.clock_mhz, 250.0);
  EXPECT_FALSE(sgi.uma);
  EXPECT_EQ(sgi.procs_per_node, 2u);
  EXPECT_EQ(sgi.dcache.size(), 2u);
  EXPECT_EQ(sgi.dcache[0].size_bytes, 32ULL * 1024);
  EXPECT_EQ(sgi.dcache[0].line_bytes, 32u);
  EXPECT_EQ(sgi.dcache[1].size_bytes, 4ULL << 20);
  EXPECT_EQ(sgi.dcache[1].line_bytes, 128u);
  EXPECT_FALSE(sgi.migratory_opt);
  EXPECT_TRUE(sgi.speculative_reply);
  EXPECT_EQ(sgi.num_nodes(), 16u);
}

TEST(MachineConfigs, ScaledNeverBelowOneSetRow) {
  auto sgi = origin2000().scaled(4096);
  for (const auto& lvl : sgi.dcache) {
    EXPECT_GE(lvl.size_bytes,
              static_cast<u64>(lvl.line_bytes) * lvl.assoc);
    EXPECT_GE(lvl.num_sets(), 1u);
  }
}

TEST(MachineConfigs, ConfigForMatchesPlatform) {
  EXPECT_EQ(config_for(perf::Platform::VClass).name, "HP V-Class");
  EXPECT_EQ(config_for(perf::Platform::Origin2000).name, "SGI Origin 2000");
}

}  // namespace
}  // namespace dss::sim
