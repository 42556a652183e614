// Coherence protocol tests for MachineSim: MESI state transitions, the
// migratory optimization, speculative replies, eviction/directory
// consistency, NUMA homing, and randomized invariant storms.
#include <gtest/gtest.h>

#include <ostream>

#include "perf/counters.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "sim/refstream.hpp"
#include "util/rng.hpp"

namespace dss::sim {
namespace {

/// A tiny UMA single-level machine (V-Class-shaped).
MachineConfig tiny_uma() {
  MachineConfig c;
  c.name = "tiny-uma";
  c.num_processors = 4;
  c.procs_per_node = 2;
  c.uma = true;
  c.dcache = {CacheConfig{1024, 32, 2, 1}};
  c.mem_banks = 4;
  c.migratory_opt = false;
  c.speculative_reply = false;
  return c;
}

/// A tiny NUMA two-level machine (Origin-shaped).
MachineConfig tiny_numa() {
  MachineConfig c;
  c.name = "tiny-numa";
  c.num_processors = 4;
  c.procs_per_node = 2;
  c.uma = false;
  c.per_hop = 10;
  c.off_node_extra = 5;
  c.dcache = {CacheConfig{256, 32, 1, 1}, CacheConfig{1024, 64, 2, 8}};
  c.migratory_opt = false;
  c.speculative_reply = false;
  c.shared_home_nodes = {0};
  return c;
}

struct Rig {
  explicit Rig(const MachineConfig& cfg) : m(cfg), ctr(cfg.num_processors) {
    for (u32 p = 0; p < cfg.num_processors; ++p) m.attach_counters(p, &ctr[p]);
  }
  u64 read(u32 p, SimAddr a, u32 len = 8) {
    return m.access(p, AccessKind::Read, a, len, t += 100);
  }
  u64 write(u32 p, SimAddr a, u32 len = 8) {
    return m.access(p, AccessKind::Write, a, len, t += 100);
  }
  u64 atomic(u32 p, SimAddr a) {
    return m.access(p, AccessKind::Atomic, a, 8, t += 100);
  }
  MachineSim m;
  std::vector<perf::Counters> ctr;
  u64 t = 0;
};

constexpr SimAddr A = kSharedBase;  // a shared line

TEST(Machine, ReadMissFillsExclusive) {
  Rig r(tiny_uma());
  const u64 stall = r.read(0, A);
  EXPECT_GT(stall, 0u);
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::E);
  EXPECT_EQ(r.ctr[0].l1d_misses, 1u);
  EXPECT_EQ(r.ctr[0].mem_requests, 1u);
  // Second read hits, no stall beyond zero.
  EXPECT_EQ(r.read(0, A), 0u);
  EXPECT_EQ(r.ctr[0].l1d_misses, 1u);
}

TEST(Machine, WriteHitOnExclusiveIsSilentUpgrade) {
  Rig r(tiny_uma());
  (void)r.read(0, A);
  EXPECT_EQ(r.write(0, A), 0u);
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::M);
  EXPECT_EQ(r.ctr[0].upgrades, 0u);  // E->M needs no bus transaction
}

TEST(Machine, SecondReaderDowngradesOwnerToShared) {
  Rig r(tiny_uma());
  (void)r.read(0, A);
  (void)r.read(1, A);
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::S);
  EXPECT_EQ(*r.m.cache(1, 0).probe(A >> 5), LineState::S);
  EXPECT_EQ(r.ctr[0].cache_interventions, 1u);  // owner was interrogated
  EXPECT_EQ(r.ctr[1].dirty_misses, 0u);         // clean owner
  const DirEntry* e = r.m.directory().probe(A >> 5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->state, DirState::Shared);
  EXPECT_EQ(e->sharer_count(), 2u);
}

TEST(Machine, ReadOfDirtyLineCountsDirtyMiss) {
  Rig r(tiny_uma());
  (void)r.read(0, A);
  (void)r.write(0, A);  // M at 0
  (void)r.read(1, A);
  EXPECT_EQ(r.ctr[1].dirty_misses, 1u);
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::S);
}

TEST(Machine, WriteInvalidatesAllSharers) {
  Rig r(tiny_uma());
  (void)r.read(0, A);
  (void)r.read(1, A);
  (void)r.read(2, A);
  (void)r.write(3, A);
  for (u32 p : {0u, 1u, 2u}) {
    EXPECT_FALSE(r.m.cache(p, 0).probe(A >> 5).has_value()) << "proc " << p;
    EXPECT_EQ(r.ctr[p].invalidations_recv, 1u);
  }
  EXPECT_EQ(*r.m.cache(3, 0).probe(A >> 5), LineState::M);
}

TEST(Machine, UpgradeFromSharedCountsUpgrade) {
  Rig r(tiny_uma());
  (void)r.read(0, A);
  (void)r.read(1, A);  // both S
  (void)r.write(0, A);
  EXPECT_EQ(r.ctr[0].upgrades, 1u);
  EXPECT_EQ(r.ctr[1].invalidations_recv, 1u);
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::M);
}

TEST(Machine, MigratoryDetectionHandsOverExclusive) {
  auto cfg = tiny_uma();
  cfg.migratory_opt = true;
  Rig r(cfg);
  // Pattern: 0 writes; 1 reads-dirty then writes -> line flagged migratory.
  (void)r.write(0, A);
  (void)r.read(1, A);
  (void)r.write(1, A);
  // Now a read by 2 should hand over M directly (migratory transfer)...
  (void)r.read(2, A);
  EXPECT_EQ(r.ctr[2].migratory_transfers, 1u);
  EXPECT_EQ(*r.m.cache(2, 0).probe(A >> 5), LineState::M);
  EXPECT_FALSE(r.m.cache(1, 0).probe(A >> 5).has_value());
  // ...so 2's subsequent write needs no upgrade transaction.
  const u64 before = r.ctr[2].upgrades;
  (void)r.write(2, A);
  EXPECT_EQ(r.ctr[2].upgrades, before);
}

TEST(Machine, NoMigratoryHandoffWhenDisabled) {
  Rig r(tiny_uma());  // migratory_opt = false
  (void)r.write(0, A);
  (void)r.read(1, A);
  (void)r.write(1, A);
  (void)r.read(2, A);
  EXPECT_EQ(r.ctr[2].migratory_transfers, 0u);
  EXPECT_EQ(*r.m.cache(2, 0).probe(A >> 5), LineState::S);
}

TEST(Machine, ReadSharedDataIsNotFlaggedMigratory) {
  auto cfg = tiny_uma();
  cfg.migratory_opt = true;
  Rig r(cfg);
  (void)r.read(0, A);
  (void)r.read(1, A);
  (void)r.read(2, A);  // pure read sharing: no handoffs
  EXPECT_EQ(r.ctr[1].migratory_transfers + r.ctr[2].migratory_transfers, 0u);
}

TEST(Machine, SpeculativeReplyCheapensCleanOwnedRead) {
  auto with = tiny_numa();
  with.speculative_reply = true;
  auto without = tiny_numa();
  u64 lat_with = 0, lat_without = 0;
  {
    Rig r(with);
    (void)r.read(0, A);  // E at proc 0 (node 0)
    (void)r.read(2, A);  // proc 2 (node 1) reads a clean-owned line
    lat_with = r.ctr[2].mem_latency_cycles;
  }
  {
    Rig r(without);
    (void)r.read(0, A);
    (void)r.read(2, A);
    lat_without = r.ctr[2].mem_latency_cycles;
  }
  EXPECT_LT(lat_with, lat_without);
}

TEST(Machine, SpeculativeReplyDoesNotHelpDirtyRead) {
  auto with = tiny_numa();
  with.speculative_reply = true;
  auto without = tiny_numa();
  u64 lat_with = 0, lat_without = 0;
  {
    Rig r(with);
    (void)r.write(0, A);
    (void)r.read(2, A);
    lat_with = r.ctr[2].mem_latency_cycles;
  }
  {
    Rig r(without);
    (void)r.write(0, A);
    (void)r.read(2, A);
    lat_without = r.ctr[2].mem_latency_cycles;
  }
  EXPECT_EQ(lat_with, lat_without);
}

TEST(Machine, DirtyEvictionWritesBackAndUncaches) {
  Rig r(tiny_uma());  // 1 KiB, 2-way, 16 sets: lines x, x+16, x+32 conflict
  const u64 l0 = A >> 5;
  (void)r.write(0, A);
  (void)r.read(0, A + 16 * 32);
  (void)r.read(0, A + 32 * 32);  // evicts the dirty line (LRU)
  EXPECT_EQ(r.ctr[0].writebacks, 1u);
  const DirEntry* e = r.m.directory().probe(l0);
  EXPECT_TRUE(e == nullptr || e->state == DirState::Uncached);
  EXPECT_TRUE(r.m.check_invariants());
}

TEST(Machine, InclusionBackInvalidatesL1) {
  Rig r(tiny_numa());
  // L2: 1 KiB, 64 B lines, 2-way -> 8 sets; units u, u+8, u+16 conflict.
  (void)r.read(0, A);
  (void)r.read(0, A + 8 * 64);
  (void)r.read(0, A + 16 * 64);  // evicts unit of A from L2
  EXPECT_FALSE(r.m.cache(0, 0).probe(A >> 5).has_value())
      << "L1 must not hold a line whose L2 unit was evicted";
  EXPECT_TRUE(r.m.check_invariants());
}

TEST(Machine, WriteToSharedSublineOfOwnedUnitStaysLocal) {
  // Regression: hold subline A in S, upgrade sibling subline A+32 (becoming
  // directory owner of the unit), then write A. The S copy sits above an
  // M L2 line; promoting it must be a local state change, not a global
  // upgrade that would make the directory intervene on ourselves.
  Rig r(tiny_numa());
  (void)r.read(0, A);
  (void)r.read(1, A);        // unit now Shared between 0 and 1
  (void)r.read(0, A + 32);   // sibling subline, fills S from L2
  (void)r.write(0, A + 32);  // upgrade: proc 0 becomes owner, L2 -> M
  (void)r.write(0, A);       // S subline above an M unit: local promotion
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::M);
  EXPECT_EQ(*r.m.cache(0, 1).probe(A >> 6), LineState::M);
  EXPECT_EQ(r.ctr[0].upgrades, 1u) << "second write must not go global";
  EXPECT_TRUE(r.m.check_invariants());
}

TEST(Machine, TwoLevelCountsL2MissesOnlyOnUnitMiss) {
  Rig r(tiny_numa());
  // A 64-byte unit = two 32-byte L1 lines: second L1 line hits in L2.
  (void)r.read(0, A, 8);
  (void)r.read(0, A + 32, 8);
  EXPECT_EQ(r.ctr[0].l1d_misses, 2u);
  EXPECT_EQ(r.ctr[0].l2d_misses, 1u);
}

TEST(Machine, MultiLineAccessTouchesEachLine) {
  Rig r(tiny_uma());
  (void)r.read(0, A, 100);  // spans 4 lines of 32 B
  EXPECT_EQ(r.ctr[0].loads, 4u);
  EXPECT_EQ(r.ctr[0].l1d_misses, 4u);
}

TEST(Machine, AtomicActsAsWrite) {
  Rig r(tiny_uma());
  (void)r.read(1, A);
  (void)r.atomic(0, A);
  EXPECT_EQ(*r.m.cache(0, 0).probe(A >> 5), LineState::M);
  EXPECT_EQ(r.ctr[1].invalidations_recv, 1u);
  EXPECT_EQ(r.ctr[0].atomics, 1u);
}

TEST(Machine, HomeOfPrivateIsOwnersNode) {
  Rig r(tiny_numa());
  EXPECT_EQ(r.m.home_of(private_base(0)), 0u);
  EXPECT_EQ(r.m.home_of(private_base(1)), 0u);  // proc 1 also node 0
  EXPECT_EQ(r.m.home_of(private_base(2)), 1u);
  EXPECT_EQ(r.m.home_of(private_base(3)), 1u);
}

TEST(Machine, HomeOfSharedUsesConfiguredNodes) {
  auto cfg = tiny_numa();
  cfg.shared_home_nodes = {1};
  Rig r(cfg);
  for (u64 pg = 0; pg < 8; ++pg) {
    EXPECT_EQ(r.m.home_of(kSharedBase + pg * kPlacementPageBytes), 1u);
  }
}

TEST(Machine, UmaInterleavesAcrossBanks) {
  Rig r(tiny_uma());
  bool multiple_banks = false;
  const u32 first = r.m.home_of(kSharedBase);
  for (u64 l = 1; l < 8; ++l) {
    if (r.m.home_of(kSharedBase + l * 32) != first) multiple_banks = true;
  }
  EXPECT_TRUE(multiple_banks);
}

TEST(Machine, RemoteReadCostsMoreThanLocalOnNuma) {
  Rig r(tiny_numa());  // shared homed on node 0
  perf::Counters& local = r.ctr[0];   // proc 0 = node 0
  perf::Counters& remote = r.ctr[2];  // proc 2 = node 1
  (void)r.read(0, A);
  (void)r.read(2, A + 4 * kPlacementPageBytes);  // different page, same home
  EXPECT_GT(remote.mem_latency_cycles, local.mem_latency_cycles);
  EXPECT_EQ(local.remote_accesses, 0u);
  EXPECT_EQ(remote.remote_accesses, 1u);
}

// ---- Randomized invariant storms across machine shapes ----

struct StormParam {
  const char* name;
  bool numa;
  bool migratory;
  bool speculative;
  u64 seed;
};

// Without a printer gtest dumps the struct's bytes, name pointer included,
// into the test name, which would then change from build to build.
void PrintTo(const StormParam& sp, std::ostream* os) {
  *os << "numa=" << sp.numa << " migratory=" << sp.migratory
      << " speculative=" << sp.speculative << " seed=" << sp.seed;
}

class CoherenceStorm : public ::testing::TestWithParam<StormParam> {};

TEST_P(CoherenceStorm, InvariantsHoldUnderRandomTraffic) {
  const auto sp = GetParam();
  MachineConfig cfg = sp.numa ? tiny_numa() : tiny_uma();
  cfg.migratory_opt = sp.migratory;
  cfg.speculative_reply = sp.speculative;
  Rig r(cfg);
  Rng rng(sp.seed);
  // A working set several times the cache size, mixing shared and private.
  for (int i = 0; i < 30'000; ++i) {
    const u32 p = static_cast<u32>(rng.uniform(0, cfg.num_processors - 1));
    const bool shared = rng.chance(0.7);
    const SimAddr base = shared ? kSharedBase : private_base(p);
    const SimAddr a = base + static_cast<u64>(rng.uniform(0, 8192)) * 8;
    const u32 len = rng.chance(0.2) ? 40 : 8;
    switch (rng.uniform(0, 2)) {
      case 0: (void)r.read(p, a, len); break;
      case 1: (void)r.write(p, a, len); break;
      default: (void)r.atomic(p, a); break;
    }
    if (i % 5'000 == 4'999) {
      ASSERT_TRUE(r.m.check_invariants()) << "step " << i;
    }
  }
  ASSERT_TRUE(r.m.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CoherenceStorm,
    ::testing::Values(StormParam{"uma", false, false, false, 1},
                      StormParam{"uma_migratory", false, true, false, 2},
                      StormParam{"numa", true, false, false, 3},
                      StormParam{"numa_spec", true, false, true, 4},
                      StormParam{"numa_migratory_spec", true, true, true, 5},
                      StormParam{"uma_seed6", false, true, false, 6}),
    [](const auto& info) { return info.param.name; });

TEST(Machine, ScaledConfigsPreserveGeometryRules) {
  for (u32 denom : {1u, 4u, 16u, 64u}) {
    const auto hp = vclass().scaled(denom);
    const auto sgi = origin2000().scaled(denom);
    EXPECT_EQ(hp.dcache[0].size_bytes, (2ULL << 20) / denom);
    EXPECT_EQ(hp.dcache[0].line_bytes, 32u);
    EXPECT_EQ(sgi.dcache[1].line_bytes, 128u);
    EXPECT_EQ(sgi.dcache[1].size_bytes, (4ULL << 20) / denom);
    // Geometry stays valid (power-of-two sets >= 1).
    MachineSim m1(hp), m2(sgi);
    perf::Counters c;
    m1.attach_counters(0, &c);
    (void)m1.access(0, AccessKind::Read, kSharedBase, 8, 0);
    EXPECT_TRUE(m1.check_invariants());
  }
}

/// BatchRefs of `recs[lo, hi)`, as the replay compile pass packs them.
std::vector<BatchRef> batch_refs(const std::vector<TraceRecord>& recs,
                                 std::size_t lo, std::size_t hi) {
  std::vector<BatchRef> out;
  for (std::size_t i = lo; i < hi; ++i) {
    const TraceRecord& r = recs[i];
    out.push_back(BatchRef{r.addr, r.proc, (r.len << 2) | r.kind});
  }
  return out;
}

TEST(Machine, WarmBatchLeavesTheStateAccessBatchLeaves) {
  // Functional warming must leave every cache, directory, LRU, TLB and
  // miss-history entry where the detailed loop would: after a prefix run
  // through warm_batch on one machine and access_batch on another, the
  // same detailed suffix counts the same events on both. (No epoch rolls,
  // so the memory controller's queueing estimate stays zero on both.)
  RefStreamConfig rc;
  rc.pattern = RefPattern::kMixed;
  rc.records = 60'000;
  rc.footprint_bytes = u64{256} << 10;
  const auto recs = make_refstream(rc);
  const std::vector<BatchRef> prefix = batch_refs(recs, 0, 40'000);
  const std::vector<BatchRef> suffix = batch_refs(recs, 40'000, recs.size());
  for (const MachineConfig& cfg :
       {vclass().scaled(64), origin2000().scaled(64)}) {
    SCOPED_TRACE(cfg.name);
    MachineSim warmed(cfg), detailed(cfg);
    std::vector<perf::Counters> scratch(cfg.num_processors);
    for (u32 p = 0; p < cfg.num_processors; ++p) {
      detailed.attach_counters(p, &scratch[p]);
    }
    warmed.warm_batch(prefix.data(), prefix.size());
    detailed.access_batch(prefix.data(), prefix.size());

    std::vector<perf::Counters> a(cfg.num_processors), b(cfg.num_processors);
    for (u32 p = 0; p < cfg.num_processors; ++p) {
      warmed.attach_counters(p, &a[p]);
      detailed.attach_counters(p, &b[p]);
    }
    warmed.access_batch(suffix.data(), suffix.size());
    detailed.access_batch(suffix.data(), suffix.size());
    u64 misses = 0;
    for (u32 p = 0; p < cfg.num_processors; ++p) {
      SCOPED_TRACE(p);
      misses += b[p].l1d_misses;
      EXPECT_EQ(a[p].cycles, b[p].cycles);
      EXPECT_EQ(a[p].loads, b[p].loads);
      EXPECT_EQ(a[p].stores, b[p].stores);
      EXPECT_EQ(a[p].atomics, b[p].atomics);
      EXPECT_EQ(a[p].l1d_misses, b[p].l1d_misses);
      EXPECT_EQ(a[p].l2d_misses, b[p].l2d_misses);
      EXPECT_EQ(a[p].dirty_misses, b[p].dirty_misses);
      EXPECT_EQ(a[p].cache_interventions, b[p].cache_interventions);
      EXPECT_EQ(a[p].invalidations_recv, b[p].invalidations_recv);
      EXPECT_EQ(a[p].upgrades, b[p].upgrades);
      EXPECT_EQ(a[p].writebacks, b[p].writebacks);
      EXPECT_EQ(a[p].tlb_misses, b[p].tlb_misses);
      EXPECT_EQ(a[p].mem_requests, b[p].mem_requests);
      EXPECT_EQ(a[p].mem_latency_cycles, b[p].mem_latency_cycles);
      EXPECT_EQ(a[p].remote_accesses, b[p].remote_accesses);
      EXPECT_EQ(a[p].l1_miss_causes.by_cause, b[p].l1_miss_causes.by_cause);
      EXPECT_EQ(a[p].l2_miss_causes.by_cause, b[p].l2_miss_causes.by_cause);
      EXPECT_EQ(a[p].obj_misses, b[p].obj_misses);
      EXPECT_EQ(a[p].stack.tlb, b[p].stack.tlb);
      EXPECT_EQ(a[p].stack.mem_stall(), b[p].stack.mem_stall());
    }
    EXPECT_GT(misses, 0u) << "the suffix must exercise the miss path";
    EXPECT_TRUE(warmed.check_invariants());
  }
}

}  // namespace
}  // namespace dss::sim
