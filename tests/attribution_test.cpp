// Miss-cause classification, DB-object attribution and CPI-stack
// accounting: every breakdown must conserve exactly against the counters it
// decomposes, and classification must match hand-built access sequences.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "sim/addr.hpp"
#include "sim/addr_classes.hpp"
#include "sim/check/invariants.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "util/rng.hpp"

namespace dss::sim {
namespace {

MachineConfig tiny_uma() {
  MachineConfig c;
  c.name = "tiny-uma";
  c.num_processors = 4;
  c.procs_per_node = 2;
  c.uma = true;
  c.dcache = {CacheConfig{1024, 32, 2, 1}};
  c.mem_banks = 4;
  c.migratory_opt = true;
  return c;
}

MachineConfig tiny_numa() {
  MachineConfig c;
  c.name = "tiny-numa";
  c.num_processors = 4;
  c.procs_per_node = 2;
  c.uma = false;
  c.per_hop = 10;
  c.off_node_extra = 5;
  c.dcache = {CacheConfig{256, 32, 2, 1}, CacheConfig{1024, 128, 2, 8}};
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
  MachineSim m;
  std::vector<perf::Counters> ctr;
  u64 t = 0;
};

void storm(Rig& rig, u64 seed, int accesses) {
  Rng rng(seed);
  for (int i = 0; i < accesses; ++i) {
    const u32 p = static_cast<u32>(rng.uniform(0, 3));
    const SimAddr a = kSharedBase + 32 * static_cast<u64>(rng.uniform(0, 63));
    if (rng.chance(0.4)) {
      rig.write(p, a);
    } else {
      rig.read(p, a);
    }
  }
}

void expect_conserved(const Rig& rig, bool two_level) {
  for (const perf::Counters& c : rig.ctr) {
    EXPECT_EQ(c.l1_miss_causes.total(), c.l1d_misses);
    if (two_level) {
      EXPECT_EQ(c.l2_miss_causes.total(), c.l2d_misses);
    } else {
      EXPECT_EQ(c.l2_miss_causes.total(), 0u);
    }
    const u64 last_misses = two_level ? c.l2d_misses : c.l1d_misses;
    u64 obj_total = 0, obj_comm = 0;
    for (u32 i = 0; i < perf::kNumObjClasses; ++i) {
      EXPECT_LE(c.obj_comm_misses[i], c.obj_misses[i]);
      obj_total += c.obj_misses[i];
      obj_comm += c.obj_comm_misses[i];
    }
    EXPECT_EQ(obj_total, last_misses);
    EXPECT_LE(obj_comm, last_misses);
  }
}

TEST(AddrClassRegistry, ClassifiesRangesAndCarvesOverlaps) {
  AddrClassRegistry reg;
  reg.add(kSharedBase, 8192, perf::ObjClass::kHeapPage);
  reg.add(kSharedBase + 16384, 512, perf::ObjClass::kLockTable);
  EXPECT_EQ(reg.classify(kSharedBase), perf::ObjClass::kHeapPage);
  EXPECT_EQ(reg.classify(kSharedBase + 8191), perf::ObjClass::kHeapPage);
  EXPECT_EQ(reg.classify(kSharedBase + 8192), perf::ObjClass::kOther);
  EXPECT_EQ(reg.classify(kSharedBase + 16384), perf::ObjClass::kLockTable);

  // Re-tagging a sub-range overrides it while the remnants keep their class
  // (the buffer pool re-tags frames inside its blanket heap-page range).
  reg.add(kSharedBase + 1024, 1024, perf::ObjClass::kIndexPage);
  EXPECT_EQ(reg.classify(kSharedBase + 1023), perf::ObjClass::kHeapPage);
  EXPECT_EQ(reg.classify(kSharedBase + 1024), perf::ObjClass::kIndexPage);
  EXPECT_EQ(reg.classify(kSharedBase + 2047), perf::ObjClass::kIndexPage);
  EXPECT_EQ(reg.classify(kSharedBase + 2048), perf::ObjClass::kHeapPage);

  // Private addresses are per-process work memory without registration.
  EXPECT_EQ(reg.classify(private_base(0) + 64), perf::ObjClass::kWorkMem);
}

TEST(MissCauses, ConserveAgainstMissCountersUnderStorm) {
  Rig uma(tiny_uma());
  storm(uma, 11, 20'000);
  expect_conserved(uma, /*two_level=*/false);

  Rig numa(tiny_numa());
  storm(numa, 13, 20'000);
  expect_conserved(numa, /*two_level=*/true);
}

TEST(MissCauses, ColdCoherenceAndUpgradeClassification) {
  Rig rig(tiny_uma());
  const SimAddr a = kSharedBase;

  rig.read(0, a);  // never seen anywhere: cold
  EXPECT_EQ(rig.ctr[0].l1_miss_causes[perf::MissCause::kCold], 1u);
  EXPECT_EQ(rig.ctr[0].l1_miss_causes.total(), rig.ctr[0].l1d_misses);

  // P1's first read is served out of P0's (Exclusive) copy: a coherence
  // miss, not cold — remote-cache state overrides local history.
  rig.read(1, a);
  EXPECT_EQ(rig.ctr[1].l1_miss_causes[perf::MissCause::kCohClean] +
                rig.ctr[1].l1_miss_causes[perf::MissCause::kCohDirty],
            1u);

  // Both sharers hold the line: P0's write is an upgrade, not a miss, and
  // invalidates P1.
  rig.write(0, a);
  EXPECT_EQ(rig.ctr[0].upgrades, 1u);
  EXPECT_EQ(rig.ctr[0].l1_miss_causes.total(), rig.ctr[0].l1d_misses);

  // P1 misses into P0's now-dirty line: a coherence (dirty) miss.
  rig.read(1, a);
  EXPECT_EQ(rig.ctr[1].l1_miss_causes[perf::MissCause::kCohDirty], 1u);

  // P1 upgrades in turn, invalidating P0; P0's re-read is a coherence miss
  // (dirty if the protocol hands over the modified copy).
  rig.write(1, a);
  rig.read(0, a);
  EXPECT_EQ(rig.ctr[0].l1_miss_causes[perf::MissCause::kCohInval] +
                rig.ctr[0].l1_miss_causes[perf::MissCause::kCohDirty],
            1u);
  expect_conserved(rig, /*two_level=*/false);
}

TEST(MissCauses, EvictionRereadIsCapacity) {
  Rig rig(tiny_uma());
  // 2-way cache, 16 sets, 32 B lines: three lines 512 B apart share a set.
  const SimAddr a = kSharedBase;
  rig.read(0, a);
  rig.read(0, a + 512);
  rig.read(0, a + 1024);  // evicts one resident way
  rig.read(0, a);
  rig.read(0, a + 512);
  rig.read(0, a + 1024);  // at least one of these re-reads missed
  EXPECT_GE(rig.ctr[0].l1_miss_causes[perf::MissCause::kCapacity], 1u);
  EXPECT_EQ(rig.ctr[0].l1_miss_causes[perf::MissCause::kCold], 3u);
  expect_conserved(rig, /*two_level=*/false);
}

TEST(ObjClasses, SyntheticTraceAttributesToRegisteredRanges) {
  AddrClassRegistry reg;
  reg.add(kSharedBase, 2048, perf::ObjClass::kHeapPage);
  reg.add(kSharedBase + 2048, 2048, perf::ObjClass::kLockTable);

  Rig rig(tiny_uma());
  rig.m.set_addr_classes(&reg);
  rig.read(0, kSharedBase);          // heap, cold
  rig.read(0, kSharedBase + 2048);   // lock table, cold
  rig.write(1, kSharedBase + 2048);  // lock table, communication for P1
  rig.read(0, kSharedBase + 6000);   // unregistered: other
  rig.read(0, private_base(0));      // private: work memory

  const auto idx = [](perf::ObjClass c) { return static_cast<u32>(c); };
  EXPECT_EQ(rig.ctr[0].obj_misses[idx(perf::ObjClass::kHeapPage)], 1u);
  EXPECT_EQ(rig.ctr[0].obj_misses[idx(perf::ObjClass::kLockTable)], 1u);
  EXPECT_EQ(rig.ctr[0].obj_misses[idx(perf::ObjClass::kOther)], 1u);
  EXPECT_EQ(rig.ctr[0].obj_misses[idx(perf::ObjClass::kWorkMem)], 1u);
  EXPECT_EQ(rig.ctr[1].obj_misses[idx(perf::ObjClass::kLockTable)], 1u);
  EXPECT_EQ(rig.ctr[1].obj_comm_misses[idx(perf::ObjClass::kLockTable)], 1u);
  expect_conserved(rig, /*two_level=*/false);
}

TEST(Attribution, ExperimentRunConservesStackAndCauses) {
  using namespace dss::core;
  ExperimentRunner runner(ScaleConfig{64}, 5, /*jobs=*/1);
  ExperimentConfig cfg;
  cfg.platform = perf::Platform::Origin2000;
  cfg.query = tpch::QueryId::Q6;
  cfg.nproc = 2;
  cfg.trials = 1;
  cfg.scale = ScaleConfig{64};
  cfg.seed = 5;
  cfg.check = true;  // I8/I9 sweeps run during and after the trial
  const RunResult r = runner.run(cfg);

  // The summed counters conserve exactly: the CPI stack splits every cycle,
  // the cause breakdown splits every miss, object classes split every
  // last-level miss.
  EXPECT_GT(r.mean.cycles, 0u);
  EXPECT_EQ(r.mean.stack.total(), r.mean.cycles);
  EXPECT_EQ(r.mean.l1_miss_causes.total(), r.mean.l1d_misses);
  EXPECT_EQ(r.mean.l2_miss_causes.total(), r.mean.l2d_misses);
  u64 obj_total = 0;
  for (u32 i = 0; i < perf::kNumObjClasses; ++i) {
    obj_total += r.mean.obj_misses[i];
  }
  EXPECT_EQ(obj_total, r.mean.l2d_misses);
  // A real query run touches heap pages and spends memory-stall cycles.
  EXPECT_GT(r.mean.obj_misses[static_cast<u32>(perf::ObjClass::kHeapPage)],
            0u);
  EXPECT_GT(r.mean.stack.mem_stall(), 0u);
  EXPECT_GT(r.mean.stack.compute, 0u);
}

TEST(Attribution, VClassExperimentStackConserves) {
  using namespace dss::core;
  ExperimentRunner runner(ScaleConfig{64}, 5, /*jobs=*/2);
  const RunResult r =
      runner.run(perf::Platform::VClass, tpch::QueryId::Q12, 2, /*trials=*/2);
  EXPECT_EQ(r.mean.stack.total(), r.mean.cycles);
  EXPECT_EQ(r.mean.l1_miss_causes.total(), r.mean.l1d_misses);
  EXPECT_EQ(r.mean.l2_miss_causes.total(), 0u);  // single-level V-Class
  u64 obj_total = 0;
  for (u32 i = 0; i < perf::kNumObjClasses; ++i) {
    obj_total += r.mean.obj_misses[i];
  }
  EXPECT_EQ(obj_total, r.mean.l1d_misses);
}

}  // namespace
}  // namespace dss::sim
