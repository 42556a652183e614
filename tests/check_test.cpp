// Runtime invariant checker: clean runs stay clean, observation changes
// nothing, the kSelfUpgrade fault is flagged by both the checker and the
// proto_check guards, and a --check experiment run is bit-identical to an
// unchecked one.
#include <gtest/gtest.h>

#include <cstring>

#include "core/experiment.hpp"
#include "sim/check/invariants.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "sweep_clean.hpp"
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

TEST(InvariantChecker, CleanStormHasNoViolations) {
  Rig rig(tiny_numa());
  check::InvariantChecker chk(rig.m, {/*full_sweep_interval=*/256});
  Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    const u32 p = static_cast<u32>(rng.uniform(0, 3));
    const SimAddr a = kSharedBase + 32 * static_cast<u64>(rng.uniform(0, 63));
    if (rng.chance(0.5)) {
      rig.write(p, a);
    } else {
      rig.read(p, a);
    }
  }
  chk.full_sweep();
  EXPECT_TRUE(chk.ok());
  EXPECT_EQ(chk.accesses_observed(), 20'000u);
  EXPECT_GE(chk.full_sweeps_run(), 20'000u / 256);
  EXPECT_TRUE(sweep_clean(rig.m));
}

TEST(InvariantChecker, MigratoryHandoffsAreLegalAndAccounted) {
  Rig rig(tiny_uma());
  check::InvariantChecker chk(rig.m, {/*full_sweep_interval=*/64});
  // Classic migratory pattern: read-modify-write bouncing between procs.
  const SimAddr a = kSharedBase;
  for (int round = 0; round < 50; ++round) {
    const u32 p = round % 2;
    rig.read(p, a);
    rig.write(p, a);
  }
  chk.full_sweep();
  EXPECT_TRUE(chk.ok());
  EXPECT_GT(chk.handoffs_observed(), 0u);
  u64 counted = 0;
  for (const auto& c : rig.ctr) counted += c.migratory_transfers;
  EXPECT_GE(counted, chk.handoffs_observed());
}

TEST(InvariantChecker, ObservationDoesNotChangeCountersOrTiming) {
  // Two identical access sequences, one observed, one not: every counter
  // and every returned stall-cycle count must match bit-for-bit.
  auto run = [](bool observed) {
    Rig rig(tiny_numa());
    std::optional<check::InvariantChecker> chk;
    if (observed) chk.emplace(rig.m, check::CheckerOptions{1024});
    Rng rng(11);
    u64 stalls = 0;
    for (int i = 0; i < 10'000; ++i) {
      const u32 p = static_cast<u32>(rng.uniform(0, 3));
      const SimAddr a =
          kSharedBase + 32 * static_cast<u64>(rng.uniform(0, 47));
      if (rng.chance(0.5)) {
        stalls += rig.write(p, a);
      } else {
        stalls += rig.read(p, a);
      }
    }
    return std::pair{stalls, rig.ctr};
  };
  const auto [stalls_plain, ctr_plain] = run(false);
  const auto [stalls_checked, ctr_checked] = run(true);
  EXPECT_EQ(stalls_plain, stalls_checked);
  ASSERT_EQ(ctr_plain.size(), ctr_checked.size());
  for (std::size_t p = 0; p < ctr_plain.size(); ++p) {
    EXPECT_EQ(std::memcmp(&ctr_plain[p], &ctr_checked[p],
                          sizeof(perf::Counters)),
              0)
        << "counters diverged on proc " << p;
  }
}

// The PR 1 regression: a write hit on a Shared L1 subline of a unit this
// processor already owns exclusively must be a local promotion. With
// CheckFault::kSelfUpgrade the buggy global upgrade is re-introduced; the
// checker must flag it (as a recorded violation AND a thrown
// ProtocolViolation) instead of the release-build segfault it used to be.
TEST(InvariantChecker, DetectsInjectedSelfUpgrade) {
  Rig rig(tiny_numa());
  check::InvariantChecker chk(rig.m);
  rig.m.set_fault(CheckFault::kSelfUpgrade);

  const SimAddr s0 = kSharedBase;       // subline 0 of unit 0
  const SimAddr s1 = kSharedBase + 32;  // subline 1 of the same 128 B unit
  rig.read(0, s1);
  rig.read(1, s1);   // unit now Shared by both procs
  rig.write(0, s0);  // upgrade: proc 0 owns the unit, L1 s1 still Shared
  EXPECT_THROW(rig.write(0, s1), ProtocolViolation);
  ASSERT_FALSE(chk.ok());
  EXPECT_NE(chk.violations().front().what.find("self-intervention"),
            std::string::npos);
}

// Under a sharded replay, a violation message must say which shard and
// which merge epoch it happened in (checked_replay sets both through
// CheckerOptions::shard and set_epoch).
TEST(InvariantChecker, ViolationMessagesCarryShardAndEpoch) {
  Rig rig(tiny_numa());
  check::CheckerOptions opts;
  opts.shard = 2;
  check::InvariantChecker chk(rig.m, opts);
  chk.set_epoch(7);
  rig.m.set_fault(CheckFault::kSelfUpgrade);

  const SimAddr s0 = kSharedBase;
  const SimAddr s1 = kSharedBase + 32;
  rig.read(0, s1);
  rig.read(1, s1);
  rig.write(0, s0);
  try {
    rig.write(0, s1);
    FAIL() << "expected ProtocolViolation";
  } catch (const ProtocolViolation& e) {
    EXPECT_NE(std::string(e.what()).find("shard 2, epoch 7: "),
              std::string::npos)
        << e.what();
  }
  ASSERT_FALSE(chk.ok());
  EXPECT_NE(chk.violations().front().what.find("shard 2, epoch 7: "),
            std::string::npos);
}

// Standalone checkers (shard unset) must not grow a prefix — their
// messages are consumed by tests and scripts that match exact text.
TEST(InvariantChecker, StandaloneMessagesHaveNoShardPrefix) {
  Rig rig(tiny_numa());
  check::InvariantChecker chk(rig.m);
  rig.m.set_fault(CheckFault::kSelfUpgrade);
  const SimAddr s0 = kSharedBase;
  const SimAddr s1 = kSharedBase + 32;
  rig.read(0, s1);
  rig.read(1, s1);
  rig.write(0, s0);
  EXPECT_THROW(rig.write(0, s1), ProtocolViolation);
  ASSERT_FALSE(chk.ok());
  EXPECT_EQ(chk.violations().front().what.find("shard"), std::string::npos);
}

TEST(InvariantChecker, SameSequenceWithoutFaultIsClean) {
  Rig rig(tiny_numa());
  check::InvariantChecker chk(rig.m);
  const SimAddr s0 = kSharedBase;
  const SimAddr s1 = kSharedBase + 32;
  rig.read(0, s1);
  rig.read(1, s1);
  rig.write(0, s0);
  rig.write(0, s1);  // local promotion, no global transaction
  chk.full_sweep();
  EXPECT_TRUE(chk.ok());
}

}  // namespace
}  // namespace dss::sim

namespace dss::core {
namespace {

// The fig2-shaped determinism guarantee behind --check: enabling the
// checker must not change a single metric bit.
TEST(CheckedRun, MetricsBitIdenticalToUncheckedRun) {
  ExperimentRunner runner(ScaleConfig{64}, 5, /*jobs=*/2);
  ExperimentConfig cfg;
  cfg.platform = perf::Platform::Origin2000;
  cfg.query = tpch::QueryId::Q6;
  cfg.nproc = 2;
  cfg.trials = 2;
  cfg.scale = ScaleConfig{64};
  cfg.seed = 5;

  cfg.check = false;
  const RunResult plain = runner.run(cfg);
  cfg.check = true;
  const RunResult checked = runner.run(cfg);

  EXPECT_EQ(std::memcmp(&plain.mean, &checked.mean, sizeof(perf::Counters)),
            0);
  EXPECT_EQ(plain.thread_time_cycles, checked.thread_time_cycles);
  EXPECT_EQ(plain.cpi, checked.cpi);
  EXPECT_EQ(plain.l1d_misses, checked.l1d_misses);
  EXPECT_EQ(plain.l2d_misses, checked.l2d_misses);
  EXPECT_EQ(plain.avg_mem_latency, checked.avg_mem_latency);
  EXPECT_EQ(plain.wall_seconds, checked.wall_seconds);
  ASSERT_EQ(plain.query_result.size(), checked.query_result.size());
  for (std::size_t i = 0; i < plain.query_result.size(); ++i) {
    EXPECT_EQ(plain.query_result[i].key, checked.query_result[i].key);
    EXPECT_EQ(plain.query_result[i].vals, checked.query_result[i].vals);
  }
}

// A V-Class checked run exercises the migratory-legality invariants (I5)
// against the real DBMS workload.
TEST(CheckedRun, VClassCheckedRunCompletes) {
  ExperimentRunner runner(ScaleConfig{64}, 5, /*jobs=*/1);
  ExperimentConfig cfg;
  cfg.platform = perf::Platform::VClass;
  cfg.query = tpch::QueryId::Q12;
  cfg.nproc = 2;
  cfg.trials = 1;
  cfg.scale = ScaleConfig{64};
  cfg.seed = 5;
  cfg.check = true;
  EXPECT_NO_THROW((void)runner.run(cfg));
}

}  // namespace
}  // namespace dss::core
