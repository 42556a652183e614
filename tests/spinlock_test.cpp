// Spinlock contention-model tests: interval recording, convoy chasing,
// select() backoff accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "db/spinlock.hpp"
#include "test_rig.hpp"
#include "util/rng.hpp"

namespace dss::db {

struct SpinLockModelAccess {
  static void record(SpinLock& l, u32 cpu, u64 start, u64 end) {
    l.record(cpu, start, end);
  }
  static u64 free_at(const SpinLock& l, u32 cpu, u64 t) {
    return l.free_at(cpu, t);
  }
};

namespace {

using testing::DbRig;

TEST(SpinLock, UncontendedAcquireIsCheap) {
  DbRig rig(1);
  SpinLock lk("t", sim::kSharedBase);
  lk.acquire(rig.p());
  lk.release(rig.p());
  EXPECT_EQ(lk.total_acquires(), 1u);
  EXPECT_EQ(lk.total_collisions(), 0u);
  EXPECT_EQ(lk.total_sleeps(), 0u);
  EXPECT_EQ(rig.p().counters().lock_acquires, 1u);
  EXPECT_EQ(rig.p().counters().vol_ctx_switches, 0u);
}

TEST(SpinLock, NonOverlappingHoldsNeverCollide) {
  DbRig rig(2);
  SpinLock lk("t", sim::kSharedBase);
  // Stagger the two processes' virtual clocks so their short holds never
  // coincide (contention is judged in virtual time, not host order).
  rig.p(1).instr(3'333);
  for (int i = 0; i < 50; ++i) {
    os::Process& p = rig.p(static_cast<u32>(i % 2));
    p.instr(10'000);  // separate the holds in time
    lk.acquire(p);
    p.instr(50);
    lk.release(p);
  }
  EXPECT_EQ(lk.total_collisions(), 0u);
}

TEST(SpinLock, OverlappingHoldFromOtherCpuCollides) {
  DbRig rig(2);
  SpinLock lk("t", sim::kSharedBase);
  os::Process& a = rig.p(0);
  os::Process& b = rig.p(1);
  // a holds [t, t+200k); b attempts inside that interval.
  lk.acquire(a);
  a.instr(200'000);
  lk.release(a);
  // b's clock is far behind a's, so its attempt lands inside a's hold.
  lk.acquire(b);
  lk.release(b);
  EXPECT_GE(lk.total_collisions(), 1u);
  // The long hold exceeds any spin budget: b backed off with select().
  EXPECT_GE(b.counters().select_sleeps, 1u);
  EXPECT_GE(b.counters().vol_ctx_switches, 1u);
  // b's acquire happens after a's release in virtual time.
  EXPECT_GT(b.now(), 200'000u);
}

TEST(SpinLock, ShortOverlapResolvedBySpinning) {
  DbRig rig(2);
  SpinLock lk("t", sim::kSharedBase);
  os::Process& a = rig.p(0);
  os::Process& b = rig.p(1);
  lk.acquire(a);
  a.instr(60);  // short critical section
  lk.release(a);
  lk.acquire(b);  // overlaps a's recorded hold near its start
  lk.release(b);
  EXPECT_GE(lk.total_collisions(), 1u);
  EXPECT_EQ(lk.total_sleeps(), 0u) << "short waits must not sleep";
  EXPECT_GT(b.counters().spin_cycles, 0u);
}

TEST(SpinLock, ConvoyChainsAcrossHolds) {
  DbRig rig(4);
  SpinLock lk("t", sim::kSharedBase);
  // Three processes hold back-to-back long intervals; the fourth must chase
  // the chain past the last end.
  u64 last_end = 0;
  for (u32 i = 0; i < 3; ++i) {
    os::Process& p = rig.p(i);
    lk.acquire(p);
    p.instr(100'000);
    lk.release(p);
    last_end = std::max(last_end, p.now());
  }
  os::Process& d = rig.p(3);
  lk.acquire(d);
  EXPECT_GE(d.now(), last_end);
  lk.release(d);
}

TEST(SpinLock, EmitsCoherenceTrafficOnLockLine) {
  DbRig rig(2);
  SpinLock lk("t", sim::kSharedBase);
  lk.acquire(rig.p(0));
  lk.release(rig.p(0));
  lk.acquire(rig.p(1));
  lk.release(rig.p(1));
  // The second CPU's TAS transfers the lock line from the first.
  EXPECT_GE(rig.p(1).counters().dirty_misses, 1u);
}

/// Brute-force fixed point over the last `ring` holds: rescan every hold
/// until none of another CPU's covers t.
struct RefHold {
  u32 cpu;
  u64 start;
  u64 end;
};
/// `hops` counts the holds chased.
u64 ref_free_at(const std::deque<RefHold>& holds, u32 cpu, u64 t, u32& hops) {
  hops = 0;
  for (bool moved = true; moved;) {
    moved = false;
    for (const RefHold& h : holds) {
      if (h.cpu != cpu && h.start <= t && t < h.end) {
        t = h.end;
        moved = true;
        ++hops;
      }
    }
  }
  return t;
}

TEST(SpinLock, FreeAtMatchesBruteForceFixedPoint) {
  // Random hold sequences: queries before the ring fills (empty slots), far
  // past it (wrap-around), holds of the querying CPU itself, back-to-back
  // chains (multi-hop convoys) and the occasional long hold whose end, once
  // overwritten, lowers its block's recorded maximum.
  constexpr std::size_t kRing = 128;
  for (u64 seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    SpinLock lk("t", sim::kSharedBase);
    std::deque<RefHold> holds;
    u64 clock = 1'000;
    u64 covered = 0;
    u64 convoys = 0;
    for (int i = 0; i < 3'000; ++i) {
      const u32 cpu = static_cast<u32>(rng.uniform(0, 3));
      u64 start = clock + static_cast<u64>(rng.uniform(0, 400));
      if (!holds.empty() && rng.chance(0.4)) {
        // Chain onto the previous hold: starts inside it.
        const RefHold& prev = holds.back();
        start = prev.end - static_cast<u64>(rng.uniform(
                               0, static_cast<i64>(prev.end - prev.start)));
      } else if (rng.chance(0.1)) {
        start -= std::min<u64>(start, static_cast<u64>(rng.uniform(0, 5'000)));
      }
      const u64 len = rng.chance(0.05)
                          ? static_cast<u64>(rng.uniform(10'000, 50'000))
                          : static_cast<u64>(rng.uniform(1, 600));
      SpinLockModelAccess::record(lk, cpu, start, start + len);
      holds.push_back({cpu, start, start + len});
      if (holds.size() > kRing) holds.pop_front();
      clock += static_cast<u64>(rng.uniform(0, 300));
      for (int q = 0; q < 4; ++q) {
        const u32 qcpu = static_cast<u32>(rng.uniform(0, 3));
        const u64 t = clock - std::min<u64>(
                                  clock, static_cast<u64>(rng.uniform(0, 2'000)));
        u32 hops = 0;
        const u64 want = ref_free_at(holds, qcpu, t, hops);
        ASSERT_EQ(SpinLockModelAccess::free_at(lk, qcpu, t), want)
            << "record " << i << " cpu " << qcpu << " t " << t;
        covered += hops > 0 ? 1 : 0;
        convoys += hops > 1 ? 1 : 0;
      }
    }
    EXPECT_GT(covered, 1'000u) << "too few queries landed inside a hold";
    EXPECT_GT(convoys, 100u) << "too few multi-hop convoys";
  }
}

}  // namespace
}  // namespace dss::db
