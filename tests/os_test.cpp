// OS layer tests: process accounting (thread time vs wall time, context
// switch classes) and the lockstep-window scheduler.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "os/scheduler.hpp"
#include "test_rig.hpp"

namespace dss::os {
namespace {

using dss::testing::small_machine;

TEST(Process, InstrChargesBaseCpi) {
  sim::MachineConfig cfg = small_machine();
  sim::MachineSim m(cfg);
  Process p(m, 0);
  p.instr(1'000'000);
  EXPECT_EQ(p.counters().instructions, 1'000'000u);
  EXPECT_NEAR(static_cast<double>(p.counters().cycles),
              1e6 * cfg.base_cpi, 2.0);
  EXPECT_EQ(p.now(), p.counters().cycles);
}

TEST(Process, InstrFactorSkewsTheCounterNotTheWork) {
  sim::MachineConfig cfg = small_machine();
  cfg.instr_factor = 0.97;
  sim::MachineSim m(cfg);
  Process p(m, 0);
  p.instr(1'000'000);
  EXPECT_NEAR(static_cast<double>(p.counters().instructions), 970'000, 2.0);
}

TEST(Process, MemoryStallAddsCycles) {
  sim::MachineSim m(small_machine());
  Process p(m, 0);
  p.read(sim::kSharedBase, 8);  // cold miss
  EXPECT_GT(p.counters().cycles, 0u);
  EXPECT_EQ(p.counters().l1d_misses, 1u);
}

TEST(Process, SelectSleepAdvancesWallNotThreadTime) {
  sim::MachineSim m(small_machine());
  Process p(m, 0);
  p.instr(1'000);
  const u64 thread_before = p.counters().cycles;
  p.select_sleep(2'000'000);
  EXPECT_EQ(p.counters().cycles, thread_before)
      << "sleep must not accrue thread time";
  EXPECT_GE(p.now(), 2'000'000u);
  EXPECT_EQ(p.counters().vol_ctx_switches, 1u);
  EXPECT_EQ(p.counters().select_sleeps, 1u);
}

TEST(Process, TimeslicePreemptionCountsInvoluntary) {
  sim::MachineConfig cfg = small_machine();
  sim::MachineSim m(cfg);
  Process p(m, 0);
  p.set_timeslice(100'000);
  p.instr(1'000'000);  // ~1.4M cycles -> ~14 quanta
  EXPECT_GE(p.counters().invol_ctx_switches, 10u);
  EXPECT_LE(p.counters().invol_ctx_switches, 20u);
}

TEST(Process, SleepDoesNotSuppressInvoluntaryRate) {
  sim::MachineConfig cfg = small_machine();
  sim::MachineSim m(cfg);
  Process a(m, 0), b(m, 1);
  a.set_timeslice(100'000);
  b.set_timeslice(100'000);
  a.instr(1'000'000);
  for (int i = 0; i < 10; ++i) {
    b.instr(100'000);
    b.select_sleep(1'000'000);
  }
  // b did the same useful work; its involuntary count must be comparable.
  EXPECT_NEAR(static_cast<double>(b.counters().invol_ctx_switches),
              static_cast<double>(a.counters().invol_ctx_switches), 3.0);
}

TEST(Process, ThreadSecondsUsesClockRate) {
  sim::MachineConfig cfg = small_machine();
  cfg.clock_mhz = 200.0;
  sim::MachineSim m(cfg);
  Process p(m, 0);
  p.instr(static_cast<u64>(2e8 / cfg.base_cpi));
  EXPECT_NEAR(p.thread_seconds(), 1.0, 0.01);
}

TEST(Scheduler, RunsAllJobsToCompletion) {
  sim::MachineSim m(small_machine());
  Scheduler sched(10'000);
  int done_count = 0;
  for (u32 i = 0; i < 3; ++i) {
    auto p = std::make_unique<Process>(m, i);
    int* steps = new int(0);
    sched.add(std::move(p), [steps, &done_count](Process& pr) {
      pr.instr(1'000);
      if (++*steps >= 50) {
        ++done_count;
        delete steps;
        return true;
      }
      return false;
    });
  }
  sched.run_all();
  EXPECT_EQ(done_count, 3);
  EXPECT_EQ(sched.job_count(), 3u);
}

TEST(Scheduler, KeepsClocksWithinWindowSkew) {
  sim::MachineSim m(small_machine());
  const u64 window = 5'000;
  Scheduler sched(window);
  // Unequal per-step work but equal totals: the scheduler must keep the
  // clocks aligned while both jobs are live.
  u64 max_skew = 0;
  std::vector<Process*> procs;
  for (u32 i = 0; i < 2; ++i) {
    auto p = std::make_unique<Process>(m, i);
    procs.push_back(p.get());
    const u64 work = (i + 1) * 400;
    const int limit = static_cast<int>(160'000 / work);
    auto steps = std::make_shared<int>(0);
    sched.add(std::move(p),
              [work, steps, limit, &procs, &max_skew](Process& pr) {
      pr.instr(work);
      if (*steps + 8 < limit) {  // only measure while both are clearly live
        const u64 a = procs[0]->now(), b = procs[1]->now();
        max_skew = std::max(max_skew, a > b ? a - b : b - a);
      }
      return ++*steps >= limit;
    });
  }
  sched.run_all();
  // Skew is bounded by one window plus one step's worth of cycles.
  EXPECT_LT(max_skew, window + 2'000);
}

TEST(Scheduler, FinishedJobsDontBlockOthers) {
  sim::MachineSim m(small_machine());
  Scheduler sched(10'000);
  auto p0 = std::make_unique<Process>(m, 0);
  sched.add(std::move(p0), [](Process& pr) {
    pr.instr(10);
    return true;  // finishes immediately
  });
  auto p1 = std::make_unique<Process>(m, 1);
  int* steps = new int(0);
  sched.add(std::move(p1), [steps](Process& pr) {
    pr.instr(5'000);
    if (++*steps >= 20) {
      delete steps;
      return true;
    }
    return false;
  });
  sched.run_all();
  EXPECT_GT(sched.process(1).counters().instructions, 90'000u);
}

TEST(Scheduler, GlobalClockAdvances) {
  sim::MachineSim m(small_machine());
  Scheduler sched(1'000);
  auto p = std::make_unique<Process>(m, 0);
  int* steps = new int(0);
  sched.add(std::move(p), [steps](Process& pr) {
    pr.instr(700);
    if (++*steps >= 10) {
      delete steps;
      return true;
    }
    return false;
  });
  sched.run_all();
  EXPECT_GE(sched.global_cycle(), 9'000u);
}


TEST(Scheduler, RejectsASecondJobOnOneCpu) {
  sim::MachineSim m(small_machine());
  Scheduler sched(10'000);
  const auto step = [](Process&) { return true; };
  sched.add(std::make_unique<Process>(m, 0), step);
  sched.add(std::make_unique<Process>(m, 1), step);
  EXPECT_THROW(sched.add(std::make_unique<Process>(m, 0), step),
               std::invalid_argument);
  EXPECT_EQ(sched.job_count(), 2u);
}

TEST(Scheduler, RunsJobsInReverseAddOrderEachWindow) {
  // The interleaving the golden fixtures pin: within every window the
  // highest CPU runs first.
  sim::MachineSim m(small_machine());
  Scheduler sched(1'000);
  std::vector<u32> trace;
  for (u32 i = 0; i < 3; ++i) {
    sched.add(std::make_unique<Process>(m, i), [&trace](Process& pr) {
      trace.push_back(pr.cpu());
      pr.instr(10'000);  // past the window end: one step per window
      return trace.size() >= 9;
    });
  }
  sched.run_all();
  ASSERT_GE(trace.size(), 3u);
  EXPECT_EQ(std::vector<u32>(trace.begin(), trace.begin() + 3),
            (std::vector<u32>{2, 1, 0}));
}

}  // namespace
}  // namespace dss::os
