// Sampled simulation (DESIGN.md §12): the sampled replay driver and the
// execution-driven sampling path through the experiment runner.
//
// Contracts under test:
//   - sample_replay refuses a disabled schedule (full detail is
//     replay_batched);
//   - sampled results are bit-identical across shard counts and pools;
//   - sampled estimates land near full-detail truth at a large reduction
//     in detailed references;
//   - the runner's sampled trials produce estimates, CIs and accounting.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "core/experiment.hpp"
#include "perf/counters.hpp"
#include "sim/batch.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "sim/refstream.hpp"
#include "sim/sample/sample.hpp"
#include "sim/sample/sampler.hpp"
#include "util/threadpool.hpp"

namespace dss::sim {
namespace {

std::vector<TraceRecord> test_stream(RefPattern pattern, u64 records,
                                     u64 seed = 7) {
  RefStreamConfig rc;
  rc.pattern = pattern;
  rc.records = records;
  rc.seed = seed;
  return make_refstream(rc);
}

void expect_counters_identical(const std::vector<perf::Counters>& a,
                               const std::vector<perf::Counters>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    EXPECT_EQ(a[p].cycles, b[p].cycles) << "proc " << p;
    EXPECT_EQ(a[p].instructions, b[p].instructions) << "proc " << p;
    EXPECT_EQ(a[p].l1d_misses, b[p].l1d_misses) << "proc " << p;
    EXPECT_EQ(a[p].l2d_misses, b[p].l2d_misses) << "proc " << p;
    EXPECT_EQ(a[p].mem_requests, b[p].mem_requests) << "proc " << p;
    EXPECT_EQ(a[p].mem_latency_cycles, b[p].mem_latency_cycles)
        << "proc " << p;
    EXPECT_EQ(a[p].tlb_misses, b[p].tlb_misses) << "proc " << p;
    EXPECT_DOUBLE_EQ(a[p].stack.total(), b[p].stack.total()) << "proc " << p;
  }
}

/// Machine-wide cycles per instruction of a replay's merged counters.
double cpi_of(const std::vector<perf::Counters>& counters) {
  u64 cycles = 0, instr = 0;
  for (const auto& c : counters) {
    cycles += c.cycles;
    instr += c.instructions;
  }
  return static_cast<double>(cycles) / static_cast<double>(instr);
}

TEST(SampleReplay, DisabledScheduleThrows) {
  const auto recs = test_stream(RefPattern::kMixed, 1'000);
  const MachineConfig cfg = origin2000().scaled(64);
  SampleReplayStats st;
  for (const SampleSchedule& off : {SampleSchedule{}, SampleSchedule{500, 1, 0},
                                    SampleSchedule{0, 10, 200}}) {
    EXPECT_THROW((void)sample_replay(cfg, recs, off, {}, &st),
                 std::invalid_argument);
  }
}

TEST(SampleReplay, BitIdenticalAcrossShardsAndPools) {
  const auto recs = test_stream(RefPattern::kPointerChase, 40'000);
  const MachineConfig cfg = origin2000().scaled(64);
  SampleSchedule sched;
  sched.unit_records = 1000;
  sched.detail_every = 5;
  sched.warmup_records = 500;

  SampleReplayOptions base;
  base.shards = 1;
  SampleReplayStats st1;
  const auto s1 = sample_replay(cfg, recs, sched, base, &st1);

  ThreadPool pool(4);
  SampleReplayOptions wide;
  wide.shards = 4;
  wide.pool = &pool;
  SampleReplayStats st4;
  const auto s4 = sample_replay(cfg, recs, sched, wide, &st4);

  expect_counters_identical(s1, s4);
  EXPECT_EQ(st1.detailed_refs, st4.detailed_refs);
  EXPECT_EQ(st1.windows, st4.windows);
  EXPECT_DOUBLE_EQ(cpi_of(s1), cpi_of(s4));
  EXPECT_DOUBLE_EQ(st1.stall_per_ref.mean, st4.stall_per_ref.mean);
  EXPECT_DOUBLE_EQ(st1.stall_per_ref.ci_half, st4.stall_per_ref.ci_half);
}

TEST(SampleReplay, EstimatesNearFullDetailAtLargeReduction) {
  const auto recs = test_stream(RefPattern::kSeqScan, 120'000);
  const MachineConfig cfg = vclass().scaled(64);

  const auto full = replay_batched(cfg, recs, {});
  const double full_cpi = cpi_of(full);

  SampleSchedule sched;
  sched.unit_records = 500;
  sched.detail_every = 40;
  sched.warmup_records = 500;
  SampleReplayStats st;
  const auto sampled = sample_replay(cfg, recs, sched, {}, &st);

  // >= 20x fewer detailed references, CPI estimate within 3% of truth.
  EXPECT_GE(static_cast<double>(st.total_refs),
            20.0 * static_cast<double>(st.detailed_refs));
  EXPECT_GT(st.windows, 2u);
  EXPECT_NEAR(cpi_of(sampled), full_cpi, 0.03 * full_cpi);

  // Instructions are exact (compile-pass accounting), never estimated.
  u64 sampled_instr = 0, full_instr = 0;
  for (const auto& c : sampled) sampled_instr += c.instructions;
  for (const auto& c : full) full_instr += c.instructions;
  EXPECT_EQ(sampled_instr, full_instr);
}

TEST(ExecSampling, SamplerPhasesFollowTheSchedule) {
  // SampleSchedule::phase is the closed form at every reference, constant
  // on [pos, phase_end(pos)) and different at phase_end(pos), and
  // RefSampler::on_access, which asks the schedule only at phase_end, gives
  // every reference its phase. Schedules cover no warming, warming shorter
  // than, equal to and longer than a unit, and warming longer than the
  // whole lead-in to the first window.
  using Phase = SampleSchedule::Phase;
  MachineSim m(config_for(perf::Platform::VClass).scaled(256));
  const SampleSchedule scheds[] = {{10, 4, 0},  {10, 4, 3},  {10, 4, 10},
                                   {10, 4, 25}, {7, 3, 100}, {1, 2, 0},
                                   {5, 2, 4},   {3, 5, 1}};
  for (const SampleSchedule& sc : scheds) {
    SCOPED_TRACE(testing::Message() << "N=" << sc.unit_records << " K="
                                    << sc.detail_every
                                    << " W=" << sc.warmup_records);
    RefSampler s(sc, 1);
    for (u64 pos = 0; pos < 600; ++pos) {
      const u64 unit = pos / sc.unit_records;
      const u64 k = sc.detail_every;
      const u64 next_window = ((unit / k) * k + k - 1) * sc.unit_records;
      const Phase want = unit % k == k - 1 ? Phase::kMeasured
                         : next_window - pos <= sc.warmup_records
                             ? Phase::kDetail
                             : Phase::kWarm;
      ASSERT_EQ(sc.phase(pos), want) << "reference " << pos;
      const u64 end = sc.phase_end(pos);
      ASSERT_GT(end, pos) << "reference " << pos;
      for (u64 q = pos + 1; q < end; ++q) {
        ASSERT_EQ(sc.phase(q), want) << "reference " << q << " of run " << pos;
      }
      ASSERT_NE(sc.phase(end), want) << "run end " << end << " of " << pos;
      ASSERT_EQ(s.on_access(m, 0), want != Phase::kWarm) << "reference " << pos;
    }
  }
}

}  // namespace
}  // namespace dss::sim

namespace dss::core {
namespace {

TEST(ExecSampling, RunnerProducesEstimatesAndAccounting) {
  ExperimentRunner runner(ScaleConfig{256}, 42, 1);

  ExperimentConfig cfg;
  cfg.platform = perf::Platform::Origin2000;
  cfg.query = tpch::QueryId::Q6;
  cfg.nproc = 2;
  cfg.trials = 1;
  cfg.scale = runner.scale();

  const RunResult full = runner.run(cfg);
  ASSERT_FALSE(full.sampled);
  EXPECT_DOUBLE_EQ(full.ci_cpi, 0.0);

  cfg.sample.unit_records = 1000;
  cfg.sample.detail_every = 10;
  cfg.sample.warmup_records = 1000;
  const RunResult sampled = runner.run(cfg);

  ASSERT_TRUE(sampled.sampled);
  EXPECT_EQ(sampled.sample_unit_records, 1000u);
  EXPECT_EQ(sampled.sample_detail_every, 10u);
  EXPECT_GT(sampled.sample_total_refs, 0u);
  EXPECT_GT(sampled.sample_windows, 0u);
  EXPECT_LT(sampled.sample_detailed_refs, sampled.sample_total_refs);
  EXPECT_GE(sampled.ci_cpi, 0.0);
  EXPECT_GE(sampled.ci_avg_mem_latency, 0.0);

  // The sampled CPI estimate tracks the full-detail run. The query and its
  // instruction stream are identical; only memory-event counters are
  // estimated. 5% is loose — the accuracy gate proper lives in CI against
  // the fig3/fig6 goldens at tuned schedules.
  EXPECT_NEAR(sampled.cpi, full.cpi, 0.05 * full.cpi);

  // Identical sampled runs are deterministic.
  const RunResult again = runner.run(cfg);
  EXPECT_DOUBLE_EQ(sampled.cpi, again.cpi);
  EXPECT_DOUBLE_EQ(sampled.ci_cpi, again.ci_cpi);
  EXPECT_EQ(sampled.sample_detailed_refs, again.sample_detailed_refs);
}

TEST(ExecSampling, RunnerDefaultScheduleAppliesToCells) {
  ExperimentRunner runner(ScaleConfig{256}, 42, 1);
  sim::SampleSchedule sched;
  sched.unit_records = 1000;
  sched.detail_every = 10;
  sched.warmup_records = 500;
  runner.set_sampling(sched);

  const RunResult r = runner.run(perf::Platform::VClass, tpch::QueryId::Q6,
                                 /*nproc=*/1, /*trials=*/1);
  EXPECT_TRUE(r.sampled);
  EXPECT_EQ(r.sample_unit_records, 1000u);
  EXPECT_GT(r.sample_windows, 0u);
}

}  // namespace
}  // namespace dss::core
