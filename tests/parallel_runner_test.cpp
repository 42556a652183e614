// The parallel runner's contract: results are bit-identical to the serial
// runner no matter how many worker threads execute the trials.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/run_export.hpp"

namespace dss {
namespace {

using core::ExperimentConfig;
using core::ExperimentRunner;
using core::RunResult;
using core::ScaleConfig;

void expect_identical(const RunResult& a, const RunResult& b) {
  // perf::Counters is an all-u64 aggregate; bitwise equality is exact.
  EXPECT_EQ(std::memcmp(&a.mean, &b.mean, sizeof(perf::Counters)), 0);
  EXPECT_EQ(a.thread_time_cycles, b.thread_time_cycles);
  EXPECT_EQ(a.cpi, b.cpi);
  EXPECT_EQ(a.cycles_per_minstr, b.cycles_per_minstr);
  EXPECT_EQ(a.l1d_misses, b.l1d_misses);
  EXPECT_EQ(a.l2d_misses, b.l2d_misses);
  EXPECT_EQ(a.l1d_per_minstr, b.l1d_per_minstr);
  EXPECT_EQ(a.l2d_per_minstr, b.l2d_per_minstr);
  EXPECT_EQ(a.avg_mem_latency, b.avg_mem_latency);
  EXPECT_EQ(a.vol_ctx_per_minstr, b.vol_ctx_per_minstr);
  EXPECT_EQ(a.invol_ctx_per_minstr, b.invol_ctx_per_minstr);
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  ASSERT_EQ(a.query_result.size(), b.query_result.size());
  for (std::size_t i = 0; i < a.query_result.size(); ++i) {
    EXPECT_EQ(a.query_result[i].key, b.query_result[i].key);
    EXPECT_EQ(a.query_result[i].vals, b.query_result[i].vals);
  }
}

TEST(ParallelRunner, RunIsBitIdenticalAcrossJobCounts) {
  ExperimentRunner serial(ScaleConfig{64}, 5, /*jobs=*/1);
  ExperimentRunner parallel(ScaleConfig{64}, 5, /*jobs=*/4);
  const auto a =
      serial.run(perf::Platform::Origin2000, tpch::QueryId::Q21, 4, 3);
  const auto b =
      parallel.run(perf::Platform::Origin2000, tpch::QueryId::Q21, 4, 3);
  expect_identical(a, b);
}

TEST(ParallelRunner, RunCellsMatchesPerCellSerialRuns) {
  std::vector<ExperimentConfig> cfgs;
  for (auto q : {tpch::QueryId::Q6, tpch::QueryId::Q12}) {
    for (u32 np : {1u, 2u}) {
      ExperimentConfig cfg;
      cfg.platform = perf::Platform::VClass;
      cfg.query = q;
      cfg.nproc = np;
      cfg.trials = 2;
      cfg.scale = ScaleConfig{64};
      cfg.seed = 5;
      cfgs.push_back(cfg);
    }
  }

  ExperimentRunner serial(ScaleConfig{64}, 5, /*jobs=*/1);
  ExperimentRunner parallel(ScaleConfig{64}, 5, /*jobs=*/4);
  const auto batch = parallel.run_cells(cfgs);
  ASSERT_EQ(batch.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    expect_identical(serial.run(cfgs[i]), batch[i]);
  }
}

TEST(ParallelRunner, RunCellsKeepsInputOrderWhateverTheTaskOrder) {
  // run_trials starts the costliest trials first; the results must still
  // come back in input order and identical at any pool size. Widths are
  // given shuffled so the sorted task order differs from the input order.
  std::vector<ExperimentConfig> cfgs;
  const std::pair<tpch::QueryId, u32> cells[] = {
      {tpch::QueryId::Q6, 1}, {tpch::QueryId::Q12, 3},
      {tpch::QueryId::Q6, 2}, {tpch::QueryId::Q12, 1},
      {tpch::QueryId::Q6, 3}};
  for (const auto& [q, np] : cells) {
    ExperimentConfig cfg;
    cfg.platform = perf::Platform::Origin2000;
    cfg.query = q;
    cfg.nproc = np;
    cfg.trials = 2;
    cfg.scale = ScaleConfig{64};
    cfg.seed = 5;
    cfgs.push_back(cfg);
  }

  ExperimentRunner serial(ScaleConfig{64}, 5, /*jobs=*/1);
  ExperimentRunner parallel(ScaleConfig{64}, 5, /*jobs=*/3);
  const auto a = serial.run_cells(cfgs);
  const auto b = parallel.run_cells(cfgs);
  ASSERT_EQ(a.size(), cfgs.size());
  ASSERT_EQ(b.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
    expect_identical(serial.run(cfgs[i]), a[i]);
  }
}

TEST(ParallelRunner, RunCellsRethrowsAWorkerFailureAndStaysUsable) {
  // A cell whose scale denominator is far above the runner's gets a buffer
  // pool smaller than the runner's database, so prewarm throws on a worker.
  // run_cells must rethrow that error instead of deadlocking, and the same
  // runner must then match a fresh one.
  ExperimentRunner runner(ScaleConfig{64}, 5, /*jobs=*/3);
  std::vector<ExperimentConfig> cfgs = {
      runner.cell(perf::Platform::Origin2000, tpch::QueryId::Q6, 1, 2),
      runner.cell(perf::Platform::Origin2000, tpch::QueryId::Q12, 2, 2),
      runner.cell(perf::Platform::VClass, tpch::QueryId::Q6, 2, 2)};
  cfgs[1].scale = ScaleConfig{64 * 64};
  EXPECT_THROW((void)runner.run_cells(cfgs), std::runtime_error);

  cfgs[1].scale = ScaleConfig{64};
  ExperimentRunner fresh(ScaleConfig{64}, 5, /*jobs=*/3);
  const auto a = runner.run_cells(cfgs);
  const auto b = fresh.run_cells(cfgs);
  ASSERT_EQ(a.size(), cfgs.size());
  ASSERT_EQ(b.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
}

TEST(ParallelRunner, CellStampsTheRunnersSettings) {
  // cell() is the one place a cell gets the runner's scale, seed and
  // checker setting; run() and run_mix() go through it too.
  ExperimentRunner runner(ScaleConfig{64}, 7, /*jobs=*/1);
  const ExperimentConfig plain =
      runner.cell(perf::Platform::VClass, tpch::QueryId::Q21, 4, 3);
  EXPECT_EQ(plain.scale.denom, 64u);
  EXPECT_EQ(plain.seed, 7u);
  EXPECT_EQ(plain.trials, 3u);
  EXPECT_EQ(plain.nproc, 4u);
  EXPECT_FALSE(plain.check);
  runner.set_check(true);
  EXPECT_TRUE(
      runner.cell(perf::Platform::VClass, tpch::QueryId::Q21, 4, 3).check);

  runner.set_metrics_export("cell_test",
                            testing::TempDir() + "cell_test_metrics.json");
  (void)runner.run(perf::Platform::Origin2000, tpch::QueryId::Q6, 1, 1);
  (void)runner.run_mix(perf::Platform::Origin2000,
                       {tpch::QueryId::Q6, tpch::QueryId::Q12}, 1);
  ASSERT_NE(runner.metrics_doc(), nullptr);
  ASSERT_EQ(runner.metrics_doc()->cells.size(), 3u);
  for (const auto& c : runner.metrics_doc()->cells) EXPECT_TRUE(c.check);
}

TEST(ParallelRunner, TrialOrderStartsTheCostliestTrialsFirst) {
  // The Fig. 3 grid in its figure order: {V-Class, Origin} x {Q6, Q21, Q12}
  // x {1, 8} processes, two trials each.
  std::vector<ExperimentConfig> cfgs;
  std::vector<std::vector<tpch::QueryId>> queries;
  for (auto pl : {perf::Platform::VClass, perf::Platform::Origin2000}) {
    for (auto q : {tpch::QueryId::Q6, tpch::QueryId::Q21, tpch::QueryId::Q12}) {
      for (u32 np : {1u, 8u}) {
        ExperimentConfig cfg;
        cfg.platform = pl;
        cfg.query = q;
        cfg.nproc = np;
        cfg.trials = 2;
        cfgs.push_back(cfg);
        queries.emplace_back(np, q);
      }
    }
  }
  const std::vector<core::TrialTask> order = core::trial_order(cfgs, queries);
  ASSERT_EQ(order.size(), 24u);
  // Both Q21x8 cells (V-Class cell 3, Origin cell 9) come before every
  // other task, each cell's trials in trial order and equal-cost cells in
  // input order.
  const std::vector<std::pair<u32, u32>> head = {{3, 0}, {3, 1}, {9, 0}, {9, 1}};
  for (std::size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(order[i].cell, head[i].first) << i;
    EXPECT_EQ(order[i].trial, head[i].second) << i;
  }
  // Every cell's trials appear exactly once, in descending cost.
  u64 prev = UINT64_MAX;
  std::vector<u32> seen(cfgs.size(), 0);
  for (const core::TrialTask& t : order) {
    const u64 cost = u64{cfgs[t.cell].nproc} * core::query_cost(cfgs[t.cell].query);
    EXPECT_LE(cost, prev);
    prev = cost;
    EXPECT_EQ(t.trial, seen[t.cell]++);
  }
  for (u32 n : seen) EXPECT_EQ(n, 2u);
}

TEST(ParallelRunner, TrialOrderWeighsAMixCellByItsProcessesQueries) {
  std::vector<ExperimentConfig> cfgs(3);
  const std::vector<std::vector<tpch::QueryId>> queries = {
      {tpch::QueryId::Q6, tpch::QueryId::Q6},    // 2 x Q6
      {tpch::QueryId::Q6, tpch::QueryId::Q21},   // a mix holding one Q21
      {tpch::QueryId::Q12, tpch::QueryId::Q12}};  // 2 x Q12
  for (u32 c = 0; c < 3; ++c) {
    cfgs[c].nproc = 2;
    cfgs[c].trials = 1;
  }
  ASSERT_GT(core::query_cost(tpch::QueryId::Q21),
            core::query_cost(tpch::QueryId::Q12) * 2);
  const std::vector<core::TrialTask> order = core::trial_order(cfgs, queries);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].cell, 1u) << "the mix's Q21 process outweighs 2 x Q12";
  EXPECT_EQ(order[1].cell, 2u);
  EXPECT_EQ(order[2].cell, 0u);
}

TEST(ParallelRunner, SetJobsDoesNotChangeResults) {
  ExperimentRunner r(ScaleConfig{64}, 5, /*jobs=*/1);
  const auto a = r.run(perf::Platform::VClass, tpch::QueryId::Q6, 2, 3);
  r.set_jobs(3);
  const auto b = r.run(perf::Platform::VClass, tpch::QueryId::Q6, 2, 3);
  r.set_jobs(0);  // hardware concurrency
  const auto c = r.run(perf::Platform::VClass, tpch::QueryId::Q6, 2, 3);
  expect_identical(a, b);
  expect_identical(a, c);
}

TEST(ParallelRunner, RunMixIsBitIdenticalAcrossJobCounts) {
  const std::vector<tpch::QueryId> mix = {tpch::QueryId::Q6,
                                          tpch::QueryId::Q21};
  ExperimentRunner serial(ScaleConfig{64}, 5, /*jobs=*/1);
  ExperimentRunner parallel(ScaleConfig{64}, 5, /*jobs=*/4);
  const auto a = serial.run_mix(perf::Platform::Origin2000, mix, 2);
  const auto b = parallel.run_mix(perf::Platform::Origin2000, mix, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

}  // namespace
}  // namespace dss
