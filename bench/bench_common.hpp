// Shared scaffolding for the figure-reproduction bench binaries.
//
// Every binary accepts --scale N (memory-scale denominator, default 16),
// --trials N (default 4, matching the paper), --seed N; prints the figure as
// an aligned table plus a CSV block; and ends with a "paper claims" section
// checking the qualitative statements the figure supports (recorded in
// EXPERIMENTS.md).
#pragma once

#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace dss::bench {

struct Claim {
  std::string text;
  bool holds;
};

inline int report_claims(const std::vector<Claim>& claims) {
  std::cout << "== paper claims ==\n";
  int failures = 0;
  for (const auto& c : claims) {
    std::cout << (c.holds ? "  [reproduced] " : "  [NOT reproduced] ")
              << c.text << '\n';
    failures += !c.holds;
  }
  std::cout << '\n';
  return failures;
}

inline core::ExperimentRunner make_runner(const core::BenchOptions& o) {
  std::cout << "(building TPC-H database at 1/" << o.scale_denom
            << " of the paper's 200 MB configuration, seed " << o.seed
            << ", trials " << o.trials << ", jobs "
            << (o.jobs == 0 ? dss::ThreadPool::default_jobs() : o.jobs)
            << (o.check ? ", invariant checker ON" : "") << ")\n";
  core::ExperimentRunner runner(core::ScaleConfig{o.scale_denom}, o.seed,
                                o.jobs);
  if (!o.metrics_path.empty()) {
    runner.set_metrics_export(o.bench_name, o.metrics_path);
    std::cout << "(exporting run metrics to " << o.metrics_path << ")\n";
  }
  const sim::SampleSchedule sched = o.sample_schedule();
  if (sched.enabled()) {
    runner.set_sampling(sched);
    std::printf(
        "(sampled simulation: N=%llu K=%u W=%llu — %.2f%% of references "
        "detailed; metrics become estimates with 95%% CIs)\n",
        static_cast<unsigned long long>(sched.unit_records),
        sched.detail_every,
        static_cast<unsigned long long>(sched.warmup_records),
        100.0 * sched.detail_fraction());
  }
  if (!o.live_points.empty()) {
    // Live points checkpoint a *replay* stream; the fig/abl binaries are
    // execution-driven and have none. BENCH_refstream handles the flag.
    std::cerr << o.bench_name
              << ": warning: --live-points applies to replay-driven benches "
                 "only; ignored here\n";
  }
  return runner;
}

/// A batch of (platform, query, nproc) cells executed by one `run_cells`
/// call, addressable by coordinates. The map is filled serially after the
/// parallel run completes, so iteration order never depends on threading.
class CellBatch {
 public:
  [[nodiscard]] const core::RunResult& at(perf::Platform pl,
                                          tpch::QueryId q, u32 np) const {
    return cells_.at({static_cast<int>(pl), static_cast<int>(q), np});
  }

  void put(perf::Platform pl, tpch::QueryId q, u32 np, core::RunResult r) {
    cells_[{static_cast<int>(pl), static_cast<int>(q), np}] = std::move(r);
  }

 private:
  std::map<std::tuple<int, int, u32>, core::RunResult> cells_;
};

/// Run every (platform x query x nproc) combination concurrently.
inline CellBatch cell_batch(
    core::ExperimentRunner& runner, const core::BenchOptions& opts,
    const std::vector<u32>& nprocs,
    const std::vector<perf::Platform>& platforms,
    const std::vector<tpch::QueryId>& queries = core::kQueries) {
  std::vector<core::ExperimentConfig> cfgs;
  for (auto pl : platforms) {
    for (auto q : queries) {
      for (u32 np : nprocs) {
        core::ExperimentConfig cfg;
        cfg.platform = pl;
        cfg.query = q;
        cfg.nproc = np;
        cfg.trials = opts.trials;
        cfg.scale = runner.scale();
        cfg.seed = opts.seed;
        cfg.check = opts.check;
        cfgs.push_back(cfg);
      }
    }
  }
  auto results = runner.run_cells(cfgs);
  CellBatch out;
  std::size_t i = 0;
  for (auto pl : platforms) {
    for (auto q : queries) {
      for (u32 np : nprocs) out.put(pl, q, np, std::move(results[i++]));
    }
  }
  return out;
}

/// One platform's (query x nproc) sweep over the paper's process-count
/// series, addressed as `at({query index in core::kQueries, nproc})`.
class SweepResults {
 public:
  SweepResults(perf::Platform platform, CellBatch batch)
      : platform_(platform), batch_(std::move(batch)) {}

  [[nodiscard]] const core::RunResult& at(std::pair<int, u32> key) const {
    return batch_.at(platform_, core::kQueries.at(key.first), key.second);
  }

 private:
  perf::Platform platform_;
  CellBatch batch_;
};

/// Run the full (query x nproc) sweep as one batch of cells on the runner's
/// thread pool. Results are bit-identical to the serial per-cell loop.
inline SweepResults run_sweep(core::ExperimentRunner& runner,
                              perf::Platform platform,
                              const core::BenchOptions& opts) {
  return {platform, cell_batch(runner, opts, core::kProcSeries, {platform})};
}

/// Render one metric of a sweep as the paper's line-chart table: one row per
/// process count, one column per query.
inline Table sweep_table(const SweepResults& sweep,
                         double (*metric)(const core::RunResult&),
                         int precision) {
  // Headers and column count follow core::kQueries, so extending the query
  // list extends every figure table with it.
  std::vector<std::string> headers{"processes"};
  for (auto q : core::kQueries) headers.emplace_back(tpch::query_name(q));
  Table t(std::move(headers));
  for (u32 np : core::kProcSeries) {
    std::vector<std::string> row{std::to_string(np)};
    for (int qi = 0; qi < static_cast<int>(core::kQueries.size()); ++qi) {
      row.push_back(Table::num(metric(sweep.at({qi, np})), precision));
    }
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace dss::bench
