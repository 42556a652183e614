// Shared scaffolding for the `dss_bench` experiments.
//
// Every experiment prints its figure as an aligned table plus a CSV block
// and ends with a "paper claims" section checking the qualitative
// statements the figure supports (recorded in EXPERIMENTS.md); its exit
// status is the number of claims that do not reproduce.
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
#include "core/run_export.hpp"
#include "sim/machine_configs.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace dss::bench {

inline constexpr perf::Platform kVClass = perf::Platform::VClass;
inline constexpr perf::Platform kOrigin = perf::Platform::Origin2000;

/// An experiment's body; returns the exit status.
using Run = int(const core::BenchOptions&);

/// One registry entry of `dss_bench`: the name (also the export's "bench"
/// label), a one-line description, the flags the experiment reads and its
/// body.
struct Experiment {
  const char* name;
  const char* about;
  core::FlagSet flags;
  Run* run;
};

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
  runner.set_check(o.check);
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
  return runner;
}

/// Write `cells` to the --metrics path as one document, if a path was given.
inline void write_export(const core::BenchOptions& o,
                         std::vector<core::ExportCell> cells) {
  if (o.metrics_path.empty()) return;
  core::write_metrics_file(
      o.metrics_path,
      core::MetricsDoc{o.bench_name, o.scale_denom, o.seed, std::move(cells)});
  std::cout << "(exported run metrics to " << o.metrics_path << ")\n";
}

/// `cfg` on its platform's stock machine model changed by `edit`, labelled
/// `variant` in the export.
template <class Edit>
core::ExperimentConfig machine_variant(core::ExperimentConfig cfg,
                                       std::string variant, Edit edit) {
  sim::MachineConfig mc = sim::config_for(cfg.platform);
  edit(mc);
  cfg.machine_override = std::move(mc);
  cfg.variant = std::move(variant);
  return cfg;
}

/// The results of one cell_batch, keyed by (platform, query, nproc).
using CellBatch =
    std::map<std::tuple<perf::Platform, tpch::QueryId, u32>, core::RunResult>;

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
        cfgs.push_back(runner.cell(pl, q, np, opts.trials));
      }
    }
  }
  std::vector<core::RunResult> results = runner.run_cells(cfgs);
  CellBatch out;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    out.emplace(std::tuple{cfgs[i].platform, cfgs[i].query, cfgs[i].nproc},
                std::move(results[i]));
  }
  return out;
}

/// Figs. 2-4's grid, as one batch: every query at 1 and 8 processes on both
/// machines.
inline CellBatch one_and_eight(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);
  return cell_batch(runner, opts, {1u, 8u}, {kVClass, kOrigin});
}

/// Print Figs. 2-4's pair of tables, (a) at 1 process and (b) at 8, with
/// one row per query: `row(query, V-Class result, Origin result)`.
template <class Row>
void print_one_and_eight(const CellBatch& batch,
                         const std::vector<std::string>& headers,
                         const std::string& title_1,
                         const std::string& title_8, Row row) {
  for (u32 np : {1u, 8u}) {
    Table t(headers);
    for (auto q : core::kQueries) {
      t.add_row(row(q, batch.at({kVClass, q, np}), batch.at({kOrigin, q, np})));
    }
    core::print_figure(std::cout, np == 1 ? title_1 : title_8, t);
  }
}

/// One platform's (query x nproc) sweep over the paper's process-count
/// series, addressed as `at({query index in core::kQueries, nproc})`.
struct SweepResults {
  perf::Platform platform;
  CellBatch batch;

  [[nodiscard]] const core::RunResult& at(std::pair<int, u32> key) const {
    return batch.at({platform, core::kQueries.at(key.first), key.second});
  }
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
                         double core::RunResult::*metric, int precision) {
  // Headers and column count follow core::kQueries, so extending the query
  // list extends every figure table with it.
  std::vector<std::string> headers{"processes"};
  for (auto q : core::kQueries) headers.emplace_back(tpch::query_name(q));
  Table t(std::move(headers));
  for (u32 np : core::kProcSeries) {
    std::vector<std::string> row{std::to_string(np)};
    for (int qi = 0; qi < static_cast<int>(core::kQueries.size()); ++qi) {
      row.push_back(Table::num(sweep.at({qi, np}).*metric, precision));
    }
    t.add_row(std::move(row));
  }
  return t;
}

}  // namespace dss::bench
