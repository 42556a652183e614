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
#include <string>
#include <vector>

#include "core/claims.hpp"
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

using core::Claim;

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

}  // namespace dss::bench
