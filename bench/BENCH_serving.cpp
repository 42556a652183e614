// BENCH_serving — multi-stream serving capacity scoreboard (DESIGN.md §13).
//
// For each machine and each simulated CPU count (--cpus, default 8,16,32)
// the bench calibrates the per-query service-time ladder once, then drives
// the admission/queueing layer through an open-loop offered-load sweep plus
// one closed-loop client population, reporting TPC-H-throughput-style
// achieved QphH and per-session end-to-end latency percentiles. The
// load-vs-p99 table makes the capacity knee visible; the exported machine
// metrics at each operating point explain it (which memory-system component
// saturated).
//
// Everything here is simulated and deterministic: the latency distribution
// is a pure function of (--scale, --seed, --sessions, --arrival, ...) and
// is bit-identical at every --jobs value. That is what lets
// `bench/BENCH_serving.json` be a committed baseline that CI diffs exactly
// (`dss_report --ci-gate --metric serving.p99_ms`).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/serving.hpp"

namespace dss::bench {
namespace {

/// The offered-load sweep when --target-load is not given: well below the
/// knee, approaching it, and just under saturation.
const std::vector<double> kLoadSweep = {0.3, 0.6, 0.8, 0.9, 0.95};

std::string fmt2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int BENCH_serving(const core::BenchOptions& opts) {
  std::cout << "(serving scoreboard: scale 1/" << opts.scale_denom << ", seed "
            << opts.seed << ", calibration trials " << opts.trials << ", "
            << opts.sessions << " sessions, jobs "
            << (opts.jobs == 0 ? dss::ThreadPool::default_jobs() : opts.jobs)
            << ")\n";

  // The runner is constructed directly — not via make_runner — because the
  // automatic metrics export would record every calibration-ladder cell;
  // the serving export below carries only the serving cells.
  core::ExperimentRunner runner(core::ScaleConfig{opts.scale_denom}, opts.seed,
                                opts.jobs);

  const std::vector<double> loads = opts.target_load > 0.0
                                        ? std::vector<double>{opts.target_load}
                                        : kLoadSweep;
  const bool run_open = opts.arrival != "closed";
  const bool run_closed = opts.arrival != "open";

  // Each cell is exported as it stands; `serving` carries its queueing side.
  std::vector<core::ExportCell> cells;
  for (perf::Platform platform : {kVClass, kOrigin}) {
    for (u32 cpus : opts.cpus) {
      const core::ServingCalibration calib = core::calibrate_serving(
          runner, platform, tpch::QueryId::Q6, cpus, opts.trials, opts.seed);

      core::ServingConfig cfg;
      cfg.platform = platform;
      cfg.cpus = cpus;
      cfg.sessions = opts.sessions;
      cfg.think_time_ms = opts.think_time_ms;
      cfg.trials = opts.trials;
      cfg.seed = opts.seed;
      auto serve = [&](std::string variant) {
        const core::ServingResult r = core::serve(calib, cfg);
        cells.push_back({.platform = perf::platform_name(platform),
                         .query = tpch::query_name(tpch::QueryId::Q6),
                         .nproc = cpus,
                         .trials = opts.trials,
                         .variant = std::move(variant),
                         .result = r.machine,
                         .serving = r.stats});
      };

      // Open-loop offered-load sweep: the knee table.
      if (run_open) {
        for (double load : loads) {
          cfg.arrival = db::ArrivalMode::kOpen;
          cfg.target_load = load;
          serve("serve:open:load=" + fmt2(load));
        }
      }

      // One closed-loop population: load is self-limiting, so this is the
      // "N clients with think time" view of the same capacity.
      if (run_closed) {
        cfg.arrival = db::ArrivalMode::kClosed;
        cfg.target_load = 0.0;
        serve("serve:closed:sessions=" + std::to_string(opts.sessions));
      }
    }
  }

  Table t({"machine", "cpus", "mode", "load", "QphH", "conc", "p50 ms",
           "p95 ms", "p99 ms", "max queue"});
  for (const core::ExportCell& c : cells) {
    const core::ServingStats& s = *c.serving;
    t.add_row({c.platform, std::to_string(c.nproc), s.arrival,
               s.arrival == "open" ? fmt2(s.target_load) : "-",
               Table::num(s.achieved_qph, 0), fmt2(s.mean_concurrency),
               Table::num(s.p50_ms, 3), Table::num(s.p95_ms, 3),
               Table::num(s.p99_ms, 3), std::to_string(s.max_queue_depth)});
  }
  core::print_figure(std::cout, "BENCH_serving load vs latency", t);

  write_export(opts, cells);

  // Claims: the knee exists (tail latency grows from the lightest to the
  // heaviest offered load), the closed loop conserves queries, and the
  // percentiles are ordered.
  bool knee = true, conserved = true, ordered = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const core::ServingStats& s = *cells[i].serving;
    ordered = ordered && s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms;
    if (s.arrival == "closed") {
      conserved = conserved &&
                  s.queries == static_cast<u64>(s.sessions) *
                                   s.queries_per_session;
    }
  }
  const std::size_t group =
      (run_open ? loads.size() : 0) + (run_closed ? 1 : 0);
  if (run_open && loads.size() > 1) {
    for (std::size_t i = 0; i + loads.size() <= cells.size(); i += group) {
      const auto& lo = *cells[i].serving;
      const auto& hi = *cells[i + loads.size() - 1].serving;
      knee = knee && hi.p99_ms >= lo.p99_ms;
    }
  }
  return bench::report_claims(
      {{"p99 latency grows from the lightest to the heaviest offered load",
        knee},
       {"closed loop completes sessions x queries_per_session queries",
        conserved},
       {"latency percentiles are ordered (p50 <= p95 <= p99)", ordered}});
}

}  // namespace dss::bench
