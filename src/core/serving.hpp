// High-throughput multi-stream serving mode (DESIGN.md §13).
//
// The paper measures one DSS query at a time with N worker processes; the
// serving mode turns the same machinery into a capacity-planning tool:
// hundreds to thousands of concurrent sessions submit queries through an
// admission/queueing layer (os/admission.hpp) in front of the executor /
// machine seam, and the report is TPC-H-throughput-style — achieved QphH
// alongside per-session end-to-end latency percentiles (p50/p95/p99).
//
// Two-level simulation, deterministic end to end:
//   1. Calibration — the ExperimentRunner executes the query at a ladder of
//      concurrency levels (1, 2, 4, ... cpus) on the real machine model;
//      each level yields the mean per-query service time *and* the full
//      machine metrics (CPI stack, miss-cause attribution) at that
//      concurrency. Cells fan out over the runner's thread pool and are
//      bit-identical at any --jobs.
//   2. Serving — an event-driven queueing simulation in simulated cycles
//      drives the sessions against `cpus` backends, with per-dispatch
//      service times interpolated from the calibration ladder at the
//      instantaneous in-service count. All randomness (think times, Poisson
//      gaps) is counter-based per session (db/session.hpp), so the latency
//      distribution is a pure function of (config, seed).
//
// The exported cell carries the machine metrics of the calibration level
// nearest the measured mean concurrency — the operating point — so the CPI
// stack and miss-cause breakdown *explain* the latency knee: when p99
// collapses, the attribution shows which memory-system component saturated.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "db/session.hpp"

namespace dss::core {

struct ServingConfig {
  perf::Platform platform = perf::Platform::VClass;
  tpch::QueryId query = tpch::QueryId::Q6;
  /// Simulated CPUs = concurrent query backends = admission width. May
  /// exceed the stock machine's processor count; the machine model is then
  /// widened (more EPACs / nodes of the same design).
  u32 cpus = 8;
  db::ArrivalMode arrival = db::ArrivalMode::kClosed;
  /// Closed loop: client population. Open loop: number of (single-query)
  /// sessions in the arrival plan.
  u32 sessions = 256;
  u32 queries_per_session = 4;  ///< closed loop only
  /// Closed loop: mean exponential think time, simulated milliseconds.
  double think_time_ms = 50.0;
  /// Open loop: offered load as a fraction of the calibrated saturated
  /// capacity cpus / service(cpus). 1.0 ~= saturation; past it the queue
  /// grows without bound and p99 is dominated by queueing.
  double target_load = 0.7;
  u32 trials = 1;  ///< calibration trials per ladder level
  u64 seed = 42;
};

/// How a diff gates one "serving" member: latency tails and queue depth
/// are higher-is-worse, throughput is lower-is-worse; configuration echoes
/// (sessions, target_load, ...) and descriptive statistics
/// (mean_concurrency, offered_qps) are informational.
enum class ServingDir { kHigherWorse, kLowerWorse, kInfo };

/// The serving-side numbers of one serving cell (schema v4 "serving"
/// object). Latencies are end-to-end (queue wait + service) in simulated
/// milliseconds; percentiles are nearest-rank over every completed query.
struct ServingStats {
  std::string arrival;          ///< "closed" | "open"
  u32 sessions = 0;
  u32 cpus = 0;
  u32 queries_per_session = 1;
  u64 queries = 0;              ///< completed queries
  double think_time_ms = 0;     ///< closed loop (0 in open mode)
  double target_load = 0;       ///< open loop (0 in closed mode)
  double offered_qps = 0;       ///< open loop: arrival rate, queries/sec
  double achieved_qph = 0;      ///< completions per simulated hour
  double mean_concurrency = 0;  ///< time-weighted in-service average
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;
  double queue_p99_ms = 0;      ///< p99 of admission-queue wait alone
  u64 max_queue_depth = 0;
  /// Calibration level whose machine metrics the cell reports (the level
  /// nearest mean_concurrency).
  u32 metrics_nproc = 1;

  /// Calls `f(key, member, direction)` for every member, in export order:
  /// the writer, the schema check and the diff's gate all walk it.
  template <class S, class F>
  static void visit(S& s, F&& f) {
    using enum ServingDir;
    f("arrival", s.arrival, kInfo);
    f("sessions", s.sessions, kInfo);
    f("cpus", s.cpus, kInfo);
    f("queries_per_session", s.queries_per_session, kInfo);
    f("queries", s.queries, kInfo);
    f("think_time_ms", s.think_time_ms, kInfo);
    f("target_load", s.target_load, kInfo);
    f("offered_qps", s.offered_qps, kInfo);
    f("achieved_qph", s.achieved_qph, kLowerWorse);
    f("mean_concurrency", s.mean_concurrency, kInfo);
    f("p50_ms", s.p50_ms, kHigherWorse);
    f("p95_ms", s.p95_ms, kHigherWorse);
    f("p99_ms", s.p99_ms, kHigherWorse);
    f("mean_ms", s.mean_ms, kHigherWorse);
    f("max_ms", s.max_ms, kHigherWorse);
    f("queue_p99_ms", s.queue_p99_ms, kHigherWorse);
    f("max_queue_depth", s.max_queue_depth, kHigherWorse);
    f("metrics_nproc", s.metrics_nproc, kInfo);
  }
};

struct ServingResult {
  ServingStats stats;
  /// Machine metrics at the operating point (see metrics_nproc).
  RunResult machine;
};

/// The calibration ladder: per-level machine results and service times for
/// one (platform, query, cpus). Reusable across arrival modes and load
/// levels — BENCH_serving calibrates once per machine and sweeps load.
struct ServingCalibration {
  perf::Platform platform = perf::Platform::VClass;
  tpch::QueryId query = tpch::QueryId::Q6;
  u32 cpus = 1;
  double clock_mhz = 0;
  std::vector<u32> levels;        ///< nproc ladder, ascending, ends at cpus
  std::vector<u64> svc_cycles;    ///< mean per-query service time per level
  std::vector<RunResult> results; ///< machine metrics per level
};

/// Run the calibration ladder (1, 2, 4, ... cpus) through `runner`. Levels
/// above the stock processor count widen the machine model. `seed` drives
/// the per-trial OS start jitter exactly as in the figure experiments.
[[nodiscard]] ServingCalibration calibrate_serving(ExperimentRunner& runner,
                                                   perf::Platform platform,
                                                   tpch::QueryId query,
                                                   u32 cpus, u32 trials,
                                                   u64 seed);

/// The serving simulation alone, against an existing calibration. `cfg`'s
/// (platform, query, cpus, trials) must match the calibration's.
[[nodiscard]] ServingResult serve(const ServingCalibration& calib,
                                  const ServingConfig& cfg);

/// Convenience: calibrate + serve in one call (the ExperimentRunner serving
/// mode). The runner's seed/scale apply to the calibration database; cfg's
/// seed drives the session streams.
[[nodiscard]] ServingResult run_serving(ExperimentRunner& runner,
                                        const ServingConfig& cfg);

}  // namespace dss::core
