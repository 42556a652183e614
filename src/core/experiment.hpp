// The paper's experimental methodology as a library (Section 2.3).
//
// Three orthogonal dimensions: TPC-H query (Q6/Q21/Q12), number of parallel
// query processes (1..8, each bound to its own processor, all running the
// same query), and platform (V-Class or Origin 2000). Each configuration is
// run `trials` times (the paper uses four) with per-trial OS start jitter,
// and metrics are averaged.
//
// Host parallelism: every trial of every configuration cell is an
// independent simulation — it builds its own MachineSim, scheduler, buffer
// pool and counters against the shared *immutable* TPC-H database — so the
// runner executes (cell, trial) tasks on a thread pool. Each trial's seed is
// derived deterministically from (config seed, trial index) exactly as the
// serial code derived it, and per-trial results are reduced in serial trial
// order, so results are bit-identical regardless of `jobs` or thread
// interleaving.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/sample/sampler.hpp"

#include "perf/platform_events.hpp"
#include "tpch/gen.hpp"
#include "tpch/queries.hpp"
#include "util/threadpool.hpp"
#include "util/types.hpp"

namespace dss::core {

/// The memory-scale rule of DESIGN.md §6: database, buffer pool, cache
/// capacities and the private working set all shrink by `denom`; line sizes,
/// latencies and clock rates do not.
struct ScaleConfig {
  u32 denom = 16;

  [[nodiscard]] double scale_factor() const { return 0.2 / denom; }
  [[nodiscard]] u32 pool_frames() const {
    return static_cast<u32>((512ULL * 1024 * 1024 / denom) / 8192);
  }
  [[nodiscard]] u64 arena_bytes() const { return 384ULL * 1024 / denom; }
};

struct ExperimentConfig {
  perf::Platform platform = perf::Platform::VClass;
  tpch::QueryId query = tpch::QueryId::Q6;
  u32 nproc = 1;
  u32 trials = 4;
  ScaleConfig scale;
  u64 seed = 42;
  /// Ablations: replace the platform's stock machine model (given
  /// *unscaled*; the runner applies the scale rule). The platform field
  /// still selects the counter surface.
  std::optional<sim::MachineConfig> machine_override;
  /// Ablations: override the DBMS spinlock backoff policy.
  std::optional<db::SpinPolicy> spin_override;
  /// The cell's export label when it carries an override: names what the
  /// override changes (e.g. "l2=1 MiB"), so the cells of one ablation
  /// have distinct labels.
  std::string variant;
  /// Attach the runtime coherence-invariant checker (sim/check) to every
  /// trial's machine. Observation-only: metrics are bit-identical to an
  /// unchecked run; an invariant violation throws sim::ProtocolViolation.
  /// Mutually exclusive with an enabled `sample` schedule.
  bool check = false;
  /// Sampled simulation (DESIGN.md §12): when enabled(), every trial runs
  /// under a RefSampler — functional warming between deterministic detailed
  /// measurement windows — and the cell's metrics become estimates with
  /// 95% confidence half-widths (RunResult's ci_* fields).
  sim::SampleSchedule sample;
};

/// The measured counters of one cell, plus the derived metrics each figure
/// reports. Count metrics (thread time, misses, latency) average over the
/// result's samples (see derive_result); ratio metrics divide the summed
/// counters.
struct RunResult {
  /// Counter totals, not averages, despite the name: summed over every
  /// process and trial for run_cells, over the process's trials for
  /// run_mix. Divide by the sample count for a mean.
  perf::Counters mean;
  double thread_time_cycles = 0;  ///< Fig. 2
  double cpi = 0;                 ///< Fig. 3
  double cycles_per_minstr = 0;   ///< Figs. 5, 7
  double l1d_misses = 0;          ///< Fig. 4 (HPV D-cache / SGI L1)
  double l2d_misses = 0;          ///< Fig. 4 (SGI L2; 0 on HPV)
  double l1d_per_minstr = 0;      ///< Fig. 8
  double l2d_per_minstr = 0;      ///< Fig. 6
  double avg_mem_latency = 0;     ///< Fig. 9 (cycles per memory request)
  double vol_ctx_per_minstr = 0;  ///< Fig. 10
  double invol_ctx_per_minstr = 0;
  double wall_seconds = 0;        ///< scheduler span (response time)
  std::vector<tpch::ResultRow> query_result;  ///< from process 0, trial 0

  /// Sampled-run provenance and accounting (all zero on full-detail runs).
  /// The schedule is echoed so a metrics document is self-describing;
  /// detailed_refs / total_refs is the measured speedup lever.
  bool sampled = false;
  u64 sample_unit_records = 0;
  u32 sample_detail_every = 0;
  u64 sample_warmup_records = 0;
  u64 sample_total_refs = 0;
  u64 sample_detailed_refs = 0;
  u64 sample_measured_refs = 0;
  u64 sample_windows = 0;

  /// 95% confidence half-widths on the corresponding metrics above,
  /// derived from the per-window spread (util/stats). Zero on full-detail
  /// runs; exported as the cell's "metric_ci" object when sampled.
  double ci_thread_time_cycles = 0;
  double ci_cpi = 0;
  double ci_cycles_per_minstr = 0;
  double ci_l1d_misses = 0;
  double ci_l2d_misses = 0;
  double ci_l1d_per_minstr = 0;
  double ci_l2d_per_minstr = 0;
  double ci_avg_mem_latency = 0;

  /// The cell's "sample" object: calls `f(key, member)` for each member,
  /// in export order. The writer and the schema check both walk it.
  template <class R, class F>
  static void visit_sample(R& r, F&& f) {
    f("unit_records", r.sample_unit_records);
    f("detail_every", r.sample_detail_every);
    f("warmup_records", r.sample_warmup_records);
    f("total_refs", r.sample_total_refs);
    f("detailed_refs", r.sample_detailed_refs);
    f("measured_refs", r.sample_measured_refs);
    f("windows", r.sample_windows);
  }
};

/// One exported metric: its key in the cell's "metrics" object, the
/// RunResult member, and the member holding its 95% half-width in
/// "metric_ci" (nullptr: the metric has no CI).
struct ExportedMetric {
  const char* name;
  double RunResult::*value;
  double RunResult::*ci;
};

/// Every exported metric, in export order.
inline constexpr std::array<ExportedMetric, 11> kExportedMetrics{{
    {"thread_time_cycles", &RunResult::thread_time_cycles,
     &RunResult::ci_thread_time_cycles},
    {"cpi", &RunResult::cpi, &RunResult::ci_cpi},
    {"cycles_per_minstr", &RunResult::cycles_per_minstr,
     &RunResult::ci_cycles_per_minstr},
    {"l1d_misses", &RunResult::l1d_misses, &RunResult::ci_l1d_misses},
    {"l2d_misses", &RunResult::l2d_misses, &RunResult::ci_l2d_misses},
    {"l1d_per_minstr", &RunResult::l1d_per_minstr,
     &RunResult::ci_l1d_per_minstr},
    {"l2d_per_minstr", &RunResult::l2d_per_minstr,
     &RunResult::ci_l2d_per_minstr},
    {"avg_mem_latency", &RunResult::avg_mem_latency,
     &RunResult::ci_avg_mem_latency},
    {"vol_ctx_per_minstr", &RunResult::vol_ctx_per_minstr, nullptr},
    {"invol_ctx_per_minstr", &RunResult::invol_ctx_per_minstr, nullptr},
    {"wall_seconds", &RunResult::wall_seconds, nullptr},
}};

/// The one counters-to-RunResult derivation. `sum` is the counters summed
/// over `samples` per-process measurements, whose avg_mem_latency() values
/// add up to `mem_lat_sum`; `wall_sum` is the response-time span summed over
/// `trials`. Count metrics divide by `samples`, ratio metrics divide the
/// summed counters. When `sched` is enabled the result carries its schedule,
/// the summed reference accounting of `trial_samples` (one summary per
/// trial) and 95% half-widths: per-trial half-widths on machine-wide totals
/// combine in quadrature and divide like their metrics (DESIGN.md §12).
[[nodiscard]] RunResult derive_result(
    const perf::Counters& sum, u64 samples, double mem_lat_sum,
    double wall_sum, u32 trials, const sim::SampleSchedule& sched,
    std::span<const sim::ExecSampleSummary> trial_samples);

/// Relative host cost of one process running `q`: its simulated references
/// per process, in thousands, at scale 16. A deterministic stand-in for host
/// time (no clock): only the ratios between queries matter.
[[nodiscard]] u32 query_cost(tpch::QueryId q);

/// One trial of one cell, the unit of work the runner's pool schedules.
struct TrialTask {
  u32 cell;
  u32 trial;
};

/// The order the runner starts its trials in: every trial of every cell of
/// `cfgs` (`queries[c]` is cell c's per-process query list), costliest
/// first, where a task costs the sum of query_cost() over its cell's
/// processes; equal-cost tasks keep their (cell, trial) input order. A
/// figure pass ends with its longest trial, so the longest start first and
/// the short ones fill the other workers around them.
[[nodiscard]] std::vector<TrialTask> trial_order(
    std::span<const ExperimentConfig> cfgs,
    std::span<const std::vector<tpch::QueryId>> queries);

/// Builds the TPC-H database once per scale and runs experiment
/// configurations against it.
///
/// Thread-safety contract: after construction the owned `db::Database` is
/// frozen (see `Database::freeze()`) and every trial reads it via const
/// reference only; all mutable simulation state (machine, scheduler, DB
/// runtime, counters) is private to one trial. The runner itself is NOT
/// re-entrant — call `run`/`run_cells`/`run_mix` from one thread at a time;
/// internally they fan trials out over the pool.
///
/// The runner only runs cells: it returns their results, keeps no record of
/// them and writes no file. A caller that exports its cells labels them
/// with export_cell()/export_mix() (core/run_export.hpp).
class ExperimentRunner {
 public:
  /// `jobs`: number of worker threads for trial/cell execution; 0 means one
  /// per hardware thread, 1 means serial.
  explicit ExperimentRunner(ScaleConfig scale = {}, u64 seed = 42,
                            u32 jobs = 1);

  /// Change the worker-thread count (0 = hardware concurrency). Results are
  /// independent of this setting by construction.
  void set_jobs(u32 jobs);

  /// Runner-wide sampling default: any run_cells/run_mix configuration that
  /// does not carry its own enabled schedule inherits this one. This is how
  /// `--sample-*` flags reach every cell a bench binary builds, including
  /// the convenience run() overload and the ablation binaries' hand-rolled
  /// configs, without each call site threading the schedule through.
  void set_sampling(const sim::SampleSchedule& sched) { sample_ = sched; }

  /// Runner-wide invariant checker (`--check`): every cell built by cell()
  /// runs under it. A checked cell that is also sampled, by its own
  /// schedule or the runner's, throws std::invalid_argument when run.
  void set_check(bool check) { check_ = check; }

  /// The one cell builder: `nproc` processes of `query` on `platform`, at
  /// `trials` and this runner's scale, seed and checker setting.
  [[nodiscard]] ExperimentConfig cell(perf::Platform platform,
                                      tpch::QueryId query, u32 nproc,
                                      u32 trials) const;

  [[nodiscard]] RunResult run(const ExperimentConfig& cfg);

  /// Run a batch of configuration cells, scheduling every (cell, trial)
  /// task concurrently on the pool. Returns one RunResult per input cell, in
  /// input order, each bit-identical to a serial `run(cfg)`.
  [[nodiscard]] std::vector<RunResult> run_cells(
      std::span<const ExperimentConfig> cfgs);

  /// Convenience: run(cell(platform, query, nproc, trials)).
  [[nodiscard]] RunResult run(perf::Platform platform, tpch::QueryId query,
                              u32 nproc, u32 trials = 4);

  /// Heterogeneous multiprogramming: one process per entry of `mix`, each
  /// running its own query concurrently (Section 4's "different query
  /// processes" reading). Runs `cfg` (cfg.nproc == mix.size(); cfg.query is
  /// not read) as one cell through run_cells' trial tasks, under its
  /// checker setting and its sampling or else the runner's. Returns
  /// per-process results in mix order, each averaged over its own trials; a
  /// sampled result carries the machine-wide half-widths (the sampler cannot
  /// split a heterogeneous mix's spread by process).
  [[nodiscard]] std::vector<RunResult> run_mix(
      const ExperimentConfig& cfg, const std::vector<tpch::QueryId>& mix);

  /// Convenience: run_mix(cell(platform, mix[0], mix.size(), trials), mix).
  [[nodiscard]] std::vector<RunResult> run_mix(
      perf::Platform platform, const std::vector<tpch::QueryId>& mix,
      u32 trials = 4);

  [[nodiscard]] const db::Database& database() const { return *dbase_; }
  [[nodiscard]] const ScaleConfig& scale() const { return scale_; }

 private:
  /// Everything one trial produces, per process in process order; reduced
  /// into RunResults in trial order so floating-point accumulation matches
  /// the serial fold exactly.
  struct TrialResult {
    std::vector<perf::Counters> counters;
    std::vector<double> mem_lat;  ///< avg_mem_latency() per process
    std::vector<double> wall;     ///< per-process span, seconds
    std::vector<std::vector<tpch::ResultRow>> results;  ///< trial 0 only
    sim::ExecSampleSummary sample;  ///< sampled trials only
  };

  /// One independent simulation: process i runs `queries[i]`. Const: shares
  /// only the frozen database.
  [[nodiscard]] TrialResult run_trial(const ExperimentConfig& cfg,
                                      std::span<const tpch::QueryId> queries,
                                      u32 trial) const;

  /// Every (cell, trial) task of `cfgs` on the pool; `queries[c]` is cell
  /// c's per-process query list. Returns trials[cell][trial].
  [[nodiscard]] std::vector<std::vector<TrialResult>> run_trials(
      std::span<const ExperimentConfig> cfgs,
      std::span<const std::vector<tpch::QueryId>> queries);

  /// Reduce processes [first, first + count) of every trial to one result.
  [[nodiscard]] static RunResult reduce(const ExperimentConfig& cfg,
                                        std::vector<TrialResult>& trials,
                                        u32 first, u32 count);

  [[nodiscard]] ThreadPool* pool_for(u64 task_count);

  ScaleConfig scale_;
  u64 seed_;
  u32 jobs_;
  sim::SampleSchedule sample_;  ///< runner-wide default, see set_sampling()
  bool check_ = false;          ///< see set_check()
  std::unique_ptr<db::Database> dbase_;
  std::unique_ptr<ThreadPool> pool_;  ///< lazily created, sized to jobs_
};

}  // namespace dss::core
