#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

#include <optional>

#include "core/run_export.hpp"
#include "os/scheduler.hpp"
#include "sim/check/invariants.hpp"
#include "sim/machine_configs.hpp"
#include "util/rng.hpp"

namespace dss::core {

ExperimentRunner::ExperimentRunner(ScaleConfig scale, u64 seed, u32 jobs)
    : scale_(scale), seed_(seed), jobs_(jobs) {
  tpch::GenConfig gen;
  gen.scale_factor = scale_.scale_factor();
  gen.seed = seed_;
  dbase_ = tpch::build_database(gen);
  // build_database() froze the catalog; trials rely on const-shared reads.
  assert(dbase_->frozen());
}

ExperimentRunner::ExperimentRunner(ExperimentRunner&&) noexcept = default;
ExperimentRunner& ExperimentRunner::operator=(ExperimentRunner&&) noexcept =
    default;

ExperimentRunner::~ExperimentRunner() {
  if (export_ != nullptr && export_dirty_) {
    try {
      write_metrics();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: metrics export failed: %s\n", e.what());
    }
  }
}

void ExperimentRunner::set_metrics_export(std::string bench,
                                          std::string path) {
  export_ = std::make_unique<MetricsDoc>();
  export_->bench = std::move(bench);
  export_->scale_denom = scale_.denom;
  export_->seed = seed_;
  export_path_ = std::move(path);
  export_dirty_ = false;
}

void ExperimentRunner::write_metrics() {
  if (export_ == nullptr) return;
  write_metrics_file(export_path_, *export_);
  export_dirty_ = false;
}

void ExperimentRunner::set_jobs(u32 jobs) {
  if (jobs == jobs_) return;
  jobs_ = jobs;
  pool_.reset();  // re-created at the new width on next use
}

ThreadPool* ExperimentRunner::pool_for(u64 task_count) {
  const u32 want = jobs_ == 0 ? ThreadPool::default_jobs() : jobs_;
  if (want <= 1 || task_count <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() != want) {
    pool_ = std::make_unique<ThreadPool>(want);
  }
  return pool_.get();
}

ExperimentConfig ExperimentRunner::cell(perf::Platform platform,
                                        tpch::QueryId query, u32 nproc,
                                        u32 trials) const {
  ExperimentConfig cfg;
  cfg.platform = platform;
  cfg.query = query;
  cfg.nproc = nproc;
  cfg.trials = trials;
  cfg.scale = scale_;
  cfg.seed = seed_;
  cfg.check = check_;
  return cfg;
}

RunResult ExperimentRunner::run(perf::Platform platform, tpch::QueryId query,
                                u32 nproc, u32 trials) {
  return run(cell(platform, query, nproc, trials));
}

RunResult ExperimentRunner::run(const ExperimentConfig& cfg) {
  return std::move(run_cells({&cfg, 1}).front());
}

RunResult derive_result(const perf::Counters& sum, u64 samples,
                        double mem_lat_sum, double wall_sum, u32 trials,
                        const sim::SampleSchedule& sched,
                        std::span<const sim::ExecSampleSummary> trial_samples) {
  const double nsamp = static_cast<double>(samples);
  RunResult r;
  r.mean = sum;  // totals; the ratios below divide totals directly
  r.thread_time_cycles = static_cast<double>(sum.cycles) / nsamp;
  r.cpi = sum.cpi();
  r.cycles_per_minstr = sum.cycles_per_minstr();
  r.l1d_misses = static_cast<double>(sum.l1d_misses) / nsamp;
  r.l2d_misses = static_cast<double>(sum.l2d_misses) / nsamp;
  r.l1d_per_minstr = sum.l1d_per_minstr();
  r.l2d_per_minstr = sum.l2d_per_minstr();
  r.avg_mem_latency = mem_lat_sum / nsamp;
  r.vol_ctx_per_minstr = sum.vol_ctx_per_minstr();
  r.invol_ctx_per_minstr = sum.invol_ctx_per_minstr();
  r.wall_seconds = wall_sum / trials;
  if (!sched.enabled()) return r;

  // Each summary's half-widths are on one trial's machine-wide totals. Stall
  // cycles are the only estimated component of `cycles` (compute and spin
  // are exact), so the CI on summed cycles is the CI on summed stalls.
  // Trials are independent runs, so half-widths on summed totals combine in
  // quadrature: h = sqrt(sum h_t^2). Each exported metric divides a total
  // (cycles, misses) by an exactly-known denominator (instructions,
  // samples), so its half-width divides the same way.
  r.sampled = true;
  r.sample_unit_records = sched.unit_records;
  r.sample_detail_every = sched.detail_every;
  r.sample_warmup_records = sched.warmup_records;
  auto sq = [](double h) { return h * h; };
  double sq_cycles = 0, sq_l1 = 0, sq_l2 = 0, sq_lat = 0;
  for (const sim::ExecSampleSummary& s : trial_samples) {
    r.sample_total_refs += s.total_refs;
    r.sample_detailed_refs += s.detailed_refs;
    r.sample_measured_refs += s.measured_refs;
    r.sample_windows += s.windows;
    const double refs = static_cast<double>(s.total_refs);
    sq_cycles += sq(s.stall_per_ref.ci_half * refs);
    sq_l1 += sq(s.l1_per_ref.ci_half * refs);
    sq_l2 += sq(s.l2_per_ref.ci_half * refs);
    sq_lat += sq(s.lat_per_req.ci_half);
  }
  const double h_cycles = std::sqrt(sq_cycles);
  const double h_l1 = std::sqrt(sq_l1);
  const double h_l2 = std::sqrt(sq_l2);
  const double instr = static_cast<double>(sum.instructions);
  r.ci_thread_time_cycles = h_cycles / nsamp;
  r.ci_cpi = h_cycles / instr;
  r.ci_cycles_per_minstr = r.ci_cpi * 1e6;
  r.ci_l1d_misses = h_l1 / nsamp;
  r.ci_l2d_misses = h_l2 / nsamp;
  r.ci_l1d_per_minstr = h_l1 / (instr / 1e6);
  r.ci_l2d_per_minstr = h_l2 / (instr / 1e6);
  // Latency is already a per-request average; averaging T independent
  // trial estimates shrinks the half-width by 1/T in quadrature.
  r.ci_avg_mem_latency = std::sqrt(sq_lat) / trials;
  return r;
}

ExperimentRunner::TrialResult ExperimentRunner::run_trial(
    const ExperimentConfig& cfg, std::span<const tpch::QueryId> queries,
    u32 trial) const {
  sim::MachineConfig mc =
      (cfg.machine_override ? *cfg.machine_override
                            : sim::config_for(cfg.platform))
          .scaled(cfg.scale.denom);
  assert(queries.size() == cfg.nproc && cfg.nproc <= mc.num_processors);
  sim::MachineSim machine(mc);
  // The checker attaches before any process touches the machine, so its
  // counter-conservation identities see the machine's whole history. It is
  // observation-only; `access()` results do not change.
  std::optional<sim::check::InvariantChecker> checker;
  if (cfg.check) checker.emplace(machine);
  // Sampled trial: the machine consults the sampler per reference and runs
  // the functional-warming path outside detailed windows. Exclusive with
  // the checker, whose identities do not hold across warmed references.
  std::optional<sim::RefSampler> sampler;
  if (cfg.sample.enabled()) {
    assert(!cfg.check);
    sampler.emplace(cfg.sample, cfg.nproc);
    machine.set_sampler(&*sampler);
  }

  db::RuntimeConfig rc;
  rc.pool_frames = cfg.scale.pool_frames();
  rc.workmem_arena_bytes = cfg.scale.arena_bytes();
  if (cfg.spin_override) rc.spin = *cfg.spin_override;
  db::DbRuntime rt(*dbase_, rc);
  // Attach the runtime's address-class map so misses attribute to DBMS
  // object classes (observation-only; timing and counters are unchanged).
  machine.set_addr_classes(&rt.addr_classes());
  rt.prewarm_all();

  tpch::QueryParams params;
  params.workmem_arena_bytes = cfg.scale.arena_bytes();

  os::Scheduler sched;
  std::vector<std::unique_ptr<tpch::QueryRun>> runs;
  // Per-trial seed derivation: depends only on (config seed, trial index),
  // never on execution order, so any thread can run any trial.
  Rng jitter(cfg.seed * 7919 + trial);
  for (u32 i = 0; i < cfg.nproc; ++i) {
    auto proc = std::make_unique<os::Process>(machine, i);
    // Heavier daemon load as more backends run: slightly shorter quanta.
    proc->set_timeslice(static_cast<u64>(
        static_cast<double>(mc.timeslice_cycles) /
        (1.0 + 0.05 * (cfg.nproc - 1))));
    // Per-trial OS start jitter so trials sample different interleavings
    // (the stand-in for real-machine noise the paper averages away).
    proc->instr(static_cast<u64>(jitter.uniform(0, 40'000)));
    auto q = tpch::make_query(queries[i], rt, *proc, params);
    tpch::QueryRun* qp = q.get();
    runs.push_back(std::move(q));
    sched.add(std::move(proc),
              [qp](os::Process& p) { return qp->step(p); });
  }
  sched.run_all();
  // Closing sweep: the periodic in-run sweeps are sampled, this one is
  // guaranteed. Throws sim::ProtocolViolation on the first violation.
  if (checker) checker->full_sweep();

  TrialResult tr;
  if (sampler) {
    // Replace each process's machine-event counters with measured-window
    // deltas scaled to whole-stream estimates BEFORE they are copied out,
    // so the reduction sees a sampled trial as an ordinary one.
    std::vector<perf::Counters*> procs;
    procs.reserve(cfg.nproc);
    for (u32 i = 0; i < cfg.nproc; ++i) {
      procs.push_back(&sched.process(i).counters());
    }
    tr.sample = sampler->finalize(machine, procs);
  }
  for (u32 i = 0; i < cfg.nproc; ++i) {
    const os::Process& p = sched.process(i);
    tr.counters.push_back(p.counters());
    tr.mem_lat.push_back(p.counters().avg_mem_latency());
    tr.wall.push_back(static_cast<double>(p.now()) / (mc.clock_mhz * 1e6));
    if (trial == 0) tr.results.push_back(runs[i]->result());
  }
  return tr;
}

u32 query_cost(tpch::QueryId q) {
  // Simulated references (loads + stores) of one process, in thousands, at
  // scale 16 and seed 1 (ext_queries' single-process cells). A process's
  // references do not depend on the platform or on how many run beside it.
  switch (q) {
    case tpch::QueryId::Q1: return 1251;
    case tpch::QueryId::Q3: return 311;
    case tpch::QueryId::Q6: return 608;
    case tpch::QueryId::Q12: return 766;
    case tpch::QueryId::Q14: return 583;
    case tpch::QueryId::Q21: return 4788;
  }
  return 0;  // unreachable
}

std::vector<TrialTask> trial_order(
    std::span<const ExperimentConfig> cfgs,
    std::span<const std::vector<tpch::QueryId>> queries) {
  std::vector<TrialTask> tasks;
  for (u32 c = 0; c < cfgs.size(); ++c) {
    for (u32 t = 0; t < cfgs[c].trials; ++t) tasks.push_back({c, t});
  }
  auto cost = [&queries](u32 cell) {
    u64 sum = 0;
    for (const tpch::QueryId q : queries[cell]) sum += query_cost(q);
    return sum;
  };
  std::stable_sort(tasks.begin(), tasks.end(),
                   [&cost](const TrialTask& a, const TrialTask& b) {
                     return cost(a.cell) > cost(b.cell);
                   });
  return tasks;
}

std::vector<std::vector<ExperimentRunner::TrialResult>>
ExperimentRunner::run_trials(
    std::span<const ExperimentConfig> cfgs,
    std::span<const std::vector<tpch::QueryId>> queries) {
  std::vector<std::vector<TrialResult>> trials(cfgs.size());
  for (u32 c = 0; c < cfgs.size(); ++c) {
    assert(cfgs[c].nproc >= 1 && cfgs[c].trials >= 1);
    assert(!(cfgs[c].check && cfgs[c].sample.enabled()));
    trials[c].resize(cfgs[c].trials);
  }
  // Results land by (cell, trial), so the order changes no output.
  const std::vector<TrialTask> tasks = trial_order(cfgs, queries);
  parallel_for_index(pool_for(tasks.size()), tasks.size(), [&](u64 i) {
    const TrialTask tk = tasks[i];
    trials[tk.cell][tk.trial] =
        run_trial(cfgs[tk.cell], queries[tk.cell], tk.trial);
  });
  return trials;
}

void ExperimentRunner::record(const ExperimentConfig& cfg,
                              tpch::QueryId query, std::string label,
                              const RunResult& r) {
  if (export_ == nullptr) return;
  ExportCell cell;
  cell.platform = perf::platform_name(cfg.platform);
  cell.query = tpch::query_name(query);
  cell.nproc = cfg.nproc;
  cell.trials = cfg.trials;
  // An override without a label of its own is named by its kind.
  const bool named = !label.empty();
  for (const char* o : {cfg.machine_override ? "machine_override" : nullptr,
                        cfg.spin_override ? "spin_override" : nullptr}) {
    if (o == nullptr || named) continue;
    if (!label.empty()) label += "+";
    label += o;
  }
  cell.variant = std::move(label);
  cell.check = cfg.check;
  cell.result = r;
  cell.result.query_result.clear();  // rows are not part of the schema
  export_->cells.push_back(std::move(cell));
  export_dirty_ = true;
}

RunResult ExperimentRunner::reduce(const ExperimentConfig& cfg,
                                   std::vector<TrialResult>& trials,
                                   u32 first, u32 count) {
  // Serial trial order, and process order inside a trial, so the
  // floating-point folds match a `--jobs 1` run exactly. Each (process,
  // trial) pair is one sample; the response time is the slowest process's.
  perf::Counters sum;
  double mem_lat_sum = 0;
  double wall_sum = 0;
  std::vector<sim::ExecSampleSummary> summaries;
  for (const TrialResult& tr : trials) {
    double span = 0;
    for (u32 i = first; i < first + count; ++i) {
      sum += tr.counters[i];
      mem_lat_sum += tr.mem_lat[i];
      span = std::max(span, tr.wall[i]);
    }
    wall_sum += span;
    summaries.push_back(tr.sample);
  }
  RunResult r = derive_result(sum, u64{count} * cfg.trials, mem_lat_sum,
                              wall_sum, cfg.trials, cfg.sample, summaries);
  r.query_result = std::move(trials[0].results[first]);
  return r;
}

std::vector<RunResult> ExperimentRunner::run_cells(
    std::span<const ExperimentConfig> in_cfgs) {
  // Apply the runner-wide sampling default to cells that do not carry their
  // own schedule (see set_sampling()). A cell with an explicit schedule —
  // e.g. a test comparing rates — keeps it.
  std::vector<ExperimentConfig> cfgs(in_cfgs.begin(), in_cfgs.end());
  std::vector<std::vector<tpch::QueryId>> queries;
  for (auto& cfg : cfgs) {
    if (sample_.enabled() && !cfg.sample.enabled()) cfg.sample = sample_;
    queries.emplace_back(cfg.nproc, cfg.query);
  }
  std::vector<std::vector<TrialResult>> trials = run_trials(cfgs, queries);
  std::vector<RunResult> out;
  out.reserve(cfgs.size());
  for (u32 c = 0; c < cfgs.size(); ++c) {
    out.push_back(reduce(cfgs[c], trials[c], 0, cfgs[c].nproc));
    record(cfgs[c], cfgs[c].query, cfgs[c].variant, out.back());
  }
  return out;
}

std::vector<RunResult> ExperimentRunner::run_mix(
    perf::Platform platform, const std::vector<tpch::QueryId>& mix,
    u32 trials) {
  assert(!mix.empty() && trials >= 1);
  ExperimentConfig cfg =
      cell(platform, mix.front(), static_cast<u32>(mix.size()), trials);
  cfg.sample = sample_;
  std::vector<TrialResult> per_trial =
      std::move(run_trials({&cfg, 1}, {&mix, 1}).front());
  // Each process is reduced alone. The sampler's spread is machine-wide (a
  // heterogeneous mix has no per-process window samples to separate it), so
  // every process carries the machine-wide half-width — conservative, since
  // one process contributes at most the machine-wide stall/misses.
  std::vector<RunResult> out;
  for (u32 i = 0; i < cfg.nproc; ++i) {
    out.push_back(reduce(cfg, per_trial, i, 1));
    record(cfg, mix[i], "mix[" + std::to_string(i) + "]", out.back());
  }
  return out;
}

}  // namespace dss::core
