// Execution-driven systematic sampling (DESIGN.md §12).
//
// A RefSampler attached to a MachineSim turns a trial into a SMARTS-style
// sampled run: the machine-wide reference stream is divided into units of
// `unit_records` references; every `detail_every`-th unit is a measurement
// window simulated with the full timing model, the `warmup_records`
// references before each window are simulated in detail but not measured
// (detailed warming of the timing-visible microstate), and everything else
// only warms the caches/directory/TLB through MachineSim::warm_batch's
// functional path. Counter deltas over the measurement windows are scaled
// to whole-stream estimates at finalize(), with 95% confidence intervals
// from the per-window spread (util/stats).
//
// The schedule is a pure function of the reference index — no clocks, no
// randomness — so sampled runs are exactly as deterministic as full runs.
#pragma once

#include <cstddef>
#include <vector>

#include "perf/counters.hpp"
#include "util/stats.hpp"

namespace dss::sim {

class MachineSim;

/// Deterministic systematic-sampling schedule. Disabled (every reference
/// detailed) unless `enabled()`.
struct SampleSchedule {
  u64 unit_records = 0;    ///< N: references per sampling unit (0 = off)
  u32 detail_every = 0;    ///< K: every K-th unit is measured in detail
  u64 warmup_records = 0;  ///< W: detailed-unmeasured refs before a window

  [[nodiscard]] bool enabled() const {
    return unit_records > 0 && detail_every > 1;
  }
  /// Fraction of references simulated with the detailed timing model,
  /// (N + W) / (N * K). The acceptance gate asks for <= 1/20.
  [[nodiscard]] double detail_fraction() const {
    if (!enabled()) return 1.0;
    return (static_cast<double>(unit_records) +
            static_cast<double>(warmup_records)) /
           (static_cast<double>(unit_records) *
            static_cast<double>(detail_every));
  }
};

/// Aggregated outcome of one sampled trial: reference accounting for the
/// speedup claim plus per-metric estimates with confidence intervals.
struct ExecSampleSummary {
  u64 total_refs = 0;     ///< machine-wide references issued
  u64 detailed_refs = 0;  ///< references run through the timing model
  u64 measured_refs = 0;  ///< subset inside measurement windows
  u64 windows = 0;        ///< completed measurement windows

  Estimate stall_per_ref;  ///< exposed memory stall cycles per reference
  Estimate l1_per_ref;     ///< L1 data misses per reference
  Estimate l2_per_ref;     ///< last-level misses per reference
  Estimate lat_per_req;    ///< mem latency cycles per memory request
};

/// Per-trial sampling state. Attach with MachineSim::set_sampler(); the
/// machine consults it once per access(). One sampler serves one machine
/// for one run — it is not thread-safe and not reusable.
class RefSampler {
 public:
  RefSampler(const SampleSchedule& sched, u32 nproc);

  /// Machine callback for the next reference issued by `proc`. Returns
  /// true when the reference must run the detailed timing model; snapshots
  /// attached counters at measurement-window boundaries.
  bool on_access(const MachineSim& m, u32 proc);

  /// Close any open window, replace the machine-event counters of each
  /// attached block in `procs` (index = processor) with measured-window
  /// deltas scaled to whole-stream estimates — recomputing `cycles` so
  /// invariant I9 (stack.total() == cycles) holds on the estimates — and
  /// return the summary. Call exactly once, after the run completes.
  ExecSampleSummary finalize(const MachineSim& m,
                             const std::vector<perf::Counters*>& procs);

  [[nodiscard]] const SampleSchedule& schedule() const { return sched_; }

 private:
  enum class Phase : u8 { kWarm, kDetail, kMeasured };
  [[nodiscard]] Phase classify(u64 pos) const;
  /// First reference index after `pos` at which classify() may change:
  /// the next unit start, or the start of the detailed-warming run before
  /// a measured unit.
  [[nodiscard]] u64 phase_end(u64 pos) const;
  void open_window(const MachineSim& m);
  void close_window(const MachineSim& m);

  SampleSchedule sched_;
  u32 nproc_;
  u64 pos_ = 0;            ///< machine-wide reference index
  Phase phase_ = Phase::kWarm;  ///< classify() of every index up to phase_end_
  u64 phase_end_ = 0;           ///< where on_access() reclassifies
  u64 detailed_refs_ = 0;
  u64 measured_refs_ = 0;
  bool measuring_ = false;
  u64 window_refs_ = 0;
  std::vector<u64> proc_total_;     ///< per-proc references issued
  std::vector<u64> proc_measured_;  ///< per-proc measured references
  std::vector<perf::Counters> open_;  ///< per-proc snapshot at window open
  std::vector<perf::Counters> meas_;  ///< accumulated measured deltas
  // Machine-wide per-window samples (parallel vectors, one slot/window).
  std::vector<double> w_refs_;
  std::vector<double> w_stall_;
  std::vector<double> w_l1_;
  std::vector<double> w_l2_;
  std::vector<double> w_lat_;
  std::vector<double> w_req_;
};

}  // namespace dss::sim
