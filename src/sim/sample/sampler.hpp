// Systematic sampling (DESIGN.md §12): the schedule, the window estimator
// and the scaling step both samplers share, plus the execution-driven one.
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
// from the per-window spread (util/stats). sample_replay (sample.hpp) runs
// the same schedule, estimator and scaling over a compiled trace.
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

  /// What an enabled schedule does with one reference.
  enum class Phase : u8 {
    kWarm,      ///< functional warming only
    kDetail,    ///< timing model, unmeasured (the W refs before a window)
    kMeasured,  ///< timing model inside a measurement window
  };
  /// Measurement window of the K-unit group reference `pos` falls in.
  [[nodiscard]] u64 window(u64 pos) const {
    return pos / unit_records / detail_every;
  }
  /// First reference of that group's measured (last) unit.
  [[nodiscard]] u64 window_start(u64 pos) const {
    return (window(pos) * detail_every + detail_every - 1) * unit_records;
  }
  /// Phase of reference `pos`: the group's last unit is measured, and the
  /// `warmup_records` references before it warm in detail.
  [[nodiscard]] Phase phase(u64 pos) const {
    if (pos / unit_records % detail_every == detail_every - 1) {
      return Phase::kMeasured;
    }
    return window_start(pos) - pos <= warmup_records ? Phase::kDetail
                                                     : Phase::kWarm;
  }
  /// End of the same-phase run at `pos`: phase() is constant on
  /// [pos, phase_end(pos)) and changes at phase_end(pos). A measured run is
  /// its unit (one window); a warm run may cross unit edges.
  [[nodiscard]] u64 phase_end(u64 pos) const {
    if (phase(pos) == Phase::kMeasured) {
      return (pos / unit_records + 1) * unit_records;
    }
    const u64 start = window_start(pos);
    return start > warmup_records && pos < start - warmup_records
               ? start - warmup_records
               : start;
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

/// The one window estimator: measured sums per measurement window, keyed by
/// window index. The sums are exact u64s (far below 2^53), so the estimates
/// do not depend on the order windows, processors or shards add in.
class WindowSums {
 public:
  /// Count `refs` measured references in window `w`.
  void add_refs(u64 w, u64 refs) { at(w).refs += refs; }
  /// Add one counter block's measured deltas `cur - base` to window `w`.
  void add_delta(u64 w, const perf::Counters& cur, const perf::Counters& base);
  WindowSums& operator+=(const WindowSums& o);
  /// Set `s.windows` and the four estimates: stratified means of the
  /// per-window rates, weighted by window refs (by requests for latency).
  void estimate(ExecSampleSummary& s) const;

 private:
  struct Window {
    u64 refs = 0, stall = 0, l1 = 0, l2 = 0, lat = 0, req = 0;
  };
  Window& at(u64 w) {
    if (w >= rows_.size()) rows_.resize(w + 1);
    return rows_[w];
  }
  std::vector<Window> rows_;
};

/// The one scaling step: replace the machine-event fields of `c` with
/// `measured`'s scaled by total_refs / measured_refs (zero for a processor
/// no window saw) and set cycles = stack.total(), so invariant I9 holds on
/// the estimates.
void scale_to_stream(perf::Counters& c, const perf::Counters& measured,
                     u64 total_refs, u64 measured_refs);

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

 private:
  using Phase = SampleSchedule::Phase;
  void open_window(const MachineSim& m);
  void close_window(const MachineSim& m);

  SampleSchedule sched_;
  u32 nproc_;
  u64 pos_ = 0;            ///< machine-wide reference index
  Phase phase_ = Phase::kWarm;  ///< phase of every index up to phase_end_
  u64 phase_end_ = 0;           ///< where on_access() asks the schedule again
  u64 detailed_refs_ = 0;
  u64 measured_refs_ = 0;
  bool measuring_ = false;
  u64 window_ = 0;  ///< index of the open window
  u64 window_refs_ = 0;
  std::vector<u64> proc_total_;     ///< per-proc references issued
  std::vector<u64> proc_measured_;  ///< per-proc measured references
  std::vector<perf::Counters> open_;  ///< per-proc snapshot at window open
  std::vector<perf::Counters> meas_;  ///< accumulated measured deltas
  WindowSums sums_;
};

}  // namespace dss::sim
