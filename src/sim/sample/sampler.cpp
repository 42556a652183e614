#include "sim/sample/sampler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/machine.hpp"

namespace dss::sim {

RefSampler::RefSampler(const SampleSchedule& sched, u32 nproc)
    : sched_(sched),
      nproc_(nproc),
      proc_total_(nproc, 0),
      proc_measured_(nproc, 0),
      open_(nproc),
      meas_(nproc) {
  assert(sched_.enabled());
}

RefSampler::Phase RefSampler::classify(u64 pos) const {
  const u64 n = sched_.unit_records;
  const u64 k = sched_.detail_every;
  const u64 unit = pos / n;
  if (unit % k == k - 1) return Phase::kMeasured;
  // Distance to the start of the next measured unit; within the last
  // `warmup_records` references the timing-visible microstate (MSHR-less
  // here, but queue estimates and LRU depth) warms in detail, unmeasured.
  const u64 next_measured_unit = (unit / k) * k + (k - 1);
  const u64 dist = next_measured_unit * n - pos;
  return dist <= sched_.warmup_records ? Phase::kDetail : Phase::kWarm;
}

u64 RefSampler::phase_end(u64 pos) const {
  const u64 n = sched_.unit_records;
  const u64 k = sched_.detail_every;
  const u64 unit = pos / n;
  const u64 unit_end = (unit + 1) * n;
  if (unit % k == k - 1) return unit_end;
  // In an unmeasured unit the phase is kWarm until the distance to the next
  // measured unit drops to `warmup_records`, then kDetail to the unit end.
  const u64 next_measured_start = ((unit / k) * k + (k - 1)) * n;
  const u64 w = sched_.warmup_records;
  if (next_measured_start > w && pos < next_measured_start - w) {
    return std::min(unit_end, next_measured_start - w);
  }
  return unit_end;
}

bool RefSampler::on_access(const MachineSim& m, u32 proc) {
  // The phase is constant between boundaries, so classify() — three
  // divisions — runs once per phase run rather than once per reference.
  if (pos_ == phase_end_) {
    phase_ = classify(pos_);
    phase_end_ = phase_end(pos_);
  }
  const Phase ph = phase_;
  if (ph == Phase::kMeasured) {
    if (!measuring_) open_window(m);
    ++measured_refs_;
    ++proc_measured_[proc];
    ++window_refs_;
    ++detailed_refs_;
  } else {
    if (measuring_) close_window(m);
    if (ph == Phase::kDetail) ++detailed_refs_;
  }
  ++pos_;
  ++proc_total_[proc];
  return ph != Phase::kWarm;
}

void RefSampler::open_window(const MachineSim& m) {
  for (u32 p = 0; p < nproc_; ++p) {
    const perf::Counters* c = m.attached_counters(p);
    open_[p] = c != nullptr ? *c : perf::Counters{};
  }
  window_refs_ = 0;
  measuring_ = true;
}

void RefSampler::close_window(const MachineSim& m) {
  double stall = 0.0;
  double l1 = 0.0;
  double l2 = 0.0;
  double lat = 0.0;
  double req = 0.0;
  for (u32 p = 0; p < nproc_; ++p) {
    const perf::Counters* cp = m.attached_counters(p);
    if (cp == nullptr) continue;
    const perf::Counters& cur = *cp;
    const perf::Counters& base = open_[p];
    perf::for_each_machine_field(
        [](u64& d, u64 c, u64 b) { d += c - b; }, meas_[p], cur, base);
    stall += static_cast<double>(cur.stack.mem_stall() -
                                 base.stack.mem_stall());
    l1 += static_cast<double>(cur.l1d_misses - base.l1d_misses);
    l2 += static_cast<double>(cur.l2d_misses - base.l2d_misses);
    lat += static_cast<double>(cur.mem_latency_cycles -
                               base.mem_latency_cycles);
    req += static_cast<double>(cur.mem_requests - base.mem_requests);
  }
  w_refs_.push_back(static_cast<double>(window_refs_));
  w_stall_.push_back(stall);
  w_l1_.push_back(l1);
  w_l2_.push_back(l2);
  w_lat_.push_back(lat);
  w_req_.push_back(req);
  measuring_ = false;
}

ExecSampleSummary RefSampler::finalize(
    const MachineSim& m, const std::vector<perf::Counters*>& procs) {
  if (measuring_) close_window(m);

  ExecSampleSummary s;
  s.total_refs = pos_;
  s.detailed_refs = detailed_refs_;
  s.measured_refs = measured_refs_;
  s.windows = w_refs_.size();

  std::vector<double> stall_rate;
  std::vector<double> l1_rate;
  std::vector<double> l2_rate;
  std::vector<double> lat_rate;
  stall_rate.reserve(w_refs_.size());
  for (std::size_t i = 0; i < w_refs_.size(); ++i) {
    const double refs = w_refs_[i];
    stall_rate.push_back(w_stall_[i] / refs);
    l1_rate.push_back(w_l1_[i] / refs);
    l2_rate.push_back(w_l2_[i] / refs);
    lat_rate.push_back(w_req_[i] > 0.0 ? w_lat_[i] / w_req_[i] : 0.0);
  }
  s.stall_per_ref = stratified_mean(stall_rate, w_refs_);
  s.l1_per_ref = stratified_mean(l1_rate, w_refs_);
  s.l2_per_ref = stratified_mean(l2_rate, w_refs_);
  s.lat_per_req = stratified_mean(lat_rate, w_req_);

  // Scale the measured deltas to whole-stream estimates per processor and
  // install them over the attached counter blocks. A processor that issued
  // references but never landed in a window keeps zero machine-event
  // estimates (possible only with pathological schedules; the experiment
  // layer validates N*K against the expected stream length).
  for (u32 p = 0; p < nproc_ && p < procs.size(); ++p) {
    if (procs[p] == nullptr) continue;
    perf::Counters& c = *procs[p];
    const double f =
        proc_measured_[p] > 0
            ? static_cast<double>(proc_total_[p]) /
                  static_cast<double>(proc_measured_[p])
            : 0.0;
    perf::for_each_machine_field(
        [f](u64& out, u64 m) {
          out = static_cast<u64>(std::llround(static_cast<double>(m) * f));
        },
        c, meas_[p]);
    // Re-establish I9 on the estimates: compute/spin/sched are exact, the
    // memory-side components were just replaced by scaled estimates.
    c.cycles = c.stack.total();
  }
  return s;
}

}  // namespace dss::sim
