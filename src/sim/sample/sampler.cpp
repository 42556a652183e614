#include "sim/sample/sampler.hpp"

#include <cassert>
#include <cmath>

#include "sim/machine.hpp"

namespace dss::sim {

void WindowSums::add_delta(u64 w, const perf::Counters& cur,
                           const perf::Counters& base) {
  Window& r = at(w);
  r.stall += cur.stack.mem_stall() - base.stack.mem_stall();
  r.l1 += cur.l1d_misses - base.l1d_misses;
  r.l2 += cur.l2d_misses - base.l2d_misses;
  r.lat += cur.mem_latency_cycles - base.mem_latency_cycles;
  r.req += cur.mem_requests - base.mem_requests;
}

WindowSums& WindowSums::operator+=(const WindowSums& o) {
  if (o.rows_.size() > rows_.size()) rows_.resize(o.rows_.size());
  for (std::size_t w = 0; w < o.rows_.size(); ++w) {
    Window& r = rows_[w];
    const Window& x = o.rows_[w];
    r.refs += x.refs;
    r.stall += x.stall;
    r.l1 += x.l1;
    r.l2 += x.l2;
    r.lat += x.lat;
    r.req += x.req;
  }
  return *this;
}

void WindowSums::estimate(ExecSampleSummary& s) const {
  const std::size_t n = rows_.size();
  std::vector<double> refs(n), req(n), stall(n), l1(n), l2(n), lat(n);
  for (std::size_t w = 0; w < n; ++w) {
    const Window& r = rows_[w];
    assert(r.refs > 0);
    refs[w] = static_cast<double>(r.refs);
    req[w] = static_cast<double>(r.req);
    stall[w] = static_cast<double>(r.stall) / refs[w];
    l1[w] = static_cast<double>(r.l1) / refs[w];
    l2[w] = static_cast<double>(r.l2) / refs[w];
    lat[w] = r.req > 0 ? static_cast<double>(r.lat) / req[w] : 0.0;
  }
  s.windows = n;
  s.stall_per_ref = stratified_mean(stall, refs);
  s.l1_per_ref = stratified_mean(l1, refs);
  s.l2_per_ref = stratified_mean(l2, refs);
  s.lat_per_req = stratified_mean(lat, req);
}

void scale_to_stream(perf::Counters& c, const perf::Counters& measured,
                     u64 total_refs, u64 measured_refs) {
  const double f = measured_refs > 0 ? static_cast<double>(total_refs) /
                                           static_cast<double>(measured_refs)
                                     : 0.0;
  perf::for_each_machine_field(
      [f](u64& out, u64 m) {
        out = static_cast<u64>(std::llround(static_cast<double>(m) * f));
      },
      c, measured);
  // Compute, spin and sched are exact; the memory-side buckets were just
  // replaced by scaled estimates.
  c.cycles = c.stack.total();
}

RefSampler::RefSampler(const SampleSchedule& sched, u32 nproc)
    : sched_(sched),
      nproc_(nproc),
      proc_total_(nproc, 0),
      proc_measured_(nproc, 0),
      open_(nproc),
      meas_(nproc) {
  assert(sched_.enabled());
}

bool RefSampler::on_access(const MachineSim& m, u32 proc) {
  // The phase is constant between boundaries, so the schedule's divisions
  // run once per phase run rather than once per reference.
  if (pos_ == phase_end_) {
    phase_ = sched_.phase(pos_);
    phase_end_ = sched_.phase_end(pos_);
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
  window_ = sched_.window(pos_);
  window_refs_ = 0;
  measuring_ = true;
}

void RefSampler::close_window(const MachineSim& m) {
  sums_.add_refs(window_, window_refs_);
  for (u32 p = 0; p < nproc_; ++p) {
    const perf::Counters* cur = m.attached_counters(p);
    if (cur == nullptr) continue;
    perf::for_each_machine_field(
        [](u64& d, u64 c, u64 b) { d += c - b; }, meas_[p], *cur, open_[p]);
    sums_.add_delta(window_, *cur, open_[p]);
  }
  measuring_ = false;
}

ExecSampleSummary RefSampler::finalize(
    const MachineSim& m, const std::vector<perf::Counters*>& procs) {
  if (measuring_) close_window(m);

  ExecSampleSummary s;
  s.total_refs = pos_;
  s.detailed_refs = detailed_refs_;
  s.measured_refs = measured_refs_;
  sums_.estimate(s);
  // A processor that issued references but never landed in a window keeps
  // zero machine-event estimates (possible only with pathological
  // schedules; the experiment layer validates N*K against the expected
  // stream length).
  for (u32 p = 0; p < nproc_ && p < procs.size(); ++p) {
    if (procs[p] != nullptr) {
      scale_to_stream(*procs[p], meas_[p], proc_total_[p], proc_measured_[p]);
    }
  }
  return s;
}

}  // namespace dss::sim
