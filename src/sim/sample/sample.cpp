#include "sim/sample/sample.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>

#include "sim/machine.hpp"

namespace dss::sim {

namespace {

enum class Ph : u8 { kWarm, kDetail, kMeasured };

/// Phase of compiled ref `pos` under the schedule — the same arithmetic as
/// RefSampler::classify, over compiled BatchRef indices instead of access()
/// calls (the replay core's stream is the compiled stream).
[[nodiscard]] Ph phase_of(const SampleSchedule& sched, u64 pos) {
  const u64 n = sched.unit_records;
  const u64 k = sched.detail_every;
  const u64 unit = pos / n;
  if (unit % k == k - 1) return Ph::kMeasured;
  const u64 next_measured_unit = (unit / k) * k + (k - 1);
  const u64 dist = next_measured_unit * n - pos;
  return dist <= sched.warmup_records ? Ph::kDetail : Ph::kWarm;
}

/// End of the same-phase run of compiled refs that starts at `pos`:
/// phase_of is constant on [pos, end), and so is the window inside a
/// measured unit.
[[nodiscard]] u64 phase_run_end(const SampleSchedule& sched, u64 pos) {
  const u64 n = sched.unit_records;
  const u64 k = sched.detail_every;
  const u64 unit = pos / n;
  if (unit % k == k - 1) return (unit + 1) * n;
  const u64 measured_start = ((unit / k) * k + (k - 1)) * n;
  const u64 detail_start = measured_start > sched.warmup_records
                               ? measured_start - sched.warmup_records
                               : 0;
  return pos < detail_start ? detail_start : measured_start;
}

/// One contiguous same-phase run of a shard's sub-stream.
struct Seg {
  Ph phase;
  u32 window;      ///< measurement-window index (kMeasured only)
  std::size_t lo;  ///< [lo, hi) into the shard's refs
  std::size_t hi;
};

/// Per-shard per-window accumulators, summed across shards after every
/// shard finishes, in fixed index order (deterministic at any pool/shard
/// count).
struct WindowSums {
  std::vector<double> stall;  ///< cycles folded by the machine (stall sum)
  std::vector<double> l1;
  std::vector<double> l2;
  std::vector<double> lat;
  std::vector<double> req;
  explicit WindowSums(std::size_t n)
      : stall(n, 0.0), l1(n, 0.0), l2(n, 0.0), lat(n, 0.0), req(n, 0.0) {}
};

/// Full-detail fallback for a disabled schedule: plain replay_batched with
/// point estimates (zero-width intervals) so callers see one shape.
std::vector<perf::Counters> full_detail(const MachineConfig& cfg,
                                        const std::vector<TraceRecord>& records,
                                        const SampleReplayOptions& opts,
                                        SampleReplayStats* stats) {
  ReplayOptions ropts;
  ropts.shards = opts.shards;
  ropts.pool = opts.pool;
  ropts.compile_cache = opts.compile_cache;
  ReplayStats rstats;
  std::vector<perf::Counters> result = replay_batched(cfg, records, ropts,
                                                      &rstats);
  if (stats != nullptr) {
    *stats = SampleReplayStats{};
    stats->records = rstats.records;
    stats->total_refs = rstats.line_refs;
    stats->detailed_refs = rstats.line_refs;
    stats->measured_refs = rstats.line_refs;
    stats->shards_used = rstats.shards_used;
    u64 cycles = 0;
    u64 instr = 0;
    u64 stall = 0;
    u64 l1 = 0;
    u64 l2 = 0;
    u64 lat = 0;
    u64 req = 0;
    for (const perf::Counters& c : result) {
      cycles += c.cycles;
      instr += c.instructions;
      stall += c.stack.mem_stall();
      l1 += c.l1d_misses;
      l2 += c.l2d_misses;
      lat += c.mem_latency_cycles;
      req += c.mem_requests;
    }
    const auto point = [](double num, double den) {
      Estimate e;
      e.mean = den != 0.0 ? num / den : 0.0;
      e.n = 1;
      return e;
    };
    const auto refs = static_cast<double>(rstats.line_refs);
    stats->stall_per_ref = point(static_cast<double>(stall), refs);
    stats->l1_per_ref = point(static_cast<double>(l1), refs);
    stats->l2_per_ref = point(static_cast<double>(l2), refs);
    stats->lat_per_req =
        point(static_cast<double>(lat), static_cast<double>(req));
    stats->cpi = point(static_cast<double>(cycles), static_cast<double>(instr));
  }
  return result;
}

}  // namespace

std::vector<perf::Counters> sample_replay(const MachineConfig& cfg,
                                          const std::vector<TraceRecord>& records,
                                          const SampleSchedule& sched,
                                          const SampleReplayOptions& opts,
                                          SampleReplayStats* stats) {
  if (!sched.enabled()) return full_detail(cfg, records, opts, stats);

  const u32 nproc = cfg.num_processors;
  const u32 shards = std::min(std::max(opts.shards, 1u), max_shards(cfg));
  const u32 S = static_cast<u32>(std::bit_floor(shards));

  std::shared_ptr<const CompiledTrace> cached;
  CompiledTrace local;
  if (opts.compile_cache != nullptr) {
    cached = opts.compile_cache->get(cfg, records, 0, opts.pool);
  } else {
    local = compile_trace(cfg, records, 0, opts.pool);
  }
  const CompiledTrace& ct = cached != nullptr ? *cached : local;
  const u64 total_refs = ct.refs.size();

  const u64 units = sched.unit_records == 0
                        ? 0
                        : (total_refs + sched.unit_records - 1) /
                              sched.unit_records;
  const u64 windows = units / sched.detail_every;

  // Cut the compiled stream wherever the phase (or the measurement window)
  // changes, and count the refs each run contributes.
  std::vector<std::size_t> cuts;  ///< [run]: end of the run
  std::vector<Seg> runs;          ///< [run]: phase, window, global [lo, hi)
  for (u64 pos = 0; pos < total_refs;) {
    const u64 end = std::min(phase_run_end(sched, pos), total_refs);
    const auto win =
        static_cast<u32>((pos / sched.unit_records) / sched.detail_every);
    runs.push_back(Seg{phase_of(sched, pos), win, pos, end});
    cuts.push_back(end);
    pos = end;
  }
  std::vector<double> w_refs(windows, 0.0);
  std::vector<u64> tot_proc(nproc, 0);
  std::vector<u64> meas_proc(nproc, 0);
  u64 detailed_refs = 0;
  u64 measured_refs = 0;
  for (const BatchRef& r : ct.refs) ++tot_proc[r.proc];
  for (const Seg& run : runs) {
    const u64 len = run.hi - run.lo;
    if (run.phase != Ph::kWarm) detailed_refs += len;
    if (run.phase != Ph::kMeasured) continue;
    measured_refs += len;
    w_refs[run.window] += static_cast<double>(len);
    for (std::size_t i = run.lo; i < run.hi; ++i) ++meas_proc[ct.refs[i].proc];
  }

  // Route each ref to its shard, then carve each shard's sub-stream into
  // same-phase segments at the per-shard cut snapshots, in stream order.
  ThreadPool* pool = S > 1 ? opts.pool : nullptr;
  const std::vector<ShardPlan> plans = route_shards(ct, S, cuts, pool);
  std::vector<std::vector<Seg>> work(S);
  for (u32 s = 0; s < S; ++s) {
    std::vector<Seg>& segs = work[s];
    const std::vector<std::size_t>& cut_end = plans[s].cut_end;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::size_t lo = k == 0 ? 0 : cut_end[k - 1];
      const std::size_t hi = cut_end[k];
      if (lo == hi) continue;
      const Ph ph = runs[k].phase;
      const u32 win = runs[k].window;
      if (!segs.empty() && segs.back().hi == lo && segs.back().phase == ph &&
          (ph != Ph::kMeasured || segs.back().window == win)) {
        segs.back().hi = hi;
      } else {
        segs.push_back(Seg{ph, win, lo, hi});
      }
    }
  }

  // Shard machines: TLB handled by the compile pass, contention model off
  // (no epochs in sampled mode — see the header comment).
  MachineConfig shard_cfg = cfg;
  shard_cfg.tlb_entries = 0;
  std::vector<std::unique_ptr<MachineSim>> machines;
  machines.reserve(S);
  std::vector<std::vector<perf::Counters>> shard_ctr(S);
  for (u32 s = 0; s < S; ++s) {
    machines.push_back(std::make_unique<MachineSim>(shard_cfg));
    shard_ctr[s].assign(nproc, perf::Counters{});
  }

  // Warm/detailed interleave. Counters are attached only for measurement
  // windows, so each shard's blocks end up holding exactly the measured
  // sums; detailed-warmup traffic drains into the machine's scratch sink.
  std::vector<WindowSums> sums(S, WindowSums(windows));
  parallel_for_index(pool, S, [&](u64 s) {
    MachineSim& m = *machines[s];
    std::vector<perf::Counters> snap(nproc);
    for (const Seg& seg : work[s]) {
      const BatchRef* refs = plans[s].base + seg.lo;
      const std::size_t n = seg.hi - seg.lo;
      switch (seg.phase) {
        case Ph::kWarm:
          m.warm_batch(refs, n);
          break;
        case Ph::kDetail:
          m.access_batch(refs, n);
          break;
        case Ph::kMeasured: {
          for (u32 p = 0; p < nproc; ++p) {
            snap[p] = shard_ctr[s][p];
            m.attach_counters(p, &shard_ctr[s][p]);
          }
          m.access_batch(refs, n);
          for (u32 p = 0; p < nproc; ++p) {
            m.attach_counters(p, nullptr);
            const perf::Counters& cur = shard_ctr[s][p];
            const perf::Counters& pre = snap[p];
            WindowSums& ws = sums[s];
            // cycles accumulates every exposed stall.
            ws.stall[seg.window] +=
                static_cast<double>(cur.cycles - pre.cycles);
            ws.l1[seg.window] +=
                static_cast<double>(cur.l1d_misses - pre.l1d_misses);
            ws.l2[seg.window] +=
                static_cast<double>(cur.l2d_misses - pre.l2d_misses);
            ws.lat[seg.window] += static_cast<double>(cur.mem_latency_cycles -
                                                      pre.mem_latency_cycles);
            ws.req[seg.window] +=
                static_cast<double>(cur.mem_requests - pre.mem_requests);
          }
          break;
        }
      }
    }
  });

  // Merge per-window samples across shards (fixed index order) and build
  // the stratified estimates, windows weighted by their reference counts.
  std::vector<double> stall_rate(windows, 0.0);
  std::vector<double> l1_rate(windows, 0.0);
  std::vector<double> l2_rate(windows, 0.0);
  std::vector<double> lat_rate(windows, 0.0);
  std::vector<double> req_sum(windows, 0.0);
  for (u64 win = 0; win < windows; ++win) {
    double stall = 0.0;
    double l1 = 0.0;
    double l2 = 0.0;
    double lat = 0.0;
    double req = 0.0;
    for (u32 s = 0; s < S; ++s) {
      stall += sums[s].stall[win];
      l1 += sums[s].l1[win];
      l2 += sums[s].l2[win];
      lat += sums[s].lat[win];
      req += sums[s].req[win];
    }
    const double refs = w_refs[win];
    assert(refs > 0.0);
    stall_rate[win] = stall / refs;
    l1_rate[win] = l1 / refs;
    l2_rate[win] = l2 / refs;
    lat_rate[win] = req > 0.0 ? lat / req : 0.0;
    req_sum[win] = req;
  }

  SampleReplayStats st;
  st.records = ct.records;
  st.total_refs = total_refs;
  st.detailed_refs = detailed_refs;
  st.measured_refs = measured_refs;
  st.windows = windows;
  st.shards_used = S;
  st.stall_per_ref = stratified_mean(stall_rate, w_refs);
  st.l1_per_ref = stratified_mean(l1_rate, w_refs);
  st.l2_per_ref = stratified_mean(l2_rate, w_refs);
  st.lat_per_req = stratified_mean(lat_rate, req_sum);

  // Scale each processor's measured deltas to whole-stream estimates and
  // add the exact serial side (instructions, gap cycles, TLB) the compile
  // pass accounted, exactly as replay_batched's merge does.
  std::vector<perf::Counters> result(nproc);
  for (u32 p = 0; p < nproc; ++p) {
    perf::Counters meas;
    for (u32 s = 0; s < S; ++s) {
      perf::for_each_machine_field([](u64& d, u64 c) { d += c; }, meas,
                                   shard_ctr[s][p]);
      meas.cycles += shard_ctr[s][p].cycles;
    }
    const double f = meas_proc[p] > 0
                         ? static_cast<double>(tot_proc[p]) /
                               static_cast<double>(meas_proc[p])
                         : 0.0;
    perf::Counters& c = result[p];
    perf::for_each_machine_field(
        [f](u64& out, u64 m) {
          out = static_cast<u64>(std::llround(static_cast<double>(m) * f));
        },
        c, meas);
    c.cycles = static_cast<u64>(
        std::llround(static_cast<double>(meas.cycles) * f));
    c.instructions += ct.instr_total[p];
    c.cycles += ct.gap_cycles_total[p] + ct.tlb_stall_total[p];
    c.tlb_misses += ct.tlb_miss_total[p];
    c.stack.compute += ct.gap_cycles_total[p];
    c.stack.tlb += ct.tlb_stall_total[p];
    // I9 on the estimates: the memory-side stack components were scaled
    // per field; make the cycle total their exact sum.
    c.cycles = c.stack.total();
  }

  // Machine-wide CPI estimate: exact serial cycles plus the stall-per-ref
  // estimate scaled to the whole stream, over exact instruction counts.
  u64 total_instr = 0;
  double serial_cycles = 0.0;
  for (u32 p = 0; p < nproc; ++p) {
    total_instr += ct.instr_total[p];
    serial_cycles += static_cast<double>(ct.gap_cycles_total[p] +
                                         ct.tlb_stall_total[p]);
  }
  if (total_instr > 0) {
    const double per_instr =
        static_cast<double>(total_refs) / static_cast<double>(total_instr);
    st.cpi = st.stall_per_ref.scaled(per_instr);
    st.cpi.mean += serial_cycles / static_cast<double>(total_instr);
    st.cpi.cov = st.cpi.mean != 0.0
                     ? std::sqrt(st.cpi.variance) / std::fabs(st.cpi.mean)
                     : 0.0;
  }

  if (stats != nullptr) *stats = st;
  return result;
}

}  // namespace dss::sim
