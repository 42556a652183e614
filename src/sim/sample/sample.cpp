#include "sim/sample/sample.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "sim/machine.hpp"

namespace dss::sim {

namespace {

using Phase = SampleSchedule::Phase;

/// One contiguous same-phase run of the compiled stream, or of a shard's
/// share of it.
struct Seg {
  Phase phase;
  u64 window;      ///< measurement window (kMeasured only)
  std::size_t lo;  ///< [lo, hi) into the stream
  std::size_t hi;
};

/// Replay shard `plan`'s share of every run, in stream order: warm runs
/// functionally, detailed ones through the timing model. Counters are
/// attached only for measured runs, so `ctr` ends up holding exactly the
/// measured sums and `sums` their per-window deltas; detailed-warmup
/// traffic drains into the machine's scratch sink.
void replay_shard_phases(MachineSim& m, const ShardPlan& plan,
                         const std::vector<Seg>& runs,
                         std::vector<perf::Counters>& ctr, WindowSums& sums) {
  // The shard's segments, cut at its snapshots of the run ends; runs that
  // meet once the empty ones between them drop out are merged.
  std::vector<Seg> segs;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const std::size_t lo = k == 0 ? 0 : plan.cut_end[k - 1];
    const std::size_t hi = plan.cut_end[k];
    if (lo == hi) continue;
    const Seg& run = runs[k];
    if (!segs.empty() && segs.back().phase == run.phase &&
        (run.phase != Phase::kMeasured || segs.back().window == run.window)) {
      segs.back().hi = hi;
    } else {
      segs.push_back(Seg{run.phase, run.window, lo, hi});
    }
  }
  const auto nproc = static_cast<u32>(ctr.size());
  std::vector<perf::Counters> snap(nproc);
  for (const Seg& seg : segs) {
    const BatchRef* refs = plan.base + seg.lo;
    const std::size_t n = seg.hi - seg.lo;
    if (seg.phase == Phase::kWarm) {
      m.warm_batch(refs, n);
    } else if (seg.phase == Phase::kDetail) {
      m.access_batch(refs, n);
    } else {
      for (u32 p = 0; p < nproc; ++p) {
        snap[p] = ctr[p];
        m.attach_counters(p, &ctr[p]);
      }
      m.access_batch(refs, n);
      for (u32 p = 0; p < nproc; ++p) {
        m.attach_counters(p, nullptr);
        sums.add_delta(seg.window, ctr[p], snap[p]);
      }
    }
  }
}

}  // namespace

std::vector<perf::Counters> sample_replay(const MachineConfig& cfg,
                                          const std::vector<TraceRecord>& records,
                                          const SampleSchedule& sched,
                                          const SampleReplayOptions& opts,
                                          SampleReplayStats* stats) {
  if (!sched.enabled()) {
    throw std::invalid_argument(
        "sample_replay: the sampling schedule is disabled");
  }
  const u32 nproc = cfg.num_processors;
  const u32 S = shard_count(cfg, opts.shards);
  const std::shared_ptr<const CompiledTrace> compiled =
      compile_shared(cfg, records, 0, opts.pool, opts.compile_cache);
  const CompiledTrace& ct = *compiled;
  const u64 total_refs = ct.refs.size();

  // Cut the compiled stream wherever the phase changes, and count the refs
  // each run contributes.
  std::vector<std::size_t> cuts;  ///< [run]: end of the run
  std::vector<Seg> runs;          ///< [run]: phase, window, [lo, hi)
  WindowSums windows;
  std::vector<u64> tot_proc(nproc, 0);
  std::vector<u64> meas_proc(nproc, 0);
  u64 detailed_refs = 0;
  u64 measured_refs = 0;
  for (const BatchRef& r : ct.refs) ++tot_proc[r.proc];
  for (u64 pos = 0; pos < total_refs;) {
    const u64 end = std::min(sched.phase_end(pos), total_refs);
    const Seg run{sched.phase(pos), sched.window(pos), pos, end};
    runs.push_back(run);
    cuts.push_back(end);
    if (run.phase != Phase::kWarm) detailed_refs += end - pos;
    if (run.phase == Phase::kMeasured) {
      measured_refs += end - pos;
      windows.add_refs(run.window, end - pos);
      for (u64 i = pos; i < end; ++i) ++meas_proc[ct.refs[i].proc];
    }
    pos = end;
  }

  // Route each ref to its shard with a snapshot at every run end, replay
  // the shards, and fold their window sums (exact, so in any order).
  ThreadPool* pool = S > 1 ? opts.pool : nullptr;
  const std::vector<ShardPlan> plans = route_shards(ct, S, cuts, pool);
  ShardMachines sm = make_shard_machines(cfg, S);
  std::vector<WindowSums> shard_sums(S);
  parallel_for_index(pool, S, [&](u64 s) {
    replay_shard_phases(*sm.machines[s], plans[s], runs, sm.counters[s],
                        shard_sums[s]);
  });
  for (const WindowSums& ws : shard_sums) windows += ws;

  SampleReplayStats st;
  st.records = ct.records;
  st.total_refs = total_refs;
  st.detailed_refs = detailed_refs;
  st.measured_refs = measured_refs;
  st.shards_used = S;
  windows.estimate(st);

  // Scale each processor's measured sums to whole-stream estimates and add
  // the exact serial side the compile pass accounted.
  std::vector<perf::Counters> result(nproc);
  for (u32 p = 0; p < nproc; ++p) {
    perf::Counters meas;
    for (u32 s = 0; s < S; ++s) {
      perf::for_each_machine_field([](u64& d, u64 c) { d += c; }, meas,
                                   sm.counters[s][p]);
    }
    scale_to_stream(result[p], meas, tot_proc[p], meas_proc[p]);
    add_compile_totals(result[p], ct, p);
  }
  if (stats != nullptr) *stats = st;
  return result;
}

}  // namespace dss::sim
