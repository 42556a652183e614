// Sampled batched replay (DESIGN.md §12).
//
// `sample_replay` is the SMARTS-style sampling layer over the shard-parallel
// replay core (sim/batch.hpp): the compiled BatchRef stream is divided into
// units of N refs, every K-th unit is a measurement window replayed with the
// detailed timing model, the W refs before each window warm in detail but
// unmeasured, and everything else runs MachineSim's functional-warming path
// (bit-identical state, no cycle accounting). Per-window counter deltas are
// scaled to whole-stream estimates with 95% confidence intervals from the
// per-window spread. The schedule, the window estimator (WindowSums) and the
// scaling step (scale_to_stream) are the execution-driven sampler's
// (sampler.hpp); this file adds only the shard routing of the phases.
//
// Determinism: the schedule is a pure function of the compiled ref index and
// phases partition each shard's sub-stream in stream order, so sampled
// results are bit-identical at every shard count and on every pool — the
// same contract as replay_batched. The memory-controller contention model is
// forced off (epoch accounting needs the full detailed stream; sampled runs
// trade it away, which full-detail goldens quantify).
#pragma once

#include <vector>

#include "perf/counters.hpp"
#include "sim/batch.hpp"
#include "sim/sample/sampler.hpp"
#include "util/stats.hpp"

namespace dss::sim {

struct SampleReplayOptions {
  /// As ReplayOptions::shards (clamped, power of two, bit-identical).
  u32 shards = 1;
  /// As ReplayOptions::pool.
  ThreadPool* pool = nullptr;
  /// As ReplayOptions::compile_cache.
  TraceCompileCache* compile_cache = nullptr;
};

/// Reference accounting and per-metric estimates of one sampled replay: the
/// execution-driven summary (its refs are compiled BatchRefs here) plus the
/// replay's own provenance.
struct SampleReplayStats : ExecSampleSummary {
  u64 records = 0;  ///< input trace records
  u32 shards_used = 1;
};

/// Sampled replay of `records` under `sched`. Returns merged per-processor
/// counters shaped exactly like replay_batched's: process-side accounting
/// (instructions, gap cycles, TLB) is exact from the compile pass, machine-
/// event counters are measured-window deltas scaled to whole-stream
/// estimates, and `cycles` is recomputed so invariant I9 holds. Throws
/// std::invalid_argument on a disabled schedule (full detail is
/// replay_batched).
[[nodiscard]] std::vector<perf::Counters> sample_replay(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    const SampleSchedule& sched, const SampleReplayOptions& opts = {},
    SampleReplayStats* stats = nullptr);

}  // namespace dss::sim
