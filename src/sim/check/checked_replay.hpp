// Checked batched replay: sim/batch.hpp's shard-parallel core with one
// runtime invariant checker (invariants.hpp) attached per shard machine.
//
// Each shard owns a disjoint set of coherence units, so each shard's checker
// sees a complete, self-consistent machine: every cache line, directory
// entry and counter it can reach belongs to its shard's units, and all
// protocol activity on those units happens on its machine. The per-access
// targeted checks (I1-I6) and periodic sweeps therefore validate the same
// invariants the serial checked replay validates. Counter-conservation
// identities (I7-I9) hold per shard mid-replay because shard counters carry
// only stall-side quantities during replay (the serial contributions —
// instruction gaps, TLB stalls — are folded in after the final merge).
//
// Lives in sim/check (not sim) because the checker links against dss_sim:
// sim/batch exposes the on_shard_start/on_shard_done seams precisely so the
// core itself never depends on the checker.
#pragma once

#include <vector>

#include "sim/batch.hpp"
#include "sim/check/invariants.hpp"

namespace dss::sim::check {

struct CheckedReplayResult {
  std::vector<perf::Counters> counters;  ///< merged, as replay_batched
  ReplayStats stats;
  u64 violations = 0;  ///< total across shard checkers (0 under fail_fast)
  u64 accesses_observed = 0;
  u64 full_sweeps_run = 0;
};

/// Run `replay_batched(cfg, records, opts)` with an InvariantChecker on
/// every shard machine and a final full sweep per shard. Throws
/// ProtocolViolation on the first violation when `copts.fail_fast` (the
/// default). Metrics are bit-identical to an unchecked replay at any shard
/// count. `opts.on_shard_start` / `on_shard_done` must be unset (the
/// checker owns those seams here); `opts.on_epoch`, if set, runs after the
/// checker has stamped the shard's epoch. Each checker is owned by its
/// shard machine, so none outlives its machine, also when a shard throws.
[[nodiscard]] CheckedReplayResult checked_replay_batched(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    ReplayOptions opts = {}, CheckerOptions copts = {});

}  // namespace dss::sim::check
