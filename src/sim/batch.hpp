// Batched, shard-parallel trace replay.
//
// `replay_batched` replays a reference stream against a machine model the
// way `sim::replay` does, but restructured for raw speed (this is the
// BENCH_refstream hot path):
//
//   * Batched processing — per-reference dispatch (TLB walk, instruction
//     accounting, attribution lookups) is hoisted into a chunked pre-pass
//     that compiles the stream into dense prepared references; the replay
//     loop then touches only cache/directory state.
//   * Intra-trial sharding — cache sets and directory homes are partitioned
//     across `shards` workers by coherence-unit address. Shard `s` owns
//     every unit with `unit % shards == s`; because the shard count divides
//     both the last-level set count and the L1 sets-per-unit stride (see
//     `max_shards`), two units in different shards can never share a cache
//     set, a directory entry, or a residency-history line. Each shard runs a
//     complete MachineSim over its sub-stream, so all per-unit protocol
//     state transitions happen in exactly the order the serial replay would
//     apply them.
//   * Deterministic epoch merge — the only cross-shard coupling is the
//     memory-controller rate estimate. Each shard seals its per-epoch
//     request tally, the last shard to seal merges them in fixed order, and
//     every shard installs the merged totals before its first blocking
//     request of the next epoch (DESIGN.md §14); within an epoch the
//     queueing delay depends only on the *previous* epoch's merged totals,
//     so it is insensitive to both intra-epoch order and the shard count.
//     Per-processor cycle and counter contributions are u64 sums of
//     per-reference terms, which are permutation-invariant — merged results
//     are bit-identical at any `shards` value, checker on or off.
//
// The TLB is the one piece of per-processor state that is *not* partitioned
// by unit address; TLB outcomes are independent of cache state, so the
// pre-pass replays each processor's page stream against a private TLB model
// and bakes the refill stalls into the prepared references. Shard machines
// run with the TLB model disabled.
//
// Scope: this core replays *recorded* streams. The execution-driven figure
// trials (core/experiment) generate references online, with every stall
// feeding back into scheduling decisions, and therefore cannot be
// address-sharded without speculation; the shard count is a ReplayOptions
// setting of this core only (DESIGN.md, "Sharded replay core").
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "perf/counters.hpp"
#include "sim/config.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "util/threadpool.hpp"

namespace dss::sim {

/// A trace compiled for batched replay: the unit-split BatchRef stream in
/// input order plus all serial-side accounting that depends only on the
/// stream and the machine's translation/CPI parameters — never on cache or
/// directory state. Compilation is shard-count independent; routing a
/// compiled trace to S shards is a separate cheap pass (`route_shards`),
/// which is what lets a TraceCompileCache share one compile across every
/// shard-count variant of the same (trace, machine) pair.
struct CompiledTrace {
  /// Per-unit segments of the input records, in stream order. Replaying
  /// these through access_batch is bit-identical to replaying the raw
  /// records (per-L1-line counting; `now` is never read on the replay
  /// path), which the cross-shard golden tests enforce.
  std::vector<BatchRef> refs;
  /// refs emitted at the end of each epoch (one entry per epoch).
  std::vector<std::size_t> epoch_ref_end;
  u64 epochs = 1;
  u64 records = 0;    ///< input records compiled
  u32 unit_shift = 0; ///< log2(coherence-unit bytes); shard routing key
  /// Cumulative serial clock (gap cycles + TLB stalls) per processor at the
  /// end of each epoch, row-major [epoch][proc].
  std::vector<u64> serial_cum;
  // Per-processor totals, folded into the merged counters at the end.
  std::vector<u64> instr_total;
  std::vector<u64> gap_cycles_total;
  std::vector<u64> tlb_stall_total;
  std::vector<u64> tlb_miss_total;
};

/// Compile pass: instruction-gap accounting, the per-processor TLB replay,
/// and unit-splitting. Exactly the stream `replay_batched` replays. Runs as
/// a chunked scan stitched by a serial prefix-sum pass (DESIGN.md §14), on
/// `pool` when it has more than one thread and in index order otherwise.
/// The output is bit-identical at every pool size: every global offset
/// (segment positions, epoch boundaries, `serial_cum`) is reconstructed
/// exactly by the stitch, and the per-processor TLB/gap replay depends only
/// on that processor's record subsequence, which chunking preserves in
/// order.
[[nodiscard]] CompiledTrace compile_trace(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    u64 epoch_records = 0, ThreadPool* pool = nullptr);

/// Process-wide memoization of compile_trace keyed by (trace contents,
/// machine translation/CPI parameters, epoch_records): one cache shared
/// across the shard-count variants of a cell compiles each stream once.
/// Thread-safe; deliberately an explicit object, never a global (the
/// determinism contract bans mutable statics in src/sim).
class TraceCompileCache {
 public:
  /// Compile `records` for `cfg`, or return the cached result of an
  /// earlier identical call. The returned trace is immutable and shared.
  /// `pool` parallelizes a cache-miss compile (never part of the key:
  /// compiled traces are bit-identical at every pool size).
  std::shared_ptr<const CompiledTrace> get(
      const MachineConfig& cfg, const std::vector<TraceRecord>& records,
      u64 epoch_records = 0, ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] u64 hits() const;

 private:
  mutable std::mutex mu_;
  std::map<u64, std::shared_ptr<const CompiledTrace>> cache_;
  u64 hits_ = 0;
};

/// One shard's slice of a compiled trace. At S == 1 the slice aliases the
/// CompiledTrace refs directly (the single-shard stream IS the compiled
/// stream); at S > 1 `storage` holds the shard's refs in stream order.
struct ShardPlan {
  const BatchRef* base = nullptr;
  /// [k]: the shard's refs before compiled position `cuts[k]`.
  std::vector<std::size_t> cut_end;
  std::vector<BatchRef> storage;
};

/// Route a compiled trace to S (a power of two) shards: each ref goes to
/// `(addr >> unit_shift) & (S - 1)`, preserving stream order within a
/// shard, and each shard's size is snapshotted at every position in `cuts`
/// (sorted, at most `ct.refs.size()`): the epoch ends for replay_batched,
/// the phase boundaries for sample_replay. Runs as a chunked count / stitch
/// / place pass on `pool` (in index order without one); the placement and
/// the snapshots are identical at every pool size.
[[nodiscard]] std::vector<ShardPlan> route_shards(
    const CompiledTrace& ct, u32 S, const std::vector<std::size_t>& cuts,
    ThreadPool* pool);

struct ReplayOptions {
  /// Worker partitions; clamped to [1, max_shards(cfg)] (and rounded down
  /// to a power of two). Results are bit-identical at every value.
  u32 shards = 1;
  /// Input records per scheduling epoch; 0 disables the epoch-rate
  /// contention model entirely, matching legacy `sim::replay` (whose
  /// queueing estimate stays zero because it never begins an epoch).
  u64 epoch_records = 0;
  /// Pool for the compile, the routing and the shard workers; nullptr (or
  /// a single-thread pool) runs everything on the calling thread. Results
  /// never depend on this.
  ThreadPool* pool = nullptr;
  /// Optional compile memoization shared across calls (sweeps replaying one
  /// stream at several shard counts compile it once). nullptr compiles
  /// privately. Results are bit-identical either way.
  TraceCompileCache* compile_cache = nullptr;
  /// Called serially for each shard machine before replay begins; the seam
  /// sim/check uses to attach one invariant checker per shard (the observer
  /// seam is per-machine). Must only observe, never mutate.
  std::function<void(u32 shard, MachineSim&)> on_shard_start;
  /// Called for each shard machine after its last reference completes, on
  /// the worker that ran the shard (final checker sweeps).
  std::function<void(u32 shard, MachineSim&)> on_shard_done;
  /// Called on the worker that runs `shard`, before the shard starts each
  /// epoch `epoch > 0`; per shard, epochs arrive in order. Never called
  /// with a single epoch (epoch_records == 0, or no more records than one
  /// epoch). The seam sim/check uses to stamp epoch numbers into the
  /// shard's violation messages. An exception thrown here stops every
  /// worker and is rethrown by replay_batched.
  std::function<void(u32 shard, u64 epoch)> on_epoch;
};

/// Replay statistics (for throughput reporting).
struct ReplayStats {
  u64 records = 0;    ///< input trace records replayed
  u64 line_refs = 0;  ///< per-L1-line references (loads + stores + atomics)
  u64 epochs = 0;     ///< epochs replayed (0 when epochs disabled)
  u32 shards_used = 1;
};

/// Largest shard count whose unit partition is disjoint on `cfg`'s cache
/// geometry: the largest power of two dividing both the last-level set count
/// and (for two-level hierarchies) the number of distinct L1 set groups per
/// coherence unit. Above this, two shards could race on one cache set.
[[nodiscard]] u32 max_shards(const MachineConfig& cfg);

/// `requested` shards clamped to [1, max_shards(cfg)] and rounded down to a
/// power of two: the shard count every sharded replay of `cfg` runs at.
[[nodiscard]] u32 shard_count(const MachineConfig& cfg, u32 requested);

/// compile_trace through `cache` when one is given, a private compile
/// otherwise (bit-identical either way).
[[nodiscard]] std::shared_ptr<const CompiledTrace> compile_shared(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    u64 epoch_records, ThreadPool* pool, TraceCompileCache* cache);

/// The S machines of a sharded replay, each with one zeroed, unattached
/// counter block per processor. They run with the TLB model off: the
/// compile pass handled translation, and the per-processor TLB is the one
/// structure a unit partition cannot split.
struct ShardMachines {
  std::vector<std::unique_ptr<MachineSim>> machines;  ///< [shard]
  std::vector<std::vector<perf::Counters>> counters;  ///< [shard][proc]
};
[[nodiscard]] ShardMachines make_shard_machines(const MachineConfig& cfg,
                                                u32 S);

/// Fold processor `p`'s serial side from the compile pass — instructions,
/// gap cycles, TLB stalls and refills, which no shard owns — into `c`,
/// keeping stack.total() == cycles.
void add_compile_totals(perf::Counters& c, const CompiledTrace& ct, u32 p);

/// Replay `records` against machine model `cfg` and return merged per-
/// processor counters (indexed by processor id, `records[i].proc %
/// cfg.num_processors`). With default options the result equals legacy
/// `sim::replay` on the same machine, except that `Counters::stack` is also
/// populated (attribution folds every stall into the CPI stack, so invariant
/// I9 holds on the result: stack.total() == cycles).
[[nodiscard]] std::vector<perf::Counters> replay_batched(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    const ReplayOptions& opts = {}, ReplayStats* stats = nullptr);

}  // namespace dss::sim
