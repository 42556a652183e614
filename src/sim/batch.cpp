#include "sim/batch.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "sim/addr.hpp"
#include "sim/tlb.hpp"

namespace dss::sim {

u32 max_shards(const MachineConfig& cfg) {
  assert(!cfg.dcache.empty());
  // Shard s owns units with unit % S == s. Two units sharing a last-level
  // set must land in the same shard, so S must divide the last-level set
  // count; for two-level hierarchies the L1 sublines of a unit occupy sets
  // keyed by unit % (l1_sets / sublines_per_unit), so S must divide that
  // stride as well. All geometries are powers of two, so "divides" reduces
  // to "<=" on powers of two.
  u64 limit = cfg.dcache.back().num_sets();
  if (cfg.dcache.size() > 1) {
    const u32 l1_sets = cfg.dcache.front().num_sets();
    const u32 shift =
        static_cast<u32>(std::countr_zero(cfg.dcache.back().line_bytes)) -
        static_cast<u32>(std::countr_zero(cfg.dcache.front().line_bytes));
    limit = std::min<u64>(limit, std::max<u32>(1, l1_sets >> shift));
  }
  return static_cast<u32>(std::bit_floor(limit));
}

namespace {

// ---------------------------------------------------------------------------
// Trace compile and shard routing (chunked scans with a prefix-sum stitch)
// ---------------------------------------------------------------------------

/// Small instruction gaps dominate every stream; memoize the fp multiply
/// (identical double math, computed once per distinct small gap).
constexpr u64 kGapMemo = 256;

[[nodiscard]] std::array<u64, kGapMemo> make_gap_memo(double cpi) {
  std::array<u64, kGapMemo> memo;
  for (u64 g = 0; g < kGapMemo; ++g) {
    memo[g] = static_cast<u64>(static_cast<double>(g) * cpi);
  }
  return memo;
}

[[nodiscard]] u64 gap_cycles_of(u64 gap, double cpi,
                                const std::array<u64, kGapMemo>& memo) {
  return gap < kGapMemo ? memo[gap]
                        : static_cast<u64>(static_cast<double>(gap) * cpi);
}

/// Per-unit segments a record splits into (records rarely straddle units).
[[nodiscard]] u64 unit_segment_count(const TraceRecord& r, u32 unit_shift) {
  return ((r.addr + r.len - 1) >> unit_shift) - (r.addr >> unit_shift) + 1;
}

/// Split a record at coherence-unit boundaries into BatchRefs at `out`, in
/// address order. Each segment's L1 lines are exactly the per-line loop's
/// lines for that unit, and the machine counts per L1 line at now = 0, so
/// replaying the segments is bit-identical to replaying the whole record —
/// the same equivalence the shard partition rests on. Returns the number of
/// segments written.
u64 emit_unit_segments(const TraceRecord& r, u32 proc, u32 unit_shift,
                       BatchRef* out) {
  const u8 kind = r.kind;
  const u64 last_addr = r.addr + r.len - 1;
  const u64 first_unit = r.addr >> unit_shift;
  const u64 last_unit = last_addr >> unit_shift;
  if (first_unit == last_unit) {
    out[0] = BatchRef{r.addr, proc, (r.len << 2) | kind};
    return 1;
  }
  u64 k = 0;
  for (u64 unit = first_unit; unit <= last_unit; ++unit) {
    const u64 seg_lo = std::max(r.addr, unit << unit_shift);
    const u64 seg_hi = std::min(last_addr, ((unit + 1) << unit_shift) - 1);
    const u32 seg_len = static_cast<u32>(seg_hi - seg_lo + 1);
    out[k++] = BatchRef{seg_lo, proc, (seg_len << 2) | kind};
  }
  return k;
}

/// Elements per chunk of the chunked scans: at least 16 Ki, so each
/// chunk's per-processor or per-shard tallies stay small next to its scan,
/// and about eight chunks per pool thread for balance.
[[nodiscard]] u64 chunk_grain(u64 n, const ThreadPool* pool) {
  const u64 threads = pool != nullptr ? pool->size() : 1;
  return std::max<u64>(u64{16} * 1024, n / (u64{8} * threads));
}

// ---------------------------------------------------------------------------
// Compile cache key
// ---------------------------------------------------------------------------

[[nodiscard]] u64 mix64(u64 h, u64 v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

/// Cache key: every input compile_trace reads. Records are hashed field by
/// field (TraceRecord has padding, so byte-hashing would read indeterminate
/// bytes); the machine side hashes only the translation/CPI parameters the
/// compile depends on, so machines differing in cache geometry above the
/// unit size or in protocol knobs share compiled traces.
u64 compile_key(const MachineConfig& cfg,
                const std::vector<TraceRecord>& records, u64 epoch_records) {
  u64 h = 0x243f6a8885a308d3ULL;
  h = mix64(h, records.size());
  h = mix64(h, epoch_records);
  h = mix64(h, cfg.num_processors);
  h = mix64(h, std::bit_cast<u64>(cfg.base_cpi));
  h = mix64(h, cfg.tlb_entries);
  h = mix64(h, cfg.tlb_miss_penalty);
  h = mix64(h, cfg.dcache.back().line_bytes);
  for (const TraceRecord& r : records) {
    h = mix64(h, r.addr);
    h = mix64(h, r.instr_gap);
    h = mix64(h, (static_cast<u64>(r.proc) << 40) |
                     (static_cast<u64>(r.kind) << 32) | r.len);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Pipelined epoch engine (DESIGN.md §14)
// ---------------------------------------------------------------------------

/// Internal unwind signal: a sibling worker failed, so publications this
/// worker is waiting on will never arrive. Caught (and swallowed) by the
/// worker wrapper; the first real exception is rethrown on the caller.
struct PipelineAbort {};

/// Shared state of the pipelined epoch engine: double-buffered sealed
/// epoch tallies plus the published merge results. A shard's worker writes
/// the sealed slots for epoch e, then decrements `to_seal[e]` with release
/// semantics; whichever worker brings it to zero performs the merge after
/// its acquire — so the merge reads only sealed epoch-e counters, in fixed
/// shard order, and its values never depend on which worker ran it.
struct EpochPipeline {
  DSS_EPOCH_MERGED u32 shards = 0;
  DSS_EPOCH_MERGED u32 nproc = 0;
  DSS_EPOCH_MERGED u32 homes = 0;
  DSS_EPOCH_MERGED u64 epochs = 0;
  DSS_EPOCH_MERGED const CompiledTrace* ct = nullptr;
  /// [epoch]: shards that have not yet sealed the epoch (merged epochs
  /// only — the final epoch is never sealed).
  DSS_EPOCH_MERGED std::vector<std::atomic<u32>> to_seal;
  /// [epoch][shard][home]: the shard's per-home request tally at its seal.
  DSS_EPOCH_MERGED std::vector<u32> sealed_counts;
  /// [epoch][shard][proc]: the shard's per-proc cycle total at its seal.
  DSS_EPOCH_MERGED std::vector<u64> sealed_cycles;
  /// [epoch][home]: published merged tallies (valid once published > e).
  DSS_EPOCH_MERGED std::vector<u32> merged;
  DSS_EPOCH_MERGED std::vector<u64> span;       ///< [epoch]: merged span
  DSS_EPOCH_MERGED std::vector<u64> clock_end;  ///< [epoch]: merged clock max
  DSS_EPOCH_MERGED std::atomic<u64> published{0};  ///< epochs published
  DSS_EPOCH_MERGED std::mutex mu;
  DSS_EPOCH_MERGED std::condition_variable cv;
  DSS_EPOCH_MERGED bool aborted = false;            ///< guarded by mu
  DSS_EPOCH_MERGED std::exception_ptr error;        ///< guarded by mu

  EpochPipeline(u32 shards_in, u32 nproc_in, u32 homes_in,
                const CompiledTrace& ct_in)
      : shards(shards_in),
        nproc(nproc_in),
        homes(homes_in),
        epochs(ct_in.epochs),
        ct(&ct_in),
        to_seal(epochs - 1),
        sealed_counts((epochs - 1) * shards * homes, 0),
        sealed_cycles((epochs - 1) * shards * nproc, 0),
        merged((epochs - 1) * homes, 0),
        span(epochs - 1, 0),
        clock_end(epochs - 1, 0) {
    for (auto& a : to_seal) a.store(shards, std::memory_order_relaxed);
  }

  /// Deterministic merge of epoch e, by whichever worker sealed it last:
  /// fixed-order sums over the sealed slots (exact integers, so independent
  /// of the shard count) and the span measured off the merged clocks.
  void publish(u64 e) {
    u32* m = merged.data() + e * homes;
    for (u32 s = 0; s < shards; ++s) {
      const u32* slot = sealed_counts.data() + (e * shards + s) * homes;
      for (u32 h = 0; h < homes; ++h) m[h] += slot[h];
    }
    u64 clock_max = 0;
    for (u32 p = 0; p < nproc; ++p) {
      u64 clk = ct->serial_cum[e * nproc + p];
      for (u32 s = 0; s < shards; ++s) {
        clk += sealed_cycles[(e * shards + s) * nproc + p];
      }
      clock_max = std::max(clock_max, clk);
    }
    // clock_end[e - 1] was written by the publisher of e - 1, whose
    // release decrement of to_seal[e] happens-before this worker's final
    // acquire decrement (every shard seals e - 1 before e).
    clock_end[e] = clock_max;
    const u64 prev = e == 0 ? 0 : clock_end[e - 1];
    span[e] = std::max<u64>(1, clock_max - prev);
    {
      std::lock_guard<std::mutex> lock(mu);
      published.store(e + 1, std::memory_order_release);
    }
    cv.notify_all();
  }

  /// Block until the merge of epoch `e` is published (published > e).
  void wait_published(u64 e) {
    if (published.load(std::memory_order_acquire) > e) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] {
      return aborted || published.load(std::memory_order_relaxed) > e;
    });
    if (published.load(std::memory_order_relaxed) <= e) throw PipelineAbort{};
  }

  /// Record a worker's failure and wake every waiter.
  void abort(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::move(e);
      aborted = true;
    }
    cv.notify_all();
  }
};

/// Deferred per-shard epoch begin: armed in the shard's MemCtrl at the seal
/// of epoch - 1 and invoked by the controller on the shard's first blocking
/// request of `epoch`; blocks until the merge of epoch - 1 is published,
/// then installs it. Shards whose next epoch issues no blocking request
/// simply never resolve — the merged delays would never have been read.
struct ShardEpochResolver final : MemCtrl::EpochResolver {
  DSS_EPOCH_MERGED EpochPipeline* pl = nullptr;
  DSS_EPOCH_MERGED u64 epoch = 0;  ///< epoch about to issue its first request

  void resolve(MemCtrl& mc) override {
    const u64 e = epoch - 1;
    pl->wait_published(e);
    mc.install_merged(pl->merged.data() + e * pl->homes, pl->homes,
                      pl->span[e]);
  }
};

/// One pipelined worker: epoch-major over its owned shards (s % workers ==
/// w). Epoch-major order is what makes the run-ahead deadlock-free: by the
/// time a worker computes epoch e + 1 it has sealed all of its shards at
/// epoch e, so the publication a resolver waits on only ever depends on
/// workers that are themselves still making progress (a lone worker seals
/// every shard before any resolver runs, so its publications are always
/// ready).
void pipeline_worker(EpochPipeline& pl, u32 w, u32 workers,
                     const ShardMachines& sm,
                     const std::vector<ShardPlan>& plans,
                     std::vector<ShardEpochResolver>& resolvers,
                     const ReplayOptions& opts) {
  for (u64 e = 0; e < pl.epochs; ++e) {
    for (u32 s = w; s < pl.shards; s += workers) {
      MachineSim& m = *sm.machines[s];
      const ShardPlan& plan = plans[s];
      const std::size_t lo = e == 0 ? 0 : plan.cut_end[e - 1];
      const std::size_t hi = plan.cut_end[e];
      if (e > 0 && opts.on_epoch) opts.on_epoch(s, e);
      // The machine folds each reference's stall and its CPI-stack parts
      // into the attached shard counters.
      m.access_batch(plan.base + lo, hi - lo);
      if (e + 1 == pl.epochs) {
        if (opts.on_shard_done) opts.on_shard_done(s, m);
        continue;
      }
      // Seal epoch e for shard s: snapshot the tallies the merge reads,
      // reset the running tally for epoch e + 1, and arm the deferred
      // resolve — all before the release decrement that lets the last
      // sealer merge.
      MemCtrl& mc = m.memctrl_mut();
      const std::vector<u32>& counts = mc.epoch_counts();
      std::copy(counts.begin(), counts.end(),
                pl.sealed_counts.begin() + (e * pl.shards + s) * pl.homes);
      for (u32 p = 0; p < pl.nproc; ++p) {
        pl.sealed_cycles[(e * pl.shards + s) * pl.nproc + p] =
            sm.counters[s][p].cycles;
      }
      mc.reset_epoch_counts();
      resolvers[s].epoch = e + 1;
      mc.set_pending_epoch(&resolvers[s]);
      if (pl.to_seal[e].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pl.publish(e);
      }
    }
  }
}

}  // namespace

/// Three passes over uniform record chunks (DESIGN.md §14): (A) count unit
/// segments and per-processor records per chunk, recording the in-chunk
/// segment count at every epoch boundary; (stitch) a serial prefix sum over
/// the chunk totals reconstructs every global offset — segment write
/// positions, `epoch_ref_end`, per-(chunk, proc) scatter bases; (B) place
/// segments and scatter per-processor record indices into disjoint ranges;
/// (C) per-processor TLB + instruction-gap replay over each processor's
/// record subsequence (TLB state is strictly per-processor, so the replay
/// order within a processor is all that matters, and the chunk-ordered
/// concatenation preserves it), snapshotting `serial_cum` at the global
/// epoch boundaries. No pass reads what another writes concurrently, so the
/// output is the same at every pool size and every chunking.
CompiledTrace compile_trace(const MachineConfig& cfg,
                            const std::vector<TraceRecord>& records,
                            u64 epoch_records, ThreadPool* pool) {
  const u32 nproc = cfg.num_processors;
  const u64 n = records.size();
  CompiledTrace ct;
  ct.records = n;
  ct.epochs = epoch_records == 0 ? 1 : (n + epoch_records - 1) / epoch_records;
  if (ct.epochs == 0) ct.epochs = 1;
  ct.unit_shift =
      static_cast<u32>(std::countr_zero(cfg.dcache.back().line_bytes));
  ct.serial_cum.assign(ct.epochs * nproc, 0);
  ct.instr_total.assign(nproc, 0);
  ct.gap_cycles_total.assign(nproc, 0);
  ct.tlb_stall_total.assign(nproc, 0);
  ct.tlb_miss_total.assign(nproc, 0);

  // ---- pass A: per-chunk counts (parallel) ----
  const u64 target = chunk_grain(n, pool);
  const u64 chunks = (n + target - 1) / target;
  struct ChunkScan {
    u64 segs = 0;                   ///< unit segments the chunk emits
    std::vector<u64> proc_records;  ///< records per processor in the chunk
    /// (epoch, in-chunk segment count at its boundary) for every epoch
    /// boundary inside the chunk.
    std::vector<std::pair<u64, u64>> epoch_marks;
  };
  std::vector<ChunkScan> scans(chunks);
  parallel_for_index(pool, chunks, [&](u64 c) {
    const u64 lo = c * target;
    const u64 hi = std::min(n, lo + target);
    ChunkScan& cs = scans[c];
    cs.proc_records.assign(nproc, 0);
    u64 segs = 0;
    for (u64 i = lo; i < hi; ++i) {
      const TraceRecord& r = records[i];
      assert(r.len > 0);
      segs += unit_segment_count(r, ct.unit_shift);
      ++cs.proc_records[r.proc % nproc];
      if (epoch_records != 0 && (i + 1) % epoch_records == 0) {
        cs.epoch_marks.emplace_back((i + 1) / epoch_records - 1, segs);
      }
    }
    cs.segs = segs;
  });

  // ---- stitch: prefix sums reconstruct every global offset (serial) ----
  std::vector<u64> seg_base(chunks + 1, 0);
  for (u64 c = 0; c < chunks; ++c) {
    seg_base[c + 1] = seg_base[c] + scans[c].segs;
  }
  ct.refs.resize(seg_base[chunks]);
  // Epochs with no boundary mark (the final, possibly partial epoch) end at
  // the last segment.
  ct.epoch_ref_end.assign(ct.epochs, seg_base[chunks]);
  for (u64 c = 0; c < chunks; ++c) {
    for (const auto& [e, within] : scans[c].epoch_marks) {
      ct.epoch_ref_end[e] = seg_base[c] + within;
    }
  }
  std::vector<u64> proc_total(nproc, 0);
  std::vector<u64> proc_base(chunks * nproc);  // scatter base per (chunk, p)
  for (u64 c = 0; c < chunks; ++c) {
    for (u32 p = 0; p < nproc; ++p) {
      proc_base[c * nproc + p] = proc_total[p];
      proc_total[p] += scans[c].proc_records[p];
    }
  }
  std::vector<std::vector<u64>> proc_idx(nproc);
  for (u32 p = 0; p < nproc; ++p) proc_idx[p].resize(proc_total[p]);

  // ---- pass B: place segments + scatter record indices (parallel) ----
  parallel_for_index(pool, chunks, [&](u64 c) {
    const u64 lo = c * target;
    const u64 hi = std::min(n, lo + target);
    u64 out = seg_base[c];
    std::vector<u64> cursor(proc_base.begin() + c * nproc,
                            proc_base.begin() + (c + 1) * nproc);
    for (u64 i = lo; i < hi; ++i) {
      const TraceRecord& r = records[i];
      const u32 p = r.proc % nproc;
      proc_idx[p][cursor[p]++] = i;
      out += emit_unit_segments(r, p, ct.unit_shift, ct.refs.data() + out);
    }
  });

  // ---- pass C: per-processor TLB + instruction-gap replay (parallel) ----
  const double cpi = cfg.base_cpi;
  const std::array<u64, kGapMemo> gap_memo = make_gap_memo(cpi);
  const bool tlb_on = cfg.tlb_entries != 0;
  parallel_for_index(pool, nproc, [&](u64 pi) {
    const u32 p = static_cast<u32>(pi);
    std::optional<Tlb> tlb;
    if (tlb_on) tlb.emplace(cfg.tlb_entries);
    u64 serial = 0;
    u64 instr = 0, gap_total = 0, tlb_stall_sum = 0, misses = 0;
    u64 next_epoch = 0;
    for (const u64 idx : proc_idx[p]) {
      if (epoch_records != 0) {
        // serial_cum[e][p] is p's serial clock after all records with a
        // global index below the epoch's end; flush every epoch that ends
        // at or before this record.
        while (next_epoch + 1 < ct.epochs &&
               idx >= (next_epoch + 1) * epoch_records) {
          ct.serial_cum[next_epoch * nproc + p] = serial;
          ++next_epoch;
        }
      }
      const TraceRecord& r = records[idx];
      const u64 gap_cycles = gap_cycles_of(r.instr_gap, cpi, gap_memo);
      u64 tlb_stall = 0;
      if (tlb_on) {
        // Exactly MachineSim::translate's page sequence and refills.
        const u32 refills = tlb->translate(r.addr, r.len);
        misses += refills;
        tlb_stall = u64{refills} * cfg.tlb_miss_penalty;
      }
      instr += r.instr_gap;
      gap_total += gap_cycles;
      tlb_stall_sum += tlb_stall;
      serial += gap_cycles + tlb_stall;
    }
    for (u64 e = next_epoch; e < ct.epochs; ++e) {
      ct.serial_cum[e * nproc + p] = serial;
    }
    ct.instr_total[p] = instr;
    ct.gap_cycles_total[p] = gap_total;
    ct.tlb_stall_total[p] = tlb_stall_sum;
    ct.tlb_miss_total[p] = misses;
  });
  return ct;
}

std::vector<ShardPlan> route_shards(const CompiledTrace& ct, u32 S,
                                    const std::vector<std::size_t>& cuts,
                                    ThreadPool* pool) {
  assert(std::is_sorted(cuts.begin(), cuts.end()));
  assert(cuts.empty() || cuts.back() <= ct.refs.size());
  std::vector<ShardPlan> plans(S);
  if (S == 1) {
    plans[0].base = ct.refs.data();
    plans[0].cut_end = cuts;
    return plans;
  }
  const auto shard_of = [&](const BatchRef& r) {
    return static_cast<u32>((r.addr >> ct.unit_shift) & (S - 1));
  };
  const u64 total = ct.refs.size();
  const u64 target = chunk_grain(total, pool);
  const u64 chunks = (total + target - 1) / target;

  // ---- count: per-(chunk, shard) refs, snapshotted at every cut q with
  // lo < q <= hi (parallel) ----
  struct RouteChunk {
    std::vector<u64> counts;   ///< [shard]
    std::size_t first_cut = 0;  ///< index of the first cut the chunk owns
    std::vector<u64> marks;    ///< [owned cut][shard]: counts at the cut
  };
  std::vector<RouteChunk> scans(chunks);
  parallel_for_index(pool, chunks, [&](u64 c) {
    const std::size_t lo = c * target;
    const std::size_t hi = std::min<u64>(total, lo + target);
    RouteChunk& rc = scans[c];
    rc.counts.assign(S, 0);
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(cuts.begin(), cuts.end(), lo) - cuts.begin());
    rc.first_cut = k;
    for (std::size_t i = lo; i < hi; ++i) {
      ++rc.counts[shard_of(ct.refs[i])];
      for (; k < cuts.size() && cuts[k] == i + 1; ++k) {
        rc.marks.insert(rc.marks.end(), rc.counts.begin(), rc.counts.end());
      }
    }
  });

  // ---- stitch: per-(chunk, shard) write bases and cut snapshots (serial) --
  std::vector<u64> base(chunks * S);
  std::vector<u64> running(S, 0);
  for (ShardPlan& plan : plans) plan.cut_end.assign(cuts.size(), 0);
  for (u64 c = 0; c < chunks; ++c) {
    const RouteChunk& rc = scans[c];
    for (std::size_t m = 0; m * S < rc.marks.size(); ++m) {
      for (u32 s = 0; s < S; ++s) {
        plans[s].cut_end[rc.first_cut + m] = running[s] + rc.marks[m * S + s];
      }
    }
    for (u32 s = 0; s < S; ++s) {
      base[c * S + s] = running[s];
      running[s] += rc.counts[s];
    }
  }
  for (u32 s = 0; s < S; ++s) plans[s].storage.resize(running[s]);

  // ---- place: copy into disjoint per-shard ranges (parallel) ----
  parallel_for_index(pool, chunks, [&](u64 c) {
    const std::size_t lo = c * target;
    const std::size_t hi = std::min<u64>(total, lo + target);
    std::vector<u64> cursor(base.begin() + c * S, base.begin() + (c + 1) * S);
    for (std::size_t i = lo; i < hi; ++i) {
      const BatchRef& r = ct.refs[i];
      const u32 s = shard_of(r);
      plans[s].storage[cursor[s]++] = r;
    }
  });
  for (ShardPlan& plan : plans) plan.base = plan.storage.data();
  return plans;
}

std::shared_ptr<const CompiledTrace> TraceCompileCache::get(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    u64 epoch_records, ThreadPool* pool) {
  const u64 key = compile_key(cfg, records, epoch_records);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Compile outside the lock; a concurrent identical call may compile too,
  // but both produce bit-identical traces and the first insert wins.
  auto compiled = std::make_shared<const CompiledTrace>(
      compile_trace(cfg, records, epoch_records, pool));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(key, std::move(compiled));
  return it->second;
}

std::size_t TraceCompileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

u64 TraceCompileCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

u32 shard_count(const MachineConfig& cfg, u32 requested) {
  return std::bit_floor(std::min(std::max(requested, 1u), max_shards(cfg)));
}

std::shared_ptr<const CompiledTrace> compile_shared(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    u64 epoch_records, ThreadPool* pool, TraceCompileCache* cache) {
  if (cache != nullptr) return cache->get(cfg, records, epoch_records, pool);
  return std::make_shared<const CompiledTrace>(
      compile_trace(cfg, records, epoch_records, pool));
}

ShardMachines make_shard_machines(const MachineConfig& cfg, u32 S) {
  MachineConfig shard_cfg = cfg;
  shard_cfg.tlb_entries = 0;
  ShardMachines sm;
  sm.machines.reserve(S);
  for (u32 s = 0; s < S; ++s) {
    sm.machines.push_back(std::make_unique<MachineSim>(shard_cfg));
  }
  sm.counters.assign(S, std::vector<perf::Counters>(cfg.num_processors));
  return sm;
}

void add_compile_totals(perf::Counters& c, const CompiledTrace& ct, u32 p) {
  c.instructions += ct.instr_total[p];
  c.cycles += ct.gap_cycles_total[p] + ct.tlb_stall_total[p];
  c.tlb_misses += ct.tlb_miss_total[p];
  c.stack.compute += ct.gap_cycles_total[p];
  c.stack.tlb += ct.tlb_stall_total[p];
}

std::vector<perf::Counters> replay_batched(
    const MachineConfig& cfg, const std::vector<TraceRecord>& records,
    const ReplayOptions& opts, ReplayStats* stats) {
  const u32 nproc = cfg.num_processors;
  const u32 S = shard_count(cfg, opts.shards);
  const std::shared_ptr<const CompiledTrace> compiled = compile_shared(
      cfg, records, opts.epoch_records, opts.pool, opts.compile_cache);
  const CompiledTrace& ct = *compiled;
  const std::vector<ShardPlan> plans =
      route_shards(ct, S, ct.epoch_ref_end, opts.pool);

  ShardMachines sm = make_shard_machines(cfg, S);
  for (u32 s = 0; s < S; ++s) {
    for (u32 p = 0; p < nproc; ++p) {
      sm.machines[s]->attach_counters(p, &sm.counters[s][p]);
    }
    if (opts.on_shard_start) opts.on_shard_start(s, *sm.machines[s]);
  }

  // Shards run epoch-major on min(pool threads, S) workers; a single worker
  // (no pool, a one-thread pool or one shard) runs inline on this thread.
  EpochPipeline pl(S, nproc, sm.machines[0]->memctrl().num_homes(), ct);
  std::vector<ShardEpochResolver> resolvers(S);
  for (u32 s = 0; s < S; ++s) resolvers[s].pl = &pl;
  const u32 workers =
      opts.pool != nullptr ? std::min<u32>(opts.pool->size(), S) : 1;
  parallel_for_index(opts.pool, workers, [&](u64 w) {
    try {
      pipeline_worker(pl, static_cast<u32>(w), workers, sm, plans, resolvers,
                      opts);
    } catch (const PipelineAbort&) {
      // A sibling failed first; its exception is the one to rethrow.
    } catch (...) {
      pl.abort(std::current_exception());
    }
  });
  // Disarm resolvers a request-free final epoch (or a failed run) never
  // consumed: the resolver objects die before the machines do.
  for (u32 s = 0; s < S; ++s) {
    sm.machines[s]->memctrl_mut().set_pending_epoch(nullptr);
  }
  // Every worker has returned, so the error slot is no longer written.
  if (pl.error) std::rethrow_exception(pl.error);

  // Merge: per-processor counters are sums of per-reference contributions,
  // so summing the shards (fixed order, exact u64 arithmetic) reproduces the
  // serial accumulation bit-for-bit.
  std::vector<perf::Counters> result(nproc);
  for (u32 p = 0; p < nproc; ++p) {
    for (u32 s = 0; s < S; ++s) result[p] += sm.counters[s][p];
    add_compile_totals(result[p], ct, p);
  }
  for (u32 s = 0; s < S; ++s) {
    for (u32 p = 0; p < nproc; ++p) sm.machines[s]->attach_counters(p, nullptr);
  }
  if (stats != nullptr) {
    stats->records = records.size();
    stats->line_refs = 0;
    for (const perf::Counters& c : result) {
      stats->line_refs += c.loads + c.stores + c.atomics;
    }
    stats->epochs = opts.epoch_records != 0 ? ct.epochs : 0;
    stats->shards_used = S;
  }
  return result;
}

}  // namespace dss::sim
