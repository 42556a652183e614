// MachineSim: execution-driven multiprocessor memory-system simulator.
//
// One instance models one machine (a V-Class or an Origin 2000). Simulated
// processes issue read/write/atomic references through `access()`; the
// simulator walks the per-processor cache hierarchy, runs the directory
// coherence protocol across processors, models interconnect and
// memory-controller latency, and updates each process's hardware counters.
//
// Protocol summary (MESI, full-map directory at the home):
//   * read miss, unit uncached            -> fetch from home, fill E
//   * read miss, unit shared              -> fetch from home, fill S
//   * read miss, unit owned (E/M) remote  -> 3-hop intervention, both end S
//        - Origin "speculative reply": a clean-owned read is serviced at
//          memory latency (home speculatively sends data while confirming
//          with the owner), hiding the third hop
//        - V-Class "migratory optimization": a read to a unit detected as
//          migratory invalidates the owner and hands over M directly, so the
//          following write needs no upgrade (Section 4.2.3 of the paper)
//   * write miss / upgrade                -> invalidate sharers, fill M
//
// Timing: each reference returns the *exposed* (non-overlapped) stall cycles;
// the full request latency is accumulated into the PA-8200-style
// "open-request ticks" counter used for the paper's Fig. 9.
#pragma once

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "perf/counters.hpp"
#include "sim/addr.hpp"
#include "sim/addr_classes.hpp"
#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/directory.hpp"
#include "sim/interconnect.hpp"
#include "sim/memctrl.hpp"
#include "sim/tlb.hpp"

namespace dss::sim {

/// Thrown when a protocol-state guard fails (directory and caches disagree,
/// a transaction targets the requester itself, ...). These guards used to be
/// bare assert()s that vanished in release builds — the PR 1 self-upgrade
/// bug surfaced only as a release segfault — so they now always diagnose.
class ProtocolViolation : public std::runtime_error {
 public:
  ProtocolViolation(const std::string& what, u64 unit, u32 proc)
      : std::runtime_error(what), unit_(unit), proc_(proc) {}
  [[nodiscard]] u64 unit() const { return unit_; }
  [[nodiscard]] u32 proc() const { return proc_; }

 private:
  u64 unit_;
  u32 proc_;
};

/// Test-only protocol faults, injectable behind a flag so the checking
/// machinery can prove it detects known-bad protocols.
enum class CheckFault : u8 {
  kNone,
  /// Re-introduce the PR 1 bug: a write hit on a Shared L1 subline of a
  /// unit this processor already owns exclusively issues a global upgrade
  /// instead of a local promotion, making the directory intervene on the
  /// requester itself.
  kSelfUpgrade,
};

/// Observation interface into the coherence protocol. All hooks default to
/// no-ops; an attached observer sees every transaction's protocol events.
/// Attaching an observer also disables the L1-hit fast path so that *every*
/// reference is observable — metrics are bit-identical either way (the fast
/// path is a short circuit of the same transitions, see machine.cpp).
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;

  /// An `access()` call completed (after all of its L1 lines were serviced).
  virtual void on_access(u32 proc, AccessKind kind, SimAddr addr, u32 len) {
    (void)proc, (void)kind, (void)addr, (void)len;
  }
  /// The directory forwards `requester`'s miss to exclusive `owner` (3-hop).
  virtual void on_intervention(u32 requester, u32 owner, u64 unit) {
    (void)requester, (void)owner, (void)unit;
  }
  /// `requester`'s write invalidates `target`'s copy of `unit`.
  virtual void on_invalidation(u32 requester, u32 target, u64 unit) {
    (void)requester, (void)target, (void)unit;
  }
  /// `requester`'s read downgrades `owner`'s exclusive copy to Shared.
  virtual void on_downgrade(u32 requester, u32 owner, u64 unit) {
    (void)requester, (void)owner, (void)unit;
  }
  /// A read was served by the migratory optimization: `owner` hands the
  /// unit over in M instead of degrading to Shared.
  virtual void on_migratory_handoff(u32 requester, u32 owner, u64 unit) {
    (void)requester, (void)owner, (void)unit;
  }
  /// A protocol-state guard failed; a ProtocolViolation is thrown right
  /// after this hook returns (the hook lets checkers record the event).
  virtual void on_violation(const char* what, u64 unit, u32 proc) {
    (void)what, (void)unit, (void)proc;
  }
};

/// Where an access's exposed memory stall was spent; maps 1:1 onto the
/// perf::CpiStack memory components.
enum class MemBucket : u8 {
  kLocal,         ///< home on the requesting node (or UMA)
  kNear,          ///< remote home, same router (0 network hops)
  kMid,           ///< remote home, 1 network hop
  kFar,           ///< remote home, 2+ network hops
  kIntervention,  ///< served through another cache (3-hop transaction)
};

/// Per-cache line-residency history for miss-cause classification. Tracks,
/// per line, whether it was ever resident ("seen") and whether its last
/// removal was an external invalidation. Stored as two bitmaps per 64-line
/// block so the footprint stays a few bits per line ever touched.
class LineHist {
 public:
  [[nodiscard]] perf::MissCause classify(u64 line) const {
    const auto* b = blocks_.find(line >> 6);
    if (b == nullptr) return perf::MissCause::kCold;
    const u64 bit = u64{1} << (line & 63);
    if (((*b)[0] & bit) == 0) return perf::MissCause::kCold;
    if (((*b)[1] & bit) != 0) return perf::MissCause::kCohInval;
    return perf::MissCause::kCapacity;
  }
  void note_fill(u64 line) {
    auto& b = blocks_.get_or_insert(line >> 6);
    const u64 bit = u64{1} << (line & 63);
    b[0] |= bit;
    b[1] &= ~bit;
  }
  /// classify(line) followed by note_fill(line) in a single block probe —
  /// the miss path always fills the line it just classified, and the two
  /// calls otherwise hash to the same block twice.
  [[nodiscard]] perf::MissCause classify_and_fill(u64 line) {
    // dss-lint: allow(hot-alloc) FlatMap growth amortizes to the first touch of each 64-line region
    auto& b = blocks_.get_or_insert(line >> 6);
    const u64 bit = u64{1} << (line & 63);
    perf::MissCause cause = perf::MissCause::kCold;
    if ((b[0] & bit) != 0) {
      cause = (b[1] & bit) != 0 ? perf::MissCause::kCohInval
                                : perf::MissCause::kCapacity;
    }
    b[0] |= bit;
    b[1] &= ~bit;
    return cause;
  }
  void note_inval(u64 line) {
    auto* b = blocks_.find(line >> 6);
    if (b == nullptr) return;
    (*b)[1] |= u64{1} << (line & 63);
  }

 private:
  /// [0] = seen bits, [1] = last-removal-was-invalidation bits.
  DSS_SHARD_PARTITIONED util::FlatMap<std::array<u64, 2>> blocks_;
};

/// One reference of a batched stream (sim/batch.hpp): the access kind is
/// packed into the low two bits of `len_kind`, the byte length above them.
/// 16 bytes so a replay plan streams through the hardware prefetcher.
struct BatchRef {
  SimAddr addr;
  u32 proc;
  u32 len_kind;  ///< (len << 2) | AccessKind
};

class RefSampler;  // sim/sample/sampler.hpp

class MachineSim {
 public:
  explicit MachineSim(const MachineConfig& cfg);

  MachineSim(const MachineSim&) = delete;
  MachineSim& operator=(const MachineSim&) = delete;

  /// Point processor `proc`'s event stream at a counter block (typically the
  /// owning simulated process's). Events caused *at* a processor (received
  /// invalidations, interventions) land in that processor's counters.
  void attach_counters(u32 proc, perf::Counters* c);

  /// Issue a memory reference from processor `proc` at absolute cycle `now`.
  /// Returns the exposed stall cycles the processor must add to its clock.
  [[nodiscard]] u64 access(u32 proc, AccessKind kind, SimAddr addr, u32 len,
                           u64 now);

  /// Issue a batch of references (at now = 0, the replay convention: no
  /// component reads absolute time) and fold each nonzero stall into the
  /// attached counters — `cycles += stall` and `stack += stall_parts`. It is a loop over access(), so every hook
  /// (observer, trace capture, TLB model) sees each reference; the loop
  /// only adds a software prefetch of the L1 set and directory slot a fixed
  /// number of references ahead.
  void access_batch(const BatchRef* refs, std::size_t n);

  /// Functional warming (DESIGN.md §12): apply a batch of references to the
  /// cache/directory/LRU/miss-history state with *no* cycle accounting — no
  /// counters, no interconnect or memory-controller traffic, no stall. The
  /// resulting simulator state is bit-identical to what access_batch would
  /// have produced (state transitions never depend on computed latencies),
  /// at a fraction of the cost: the sampling driver interleaves this with
  /// detailed measurement windows. The same prefetching loop as
  /// access_batch, over warm_access().
  void warm_batch(const BatchRef* refs, std::size_t n);

  /// Single-reference functional warming (the execution-driven analogue of
  /// warm_batch; used for the non-detailed phases of a sampled trial).
  /// Updates TLB state but charges no TLB miss.
  void warm_access(u32 proc, AccessKind kind, SimAddr addr, u32 len);

  /// Attach a systematic-sampling schedule (nullptr detaches). While
  /// attached, `access()` consults the sampler for each reference: warm
  /// phases take the functional path above (0 stall), detailed phases run
  /// the full timing model, and the sampler snapshots attached counters at
  /// measurement-window boundaries. Requires no observer.
  void set_sampler(RefSampler* s) { sampler_ = s; }
  [[nodiscard]] RefSampler* sampler() const { return sampler_; }

  /// Roll the memory-controller contention estimate; the scheduler calls
  /// this once per lockstep window.
  void begin_epoch(u64 epoch_cycles) { mc_.begin_epoch(epoch_cycles); }

  /// Mutable memory-controller access for the pipelined replay core's
  /// seal / deferred-merge seams (sim/batch.cpp, DESIGN.md §14). Tests and
  /// checkers use the const `memctrl()` accessor below.
  [[nodiscard]] MemCtrl& memctrl_mut() { return mc_; }

  /// Attach a protocol observer (nullptr detaches). At most one at a time;
  /// the invariant checker in sim/check and trace capture (sim/trace)
  /// build on this seam.
  void set_observer(ProtocolObserver* obs) { obs_ = obs; }
  [[nodiscard]] ProtocolObserver* observer() const { return obs_; }
  /// Attach `obs` and own it: it is destroyed with this machine, before
  /// any other member, so it can never outlive the machine it observes.
  void own_observer(std::unique_ptr<ProtocolObserver> obs) {
    obs_ = obs.get();
    owned_obs_ = std::move(obs);
  }

  /// Inject a test-only protocol fault (CheckFault::kNone restores correct
  /// behaviour). Used to prove the checkers detect known-bad protocols.
  void set_fault(CheckFault f) { fault_ = f; }
  [[nodiscard]] CheckFault fault() const { return fault_; }

  /// Registry used to attribute last-level misses to DBMS object classes
  /// (nullptr: shared addresses report kOther). Not owned; must outlive the
  /// simulation.
  void set_addr_classes(const AddrClassRegistry* r) { classes_ = r; }

  /// CPI-stack components of the most recent `access()` by `proc`, defined
  /// only when that call returned a nonzero stall: the components then sum
  /// exactly to it. After a 0-stall call (an L1 hit, a warm reference under
  /// sampling) the contents are stale, since a 0-stall split is all-zero
  /// and the hit path does not spend a reset on it. The caller folds this
  /// into its counter block's `stack` as it burns a nonzero stall.
  [[nodiscard]] const perf::CpiStack& stall_parts(u32 proc) const {
    return parts_[proc];
  }

  [[nodiscard]] const MachineConfig& config() const { return cfg_; }
  /// Table lookup, not a division: this sits on every coherence transaction
  /// (requester node, owner node, home placement).
  [[nodiscard]] u32 node_of_proc(u32 proc) const { return proc_node_[proc]; }
  /// Home (memory bank or node) of the coherence unit containing `addr`.
  [[nodiscard]] u32 home_of(SimAddr addr) const;

  // --- introspection for tests and invariant checks ---
  [[nodiscard]] const SetAssocCache& cache(u32 proc, u32 level) const {
    return caches_[proc][level];
  }
  [[nodiscard]] const Directory& directory() const { return dir_; }
  [[nodiscard]] const MemCtrl& memctrl() const { return mc_; }
  [[nodiscard]] const Interconnect& interconnect() const { return net_; }
  /// Counter block attached to `proc` (nullptr when unattached). Lets the
  /// invariant checker validate per-counter conservation identities.
  [[nodiscard]] const perf::Counters* attached_counters(u32 proc) const {
    return counters_[proc];
  }

 private:
  struct GlobalResult {
    u64 latency = 0;        ///< full round-trip latency, cycles
    LineState fill = LineState::S;
    MemBucket bucket = MemBucket::kLocal;  ///< where the stall was spent
    bool remote_cache = false;  ///< served through another cache's copy
    bool dirty = false;         ///< that copy was Modified
  };

  // The protocol internals are templated on kTimed: <true> is the detailed
  // timing model, <false> the functional-warming variant that performs the
  // *same* state transitions (tags, MESI, directory, LRU, miss history —
  // none of which ever read a computed latency) while skipping counters,
  // latency math, and memory-controller traffic. One body keeps the two
  // paths from drifting; warm-state identity is asserted by sample_test.

  /// Coherence-unit transaction. `had_shared_copy` marks an upgrade (the
  /// requester already holds S data; no data transfer needed).
  template <bool kTimed>
  GlobalResult global_op(u32 proc, bool want_excl, bool had_shared_copy,
                         u64 unit_line, u64 now);

  /// Invalidate every copy of a coherence unit at processor q, counting the
  /// external invalidation at q. Returns true if a dirty copy was destroyed
  /// (the protocol forwards its data, so no separate writeback is charged).
  template <bool kTimed>
  bool invalidate_unit_at(u32 q, u64 unit_line);

  /// Downgrade processor q's copy of a unit from E/M to S. Returns true if
  /// it was dirty (data written back to home).
  bool downgrade_unit_at(u32 q, u64 unit_line);

  /// Handle a victim evicted from the last (coherence) level at `proc`.
  template <bool kTimed>
  void last_level_eviction(u32 proc, const Eviction& ev, u64 now);

  /// Per-L1-line reference; returns exposed stall cycles (always 0 when
  /// !kTimed). `l1_st` is the caller's L1 lookup() of `l1_line`, made after
  /// the last change to that cache (each line is probed once).
  template <bool kTimed>
  u64 access_line(u32 proc, AccessKind kind, u64 l1_line,
                  std::optional<LineState> l1_st, u64 now);

  /// Advisory prefetch for the batch loops: the L1 set and directory slot
  /// of refs[i + lookahead], when that reference exists.
  void prefetch_ahead(const BatchRef* refs, std::size_t i, std::size_t n) const;

  /// Body of access() past the sampler dispatch (the detailed path).
  u64 access_detailed(u32 proc, AccessKind kind, SimAddr addr, u32 len,
                      u64 now);

  [[nodiscard]] perf::Counters& ctr(u32 proc) {
    return counters_[proc] != nullptr ? *counters_[proc] : scratch_;
  }
  [[nodiscard]] u64 unit_of_l1_line(u64 l1_line) const {
    return l1_line >> unit_vs_l1_shift_;
  }

  /// Protocol-state guard: when `cond` is false, notify the observer and
  /// throw ProtocolViolation. Replaces the bare assert()s on the directory
  /// intervention/eviction paths, which release builds compiled out.
  void proto_check(bool cond, const char* what, u64 unit, u32 proc) const {
    if (cond) return;
    proto_fail(what, unit, proc);
  }
  [[noreturn]] void proto_fail(const char* what, u64 unit, u32 proc) const;

  /// Translate an access's pages through proc's data TLB; returns exposed
  /// refill cycles (0 when the TLB model is disabled). The untimed variant
  /// still refills the TLB (warm state) but charges nothing. Defined inline:
  /// every reference calls it, and most calls end at the TLB's inline
  /// MRU-page test.
  template <bool kTimed>
  u64 translate(u32 proc, SimAddr addr, u32 len) {
    if (tlbs_.empty()) return 0;
    const u32 misses = tlbs_[proc].translate(addr, len);
    if (!kTimed || misses == 0) return 0;
    ctr(proc).tlb_misses += misses;
    return u64{misses} * cfg_.tlb_miss_penalty;
  }

  /// MemBucket -> CpiStack component of `s`.
  static u64& bucket_part(perf::CpiStack& s, MemBucket b);
  /// Bucket for a home-memory-serviced stall from `pnode` to `home`.
  [[nodiscard]] MemBucket home_bucket(u32 pnode, u32 home) const;
  /// Record one last-level miss's cause + object class into `c`.
  void record_ll_miss(perf::Counters& c, perf::MissCause cause,
                      SimAddr byte_addr);

  DSS_REPLAY_SAFE MachineConfig cfg_;
  DSS_REPLAY_SAFE Interconnect net_;  ///< immutable topology + latencies
  DSS_SHARD_PARTITIONED Directory dir_;
  DSS_EPOCH_MERGED MemCtrl mc_;  ///< rate estimates merged at epoch ends
  /// [proc][level]
  DSS_SHARD_PARTITIONED std::vector<std::vector<SetAssocCache>> caches_;
  /// [proc], optional
  DSS_SHARD_PARTITIONED std::vector<Tlb> tlbs_;
  DSS_SHARD_PARTITIONED std::vector<perf::Counters*> counters_;
  /// sink for unattached processors
  DSS_SHARD_PARTITIONED perf::Counters scratch_;
  /// log2(last-level line / L1 line)
  DSS_REPLAY_SAFE u32 unit_vs_l1_shift_;
  /// proc -> node (avoids a per-miss divide)
  DSS_REPLAY_SAFE std::vector<u32> proc_node_;
  DSS_REPLAY_SAFE u32 num_nodes_ = 1;  ///< cfg_.num_nodes(), cached
  DSS_REPLAY_SAFE ProtocolObserver* obs_ = nullptr;
  DSS_REPLAY_SAFE CheckFault fault_ = CheckFault::kNone;
  /// Attached sampling schedule (nullptr: every reference is detailed).
  DSS_REPLAY_SAFE RefSampler* sampler_ = nullptr;
  DSS_REPLAY_SAFE const AddrClassRegistry* classes_ = nullptr;
  /// [proc][level: 0=L1, 1=last level] residency history (attribution).
  DSS_SHARD_PARTITIONED std::vector<std::array<LineHist, 2>> hist_;
  /// Per-proc scratch: CPI parts of the access in flight (attribution).
  DSS_SHARD_PARTITIONED std::vector<perf::CpiStack> parts_;
  /// Observer adopted by own_observer(). Declared last so it is destroyed
  /// first, while the members it may read on detach are still alive.
  DSS_REPLAY_SAFE std::unique_ptr<ProtocolObserver> owned_obs_;
};

}  // namespace dss::sim
