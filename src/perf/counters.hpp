// Hardware-performance-counter model.
//
// The paper instruments PostgreSQL with counter reads: a PAPI-like library on
// the PA-8200 (HP V-Class) and ioctl() access to the R10000 counters on the
// SGI Origin 2000. This struct is the superset of events both studies read;
// `platform_events.hpp` maps subsets of it onto per-CPU event names, mirroring
// how the same measurement had to be expressed differently on each machine.
#pragma once

#include <array>
#include <string>

#include "util/types.hpp"

namespace dss::perf {

/// Why a cache miss happened (the paper's Section 4.2 decomposition).
/// Exactly one cause is recorded per miss per level, so the per-cause sums
/// conserve against `l1d_misses` / `l2d_misses` (invariant I8).
enum class MissCause : u8 {
  kCold = 0,      ///< line never resident in this cache before
  kCapacity,      ///< line was evicted by replacement (capacity/conflict)
  kCohInval,      ///< line was removed by an external invalidation
  kCohDirty,      ///< miss served by a remote cache's Modified copy
  kCohClean,      ///< miss served by a remote cache's clean-exclusive copy
};
inline constexpr u32 kNumMissCauses = 5;

[[nodiscard]] const char* miss_cause_name(MissCause c);

/// Per-cause miss tallies for one cache level.
struct MissBreakdown {
  std::array<u64, kNumMissCauses> by_cause{};

  [[nodiscard]] u64& operator[](MissCause c) {
    return by_cause[static_cast<u32>(c)];
  }
  [[nodiscard]] u64 operator[](MissCause c) const {
    return by_cause[static_cast<u32>(c)];
  }
  /// Sum over all causes; must equal the level's miss counter.
  [[nodiscard]] u64 total() const;
  /// Misses caused by sharing (invalidation-induced + served remotely).
  [[nodiscard]] u64 communication() const;

  MissBreakdown& operator+=(const MissBreakdown& o);
};

/// DBMS object class an address belongs to, resolved through the
/// sim::AddrClassRegistry that db::ShmAllocator feeds.
enum class ObjClass : u8 {
  kHeapPage = 0,  ///< relation data pages in the buffer pool
  kIndexPage,     ///< index pages in the buffer pool
  kBufHeader,     ///< buffer headers, hash table, freelist, pool lock
  kLockTable,     ///< lock-manager table and lock
  kCatalog,       ///< shared catalog region
  kWorkMem,       ///< per-process private work memory
  kOther,         ///< shared allocations without a registered class
};
inline constexpr u32 kNumObjClasses = 7;

[[nodiscard]] const char* obj_class_name(ObjClass c);

/// Cycle-accounting stack: where every cycle of `Counters::cycles` went.
/// Components conserve exactly against `cycles` (invariant I9): each site
/// that advances the cycle counter adds the same amount to exactly one
/// bucket here.
struct CpiStack {
  u64 compute = 0;          ///< instruction execution (base CPI), non-spin
  u64 spin = 0;             ///< spinlock loops (compute-side of spin waits)
  u64 sched = 0;            ///< context-switch cost charged by the scheduler
  u64 tlb = 0;              ///< data-TLB refill stalls
  u64 atomics = 0;          ///< atomic-operation pipeline penalty
  u64 l2_hit = 0;           ///< exposed L1-miss/L2-hit stalls (Origin)
  u64 mem_local = 0;        ///< memory stalls served by the local node / UMA
  u64 mem_remote_near = 0;  ///< remote, same router (0 network hops)
  u64 mem_remote_mid = 0;   ///< remote, 1 network hop
  u64 mem_remote_far = 0;   ///< remote, 2+ network hops
  u64 intervention = 0;     ///< stalls on 3-hop dirty/clean interventions

  /// Sum of all components; must equal `Counters::cycles`.
  [[nodiscard]] u64 total() const;
  /// All memory-system stall components (everything below the CPU core).
  [[nodiscard]] u64 mem_stall() const;

  /// Defined inline: `Process` and `MachineSim::access_batch` fold a
  /// reference's stall parts in with it after every nonzero stall. The one
  /// hand-written walk of the buckets (pinned by a static_assert below).
  CpiStack& operator+=(const CpiStack& o) {
    compute += o.compute;
    spin += o.spin;
    sched += o.sched;
    tlb += o.tlb;
    atomics += o.atomics;
    l2_hit += o.l2_hit;
    mem_local += o.mem_local;
    mem_remote_near += o.mem_remote_near;
    mem_remote_mid += o.mem_remote_mid;
    mem_remote_far += o.mem_remote_far;
    intervention += o.intervention;
    return *this;
  }
};

/// A u64 member of `S` and its JSON key. `machine`: MachineSim writes it on
/// the detailed path, so a sampling window measures it and a sampled run
/// replaces it with a scaled estimate; the rest stays exact.
template <class S>
struct CounterField {
  const char* name;
  u64 S::*member;
  bool machine;
};

/// Every CpiStack bucket, in declaration order; `machine` marks the
/// memory-stall buckets (mem_stall()).
inline constexpr std::array<CounterField<CpiStack>, 11> kCpiStackFields{{
    {"compute", &CpiStack::compute, false},
    {"spin", &CpiStack::spin, false},
    {"sched", &CpiStack::sched, false},
    {"tlb", &CpiStack::tlb, true},
    {"atomics", &CpiStack::atomics, true},
    {"l2_hit", &CpiStack::l2_hit, true},
    {"mem_local", &CpiStack::mem_local, true},
    {"mem_remote_near", &CpiStack::mem_remote_near, true},
    {"mem_remote_mid", &CpiStack::mem_remote_mid, true},
    {"mem_remote_far", &CpiStack::mem_remote_far, true},
    {"intervention", &CpiStack::intervention, true},
}};
static_assert(kCpiStackFields.size() * sizeof(u64) == sizeof(CpiStack),
              "each bucket needs a row here and a term in operator+=");

/// Raw event totals for one simulated process (thread). All values are
/// accumulated while the thread occupies a CPU, so `cycles` is the paper's
/// "thread time" (it excludes ready-queue wait and sleep).
struct Counters {
  // CPU
  u64 cycles = 0;         ///< thread time in CPU cycles
  u64 instructions = 0;   ///< graduated instructions
  u64 spin_cycles = 0;    ///< subset of `cycles` burned in spinlock loops

  // Memory references (counted per cache-line-sized reference)
  u64 loads = 0;
  u64 stores = 0;
  u64 atomics = 0;

  // Cache events. For the V-Class only `l1d_misses` is meaningful (its
  // single-level 2 MB data cache); for the Origin both levels are.
  u64 l1d_misses = 0;
  u64 l2d_misses = 0;

  // Coherence events
  u64 dirty_misses = 0;         ///< misses served by another cache's M line
  u64 cache_interventions = 0;  ///< misses served by another cache (M or E)
  u64 invalidations_recv = 0;   ///< lines invalidated by other CPUs' writes
  u64 upgrades = 0;             ///< S->M upgrade transactions
  u64 writebacks = 0;           ///< dirty evictions written to memory
  u64 migratory_transfers = 0;  ///< reads satisfied by migratory handoff

  // Address translation
  u64 tlb_misses = 0;  ///< data TLB refills

  // Memory system (requests that left the cache hierarchy)
  u64 mem_requests = 0;
  u64 mem_latency_cycles = 0;  ///< un-overlapped total latency (the PA-8200
                               ///< "open request ticks" counter)
  u64 remote_accesses = 0;     ///< NUMA: home node != requesting node

  // OS events
  u64 vol_ctx_switches = 0;
  u64 invol_ctx_switches = 0;
  u64 select_sleeps = 0;  ///< select()-based spinlock backoff sleeps

  // DBMS-level (software counters in the instrumented executable)
  u64 lock_acquires = 0;
  u64 lock_collisions = 0;
  u64 buffer_pins = 0;
  u64 tuples_scanned = 0;
  u64 index_descents = 0;

  // Attribution (purely observational — never feeds back into timing).
  MissBreakdown l1_miss_causes;  ///< why each L1 miss happened
  MissBreakdown l2_miss_causes;  ///< why each last-level miss happened
  /// Last-level misses per DBMS object class (sums to last-level misses).
  std::array<u64, kNumObjClasses> obj_misses{};
  /// Subset of `obj_misses` that were communication misses.
  std::array<u64, kNumObjClasses> obj_comm_misses{};
  /// Cycle accounting; `stack.total() == cycles` (invariant I9).
  CpiStack stack;

  /// Element-wise accumulate (used to aggregate per-process counters).
  Counters& operator+=(const Counters& o);

  // Derived metrics used throughout the evaluation.
  [[nodiscard]] double cpi() const;
  [[nodiscard]] double cycles_per_minstr() const;       ///< Figs. 5 & 7
  [[nodiscard]] double l1d_per_minstr() const;          ///< Fig. 8 (V-Class)
  [[nodiscard]] double l2d_per_minstr() const;          ///< Fig. 6 (Origin)
  [[nodiscard]] double avg_mem_latency() const;         ///< Fig. 9
  [[nodiscard]] double vol_ctx_per_minstr() const;      ///< Fig. 10
  [[nodiscard]] double invol_ctx_per_minstr() const;    ///< Fig. 10
  [[nodiscard]] double l1d_miss_rate() const;           ///< misses / refs
  [[nodiscard]] double l2d_miss_rate() const;           ///< L2 misses / L1 misses
};

/// Every scalar Counters member, in declaration order. A new counter is its
/// declaration above plus one row here.
inline constexpr std::array<CounterField<Counters>, 26> kCounterFields{{
    {"cycles", &Counters::cycles, false},
    {"instructions", &Counters::instructions, false},
    {"spin_cycles", &Counters::spin_cycles, false},
    {"loads", &Counters::loads, true},
    {"stores", &Counters::stores, true},
    {"atomics", &Counters::atomics, true},
    {"l1d_misses", &Counters::l1d_misses, true},
    {"l2d_misses", &Counters::l2d_misses, true},
    {"dirty_misses", &Counters::dirty_misses, true},
    {"cache_interventions", &Counters::cache_interventions, true},
    {"invalidations_recv", &Counters::invalidations_recv, true},
    {"upgrades", &Counters::upgrades, true},
    {"writebacks", &Counters::writebacks, true},
    {"migratory_transfers", &Counters::migratory_transfers, true},
    {"tlb_misses", &Counters::tlb_misses, true},
    {"mem_requests", &Counters::mem_requests, true},
    {"mem_latency_cycles", &Counters::mem_latency_cycles, true},
    {"remote_accesses", &Counters::remote_accesses, true},
    {"vol_ctx_switches", &Counters::vol_ctx_switches, false},
    {"invol_ctx_switches", &Counters::invol_ctx_switches, false},
    {"select_sleeps", &Counters::select_sleeps, false},
    {"lock_acquires", &Counters::lock_acquires, false},
    {"lock_collisions", &Counters::lock_collisions, false},
    {"buffer_pins", &Counters::buffer_pins, false},
    {"tuples_scanned", &Counters::tuples_scanned, false},
    {"index_descents", &Counters::index_descents, false},
}};

/// Calls `f` on the same machine-event field of every block in `c...`: the
/// `machine` rows of both tables and every miss-cause and object-class
/// tally. Both samplers' window deltas and estimate scaling walk this.
template <class F, class... C>
void for_each_machine_field(F&& f, C&... c) {
  for (const auto& fd : kCounterFields) {
    if (fd.machine) f(c.*fd.member...);
  }
  for (u32 i = 0; i < kNumMissCauses; ++i) {
    f(c.l1_miss_causes.by_cause[i]...);
    f(c.l2_miss_causes.by_cause[i]...);
  }
  for (u32 i = 0; i < kNumObjClasses; ++i) {
    f(c.obj_misses[i]...);
    f(c.obj_comm_misses[i]...);
  }
  for (const auto& fd : kCpiStackFields) {
    if (fd.machine) f(c.stack.*fd.member...);
  }
}

}  // namespace dss::perf
