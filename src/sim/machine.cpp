#include "sim/machine.hpp"

#include <bit>
#include <cassert>

#include "sim/sample/sampler.hpp"
#include "util/log.hpp"

namespace dss::sim {

namespace {
/// Probe-loop software-prefetch distance (BatchRefs). Far enough that the
/// way-word and directory-slot loads complete before the probe reaches
/// them, near enough that the lines are not evicted first; purely a host
/// performance knob — simulated results never depend on it.
constexpr std::size_t kBatchPrefetchAhead = 8;
}  // namespace

MachineSim::MachineSim(const MachineConfig& cfg)
    : cfg_(cfg),
      net_(cfg),
      mc_(cfg.uma ? cfg.mem_banks : cfg.num_nodes(), cfg.mc_occupancy,
          cfg.mc_burst),
      counters_(cfg.num_processors, nullptr),
      hist_(cfg.num_processors),
      parts_(cfg.num_processors) {
  assert(!cfg_.dcache.empty());
  caches_.reserve(cfg_.num_processors);
  for (u32 p = 0; p < cfg_.num_processors; ++p) {
    std::vector<SetAssocCache> levels;
    levels.reserve(cfg_.dcache.size());
    for (const auto& lc : cfg_.dcache) levels.emplace_back(lc);
    caches_.push_back(std::move(levels));
  }
  const u32 l1_shift = caches_[0][0].line_shift();
  const u32 ll_shift = caches_[0].back().line_shift();
  assert(ll_shift >= l1_shift && "last-level line must be >= L1 line");
  unit_vs_l1_shift_ = ll_shift - l1_shift;

  proc_node_.resize(cfg_.num_processors);
  for (u32 p = 0; p < cfg_.num_processors; ++p) {
    proc_node_[p] = p / cfg_.procs_per_node;
  }
  num_nodes_ = cfg_.num_nodes();

  // The directory can hold at most one entry per simultaneously cached
  // coherence unit (the aggregate last-level capacity). Pre-size for the
  // common scaled geometries only: the flat map stores entries inline, so an
  // aggressive reserve would zero megabytes per machine up front (the
  // sharded replay constructs one machine per shard), while growth beyond
  // the hint is geometric and amortizes to a small constant per insert.
  const CacheConfig& ll = cfg_.dcache.back();
  const u64 units = (ll.size_bytes / ll.line_bytes) * cfg_.num_processors;
  dir_.reserve(static_cast<std::size_t>(std::min(units, u64{1} << 14)));

  if (cfg_.tlb_entries != 0) {
    tlbs_.assign(cfg_.num_processors, Tlb(cfg_.tlb_entries));
  }
}

void MachineSim::attach_counters(u32 proc, perf::Counters* c) {
  assert(proc < counters_.size());
  counters_[proc] = c;
}

u64& MachineSim::bucket_part(perf::CpiStack& s, MemBucket b) {
  switch (b) {
    case MemBucket::kLocal: return s.mem_local;
    case MemBucket::kNear: return s.mem_remote_near;
    case MemBucket::kMid: return s.mem_remote_mid;
    case MemBucket::kFar: return s.mem_remote_far;
    case MemBucket::kIntervention: return s.intervention;
  }
  return s.mem_local;  // unreachable
}

MemBucket MachineSim::home_bucket(u32 pnode, u32 home) const {
  if (cfg_.uma || home == pnode) return MemBucket::kLocal;
  const u32 h = net_.hops(pnode, home);
  if (h == 0) return MemBucket::kNear;
  return h == 1 ? MemBucket::kMid : MemBucket::kFar;
}

void MachineSim::record_ll_miss(perf::Counters& c, perf::MissCause cause,
                                SimAddr byte_addr) {
  const perf::ObjClass cls =
      classes_ != nullptr
          ? classes_->classify(byte_addr)
          : (is_private(byte_addr) ? perf::ObjClass::kWorkMem
                                   : perf::ObjClass::kOther);
  ++c.obj_misses[static_cast<u32>(cls)];
  if (cause == perf::MissCause::kCohInval ||
      cause == perf::MissCause::kCohDirty ||
      cause == perf::MissCause::kCohClean) {
    ++c.obj_comm_misses[static_cast<u32>(cls)];
  }
}

u32 MachineSim::home_of(SimAddr addr) const {
  if (cfg_.uma) {
    // The V-Class interleaves memory across EMAC banks at line granularity.
    // Bank counts are powers of two on real hardware; mask instead of the
    // integer divide this costs on every last-level miss.
    const u64 unit = addr >> caches_[0].back().line_shift();
    const u32 banks = cfg_.mem_banks;
    if ((banks & (banks - 1)) == 0) return static_cast<u32>(unit & (banks - 1));
    return static_cast<u32>(unit % banks);
  }
  const u64 page = addr / kPlacementPageBytes;
  if (is_private(addr)) {
    // First-touch: a process's private pages live on its own node.
    const u32 owner = private_owner(addr);
    const u32 np = cfg_.num_processors;
    const u32 p = (np & (np - 1)) == 0 ? (owner & (np - 1)) : owner % np;
    return node_of_proc(p);
  }
  if (is_shared(addr) && !cfg_.shared_home_nodes.empty()) {
    // The DBMS shared segment is homed on a small set of nodes; the paper
    // points at exactly this placement to explain the Origin's 6-8 process
    // behaviour.
    return cfg_.shared_home_nodes[page % cfg_.shared_home_nodes.size()] %
           num_nodes_;
  }
  const u32 nn = num_nodes_;
  if ((nn & (nn - 1)) == 0) return static_cast<u32>(page & (nn - 1));
  return static_cast<u32>(page % nn);
}

u64 MachineSim::access(u32 proc, AccessKind kind, SimAddr addr, u32 len,
                       u64 now) {
  // Sampled trial: the schedule decides per reference whether to run the
  // detailed timing model or only warm the state. Warm references return 0
  // stall and leave every counter untouched (and stall_parts undefined, as
  // after any 0-stall access).
  if (sampler_ != nullptr && !sampler_->on_access(*this, proc)) {
    warm_access(proc, kind, addr, len);
    return 0;
  }
  return access_detailed(proc, kind, addr, len, now);
}

u64 MachineSim::access_detailed(u32 proc, AccessKind kind, SimAddr addr,
                                u32 len, u64 now) {
  assert(proc < cfg_.num_processors);
  assert(len > 0);
  perf::Counters& c = ctr(proc);
  SetAssocCache& l1 = caches_[proc][0];
  const u32 l1_shift = l1.line_shift();
  const u64 first = addr >> l1_shift;
  const u64 last = (addr + len - 1) >> l1_shift;

  // The L1 probe of a single-line reference is made once, here; the general
  // path hands its result on to access_line.
  std::optional<LineState> st;
  if (first == last) st = l1.lookup(first);

  // Fast path: a single-line reference whose L1 probe hits and needs no
  // state transition (a read hit in any state, or a write/atomic hit on an
  // already-M line). This is the overwhelmingly common case in the measured
  // steady state, and it skips the per-line dispatch and the whole
  // coherence/global_op machinery; the TLB (a separate structure, and a
  // single page since the reference is within one line) is translated
  // exactly as the general path would. The general path's per-line step
  // for such a hit returns on the same probe result (and a write to an M
  // L1 line finds its L2 unit M already, by inclusion), so behaviour is
  // bit-identical to it. With an observer attached, every reference takes
  // the general path so the observer sees it; because the fast path is a
  // pure short circuit, counters and timing do not change.
  if (first == last && obs_ == nullptr) {
    if (st.has_value() && (kind == AccessKind::Read || *st == LineState::M)) {
      const u64 tlb = translate<true>(proc, addr, len);
      u64 atomic = 0;
      switch (kind) {
        case AccessKind::Read: ++c.loads; break;
        case AccessKind::Write: ++c.stores; break;
        case AccessKind::Atomic:
          ++c.atomics;
          atomic = cfg_.atomic_penalty;
          break;
      }
      if (tlb + atomic == 0) return 0;
      parts_[proc] = perf::CpiStack{};
      parts_[proc].tlb = tlb;
      parts_[proc].atomics = atomic;
      return tlb + atomic;
    }
  }

  // General path: stall_parts is rebuilt from zero here (the 0-stall fast
  // path above leaves it stale, which the stall_parts contract allows).
  u64 exposed = translate<true>(proc, addr, len);
  parts_[proc] = perf::CpiStack{};
  parts_[proc].tlb = exposed;
  for (u64 line = first; line <= last; ++line) {
    switch (kind) {
      case AccessKind::Read: ++c.loads; break;
      case AccessKind::Write: ++c.stores; break;
      case AccessKind::Atomic: ++c.atomics; break;
    }
    exposed += access_line<true>(proc, kind, line,
                                 first == last ? st : l1.lookup(line),
                                 now + exposed);
  }
  if (obs_ != nullptr) obs_->on_access(proc, kind, addr, len);
  return exposed;
}

void MachineSim::warm_access(u32 proc, AccessKind kind, SimAddr addr,
                             u32 len) {
  assert(proc < cfg_.num_processors);
  assert(len > 0);
  (void)translate<false>(proc, addr, len);
  SetAssocCache& l1 = caches_[proc][0];
  const u32 l1_shift = l1.line_shift();
  const u64 first = addr >> l1_shift;
  const u64 last = (addr + len - 1) >> l1_shift;
  // L1 hit short circuit, as in access_detailed (the TLB, a separate
  // structure, was already warmed above): a single-line read hit in any
  // state, or a write/atomic hit on an M line, changes nothing beyond the
  // LRU touch the probe itself performs — access_line<false> would return
  // on this probe's result (an M L1 line sits above an M L2 unit by
  // inclusion, so its set_state calls are no-ops).
  if (first == last) {
    const auto st = l1.lookup(first);
    if (!st.has_value() || (kind != AccessKind::Read && *st != LineState::M)) {
      (void)access_line<false>(proc, kind, first, st, 0);
    }
    return;
  }
  for (u64 line = first; line <= last; ++line) {
    (void)access_line<false>(proc, kind, line, l1.lookup(line), 0);
  }
}

void MachineSim::prefetch_ahead(const BatchRef* refs, std::size_t i,
                                std::size_t n) const {
  // Software prefetch a fixed lookahead ahead in the stream: the way words
  // of the future reference's L1 set and the directory slot of its unit.
  // Advisory loads only — results are bit-identical without them.
  if (i + kBatchPrefetchAhead >= n) return;
  const BatchRef& f = refs[i + kBatchPrefetchAhead];
  const u64 fline = f.addr >> caches_[f.proc][0].line_shift();
  caches_[f.proc][0].prefetch_set(fline);
  dir_.prefetch(unit_of_l1_line(fline));
}

void MachineSim::warm_batch(const BatchRef* refs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    prefetch_ahead(refs, i, n);
    const BatchRef& r = refs[i];
    warm_access(r.proc, static_cast<AccessKind>(r.len_kind & 3), r.addr,
                r.len_kind >> 2);
  }
}

void MachineSim::access_batch(const BatchRef* refs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    prefetch_ahead(refs, i, n);
    const BatchRef& r = refs[i];
    const u64 stall = access(r.proc, static_cast<AccessKind>(r.len_kind & 3),
                             r.addr, r.len_kind >> 2, 0);
    if (stall == 0) continue;  // stall_parts is undefined (and all-zero)
    perf::Counters& c = ctr(r.proc);
    c.cycles += stall;
    c.stack += parts_[r.proc];
  }
}

template <bool kTimed>
u64 MachineSim::access_line(u32 proc, AccessKind kind, u64 l1_line,
                            std::optional<LineState> l1_st, u64 now) {
  [[maybe_unused]] perf::Counters& c = ctr(proc);
  const bool want_excl = kind != AccessKind::Read;
  const u64 extra_atomic =
      kTimed && kind == AccessKind::Atomic ? cfg_.atomic_penalty : 0;
  auto& levels = caches_[proc];
  SetAssocCache& l1 = levels[0];
  const bool two_level = levels.size() > 1;
  SetAssocCache& ll = levels.back();
  const u64 unit = unit_of_l1_line(l1_line);
  // Every return path below charges `extra_atomic`, so attribute it once.
  [[maybe_unused]] perf::CpiStack& parts = parts_[proc];
  if constexpr (kTimed) parts.atomics += extra_atomic;

  // ---- L1 ----
  if (const auto st = l1_st) {
    if (!want_excl) return extra_atomic;          // read hit
    if (is_exclusive(*st)) {                      // write hit on E/M
      l1.set_state(l1_line, LineState::M);
      if (two_level) ll.set_state(unit, LineState::M);
      return extra_atomic;
    }
    // Write hit on an S line. If this processor already owns the coherence
    // unit exclusively (a sibling subline was upgraded earlier), the write
    // is a purely local promotion — issuing a global upgrade here would make
    // the directory intervene on *ourselves* and invalidate our own copy.
    // CheckFault::kSelfUpgrade suppresses the promotion, re-introducing
    // exactly that bug (PR 1) for checker-detection tests.
    if (two_level && fault_ != CheckFault::kSelfUpgrade) {
      if (const auto st2 = ll.probe(unit); st2.has_value() &&
                                           is_exclusive(*st2)) {
        l1.set_state(l1_line, LineState::M);
        ll.set_state(unit, LineState::M);
        return extra_atomic;
      }
    }
    // Otherwise upgrade at the coherence level.
    if constexpr (kTimed) ++c.upgrades;
    const GlobalResult g = global_op<kTimed>(proc, /*want_excl=*/true,
                                             /*had_shared_copy=*/true, unit,
                                             now);
    l1.set_state(l1_line, LineState::M);
    if (two_level) ll.set_state(unit, LineState::M);
    if constexpr (!kTimed) return 0;
    ++c.mem_requests;
    c.mem_latency_cycles += g.latency;
    const u64 mem_exposed = static_cast<u64>(static_cast<double>(g.latency) *
                                             cfg_.exposed_mem_frac);
    bucket_part(parts, g.bucket) += mem_exposed;
    return mem_exposed + extra_atomic;
  }

  if constexpr (kTimed) ++c.l1d_misses;
  // A last-level miss probes the directory twice, for the unit and for the
  // victim it evicts; both slots are usually cold in host cache. Start
  // loading them now so the loads overlap the residency-history probe (and,
  // with two levels, the L2 probe). Advisory only.
  const auto prefetch_dir = [&] {
    dir_.prefetch(unit);
    if (const auto v = ll.victim_of(unit)) dir_.prefetch(*v);
  };
  if (!two_level) prefetch_dir();
  // Classify against pre-fill residency history and record the fill in the
  // same probe (every path below fills l1_line; nothing observes this
  // processor's history in between, since invalidations never target the
  // requester). A later coherence result (served by a remote cache)
  // overrides the local classification. The untimed path discards the
  // cause but must still record the fill — the history is warm state.
  const perf::MissCause l1_hist_cause =
      hist_[proc][0].classify_and_fill(l1_line);

  // ---- L2 (Origin only) ----
  if (two_level) {
    if (auto st2 = ll.lookup(unit)) {
      const u64 l2_exposed =
          kTimed ? static_cast<u64>(
                       static_cast<double>(ll.config().hit_latency) *
                       cfg_.exposed_l2_frac)
                 : 0;
      if constexpr (kTimed) {
        // L1 miss served from the local L2: the local history is the cause
        // (the fill itself was recorded by classify_and_fill above).
        ++c.l1_miss_causes[l1_hist_cause];
        parts.l2_hit += l2_exposed;
      }
      if (!want_excl || is_exclusive(*st2)) {
        const LineState fill =
            want_excl ? LineState::M
                      : (*st2 == LineState::S ? LineState::S : LineState::E);
        if (want_excl) ll.set_state(unit, LineState::M);
        if (auto ev = l1.insert(l1_line, fill)) {
          // L1 victim folds into the inclusive L2; only dirtiness propagates.
          if (ev->state == LineState::M) {
            ll.set_state(unit_of_l1_line(ev->line_addr), LineState::M);
          }
        }
        return l2_exposed + extra_atomic;
      }
      // Write to an S line resident in L2: upgrade.
      if constexpr (kTimed) ++c.upgrades;
      const GlobalResult g = global_op<kTimed>(proc, true, true, unit, now);
      ll.set_state(unit, LineState::M);
      if (auto ev = l1.insert(l1_line, LineState::M)) {
        if (ev->state == LineState::M) {
          ll.set_state(unit_of_l1_line(ev->line_addr), LineState::M);
        }
      }
      if constexpr (!kTimed) return 0;
      ++c.mem_requests;
      c.mem_latency_cycles += g.latency;
      const u64 mem_exposed = static_cast<u64>(static_cast<double>(g.latency) *
                                               cfg_.exposed_mem_frac);
      bucket_part(parts, g.bucket) += mem_exposed;
      return l2_exposed + mem_exposed + extra_atomic;
    }
    if constexpr (kTimed) ++c.l2d_misses;
    prefetch_dir();
  }

  // ---- Coherence-unit transaction ----
  const perf::MissCause ll_hist_cause =
      two_level ? hist_[proc][1].classify_and_fill(unit) : l1_hist_cause;
  const GlobalResult g = global_op<kTimed>(proc, want_excl, false, unit, now);
  if constexpr (kTimed) {
    ++c.mem_requests;
    c.mem_latency_cycles += g.latency;
    perf::MissCause l1_cause = l1_hist_cause;
    perf::MissCause ll_cause = ll_hist_cause;
    if (g.remote_cache) {
      // Served through another cache's copy: a communication miss at every
      // level regardless of local residency history.
      l1_cause = ll_cause =
          g.dirty ? perf::MissCause::kCohDirty : perf::MissCause::kCohClean;
    }
    // Fills for l1_line / unit were recorded by classify_and_fill above.
    ++c.l1_miss_causes[l1_cause];
    if (two_level) ++c.l2_miss_causes[ll_cause];
    record_ll_miss(c, ll_cause, unit << ll.line_shift());
  }

  if (two_level) {
    if (auto ev = ll.insert(unit, g.fill)) {
      last_level_eviction<kTimed>(proc, *ev, now);
    }
    // Maintain inclusion: drop any stale L1 sublines of a (re)filled unit.
    // (None should exist — checked by invariants — but inserting fresh is
    // what the hardware does.)
    if (auto ev = l1.insert(l1_line, g.fill)) {
      if (ev->state == LineState::M) {
        const u64 ev_unit = unit_of_l1_line(ev->line_addr);
        if (ll.probe(ev_unit).has_value()) ll.set_state(ev_unit, LineState::M);
      }
    }
  } else {
    if (auto ev = l1.insert(l1_line, g.fill)) {
      last_level_eviction<kTimed>(proc, *ev, now);
    }
  }
  if constexpr (!kTimed) return 0;
  const u64 mem_exposed =
      static_cast<u64>(static_cast<double>(g.latency) * cfg_.exposed_mem_frac);
  bucket_part(parts, g.bucket) += mem_exposed;
  return mem_exposed + extra_atomic;
}

template <bool kTimed>
MachineSim::GlobalResult MachineSim::global_op(u32 proc, bool want_excl,
                                               bool had_shared_copy,
                                               u64 unit_line, u64 now) {
  [[maybe_unused]] perf::Counters& c = ctr(proc);
  const u32 ll_shift = caches_[proc].back().line_shift();
  const SimAddr byte_addr = unit_line << ll_shift;
  const u32 pnode = node_of_proc(proc);
  const u32 home = home_of(byte_addr);
  if constexpr (kTimed) {
    if (!cfg_.uma && home != pnode) ++c.remote_accesses;
  }

  DirEntry& e = dir_.entry(unit_line);
  GlobalResult r;

  const u64 req_leg = kTimed ? net_.oneway(pnode, home) : 0;
  const u64 data_leg = kTimed ? net_.oneway_data(home, pnode) : 0;

  switch (e.state) {
    case DirState::Uncached: {
      if constexpr (kTimed) {
        const u64 queue = mc_.request(home, now + req_leg);
        r.latency = req_leg + queue + cfg_.mem_access + data_leg;
        r.bucket = home_bucket(pnode, home);
      }
      r.fill = want_excl ? LineState::M : LineState::E;
      e.state = DirState::Owned;
      e.owner = proc;
      e.sharers = 0;
      break;
    }
    case DirState::Shared: {
      if constexpr (kTimed) r.bucket = home_bucket(pnode, home);
      if (!want_excl) {
        if constexpr (kTimed) {
          const u64 queue = mc_.request(home, now + req_leg);
          r.latency = req_leg + queue + cfg_.mem_access + data_leg;
        }
        r.fill = LineState::S;
        e.add_sharer(proc);
      } else {
        // Invalidate every other sharer; acks largely overlap, so charge a
        // base plus a small per-sharer serialization term.
        u32 invalidated = 0;
        for (u32 q = 0; q < cfg_.num_processors; ++q) {
          if (q == proc || !e.is_sharer(q)) continue;
          if (obs_ != nullptr) obs_->on_invalidation(proc, q, unit_line);
          invalidate_unit_at<kTimed>(q, unit_line);
          ++invalidated;
        }
        if constexpr (kTimed) {
          const u64 queue = mc_.request(home, now + req_leg);
          r.latency = req_leg + queue + cfg_.dir_lookup +
                      (had_shared_copy ? 0 : cfg_.mem_access) + data_leg +
                      static_cast<u64>(6) * invalidated;
        } else {
          (void)invalidated;
        }
        r.fill = LineState::M;
        // Migratory detection: this write completes a read-from-dirty ->
        // write pattern by the same processor.
        if (e.has_dirty_reader && e.last_dirty_reader == proc) {
          e.migratory = true;
        } else {
          e.migratory = false;
        }
        e.has_dirty_reader = false;
        e.state = DirState::Owned;
        e.owner = proc;
        e.sharers = 0;
      }
      break;
    }
    case DirState::Owned: {
      proto_check(e.owner != proc,
                  "self-intervention: requester missed in its own cache but "
                  "the directory says it owns the unit (cache/directory out "
                  "of sync)",
                  unit_line, proc);
      const u32 q = e.owner;
      [[maybe_unused]] const u32 qnode = node_of_proc(q);
      if (obs_ != nullptr) obs_->on_intervention(proc, q, unit_line);
      if constexpr (kTimed) ++ctr(q).cache_interventions;
      const auto q_state = caches_[q].back().probe(unit_line);
      proto_check(q_state.has_value(),
                  "owner lost the line without notifying the directory",
                  unit_line, q);
      const bool dirty = q_state == LineState::M;
      if constexpr (kTimed) {
        if (dirty) ++c.dirty_misses;
        // Any transaction through an exclusive remote copy is intervention
        // wait for the requester (the speculative-reply case included: the
        // stall is still bounded by confirming the owner).
        r.bucket = MemBucket::kIntervention;
        r.remote_cache = true;
        r.dirty = dirty;
      }

      const bool migratory_handoff =
          !want_excl && cfg_.migratory_opt && e.migratory;
      // The directory lives in home memory: every transaction occupies the
      // home controller exactly once.
      const u64 queue = kTimed ? mc_.request(home, now + req_leg) : 0;
      const u64 three_hop =
          kTimed ? req_leg + cfg_.dir_lookup + queue +
                       net_.oneway(home, qnode) + cfg_.cache_penalty +
                       net_.oneway_data(qnode, pnode)
                 : 0;
      if (want_excl || migratory_handoff) {
        if (obs_ != nullptr) {
          if (migratory_handoff) obs_->on_migratory_handoff(proc, q, unit_line);
          obs_->on_invalidation(proc, q, unit_line);
        }
        invalidate_unit_at<kTimed>(q, unit_line);
        e.owner = proc;
        e.sharers = 0;
        r.fill = LineState::M;
        r.latency = three_hop;
        if (migratory_handoff) {
          if constexpr (kTimed) ++c.migratory_transfers;
        } else if (e.has_dirty_reader && e.last_dirty_reader == proc) {
          e.migratory = true;
          e.has_dirty_reader = false;
        }
      } else {
        // Read to an owned unit: owner downgrades to S, both end up sharers.
        if (obs_ != nullptr) obs_->on_downgrade(proc, q, unit_line);
        if (downgrade_unit_at(q, unit_line)) {
          // Dirty data returns to the home in the same transaction.
          if constexpr (kTimed) mc_.post(home, now + req_leg);
        }
        if (dirty) {
          e.has_dirty_reader = true;
          e.last_dirty_reader = proc;
        }
        if constexpr (kTimed) {
          if (!dirty && cfg_.speculative_reply) {
            // Origin speculative memory reply: home sends the memory copy in
            // parallel with confirming the clean owner, hiding the third hop.
            r.latency = req_leg + queue + cfg_.mem_access + data_leg +
                        cfg_.dir_lookup;
          } else {
            r.latency = three_hop;
          }
        }
        r.fill = LineState::S;
        e.state = DirState::Shared;
        e.sharers = 0;
        e.add_sharer(q);
        e.add_sharer(proc);
      }
      break;
    }
  }
  return r;
}

template <bool kTimed>
bool MachineSim::invalidate_unit_at(u32 q, u64 unit_line) {
  auto& levels = caches_[q];
  bool dirty = false;
  if (levels.size() > 1) {
    const u64 base_l1 = unit_line << unit_vs_l1_shift_;
    const u64 count = u64{1} << unit_vs_l1_shift_;
    for (u64 i = 0; i < count; ++i) {
      if (auto st = levels[0].invalidate(base_l1 + i)) {
        dirty = dirty || (*st == LineState::M);
        hist_[q][0].note_inval(base_l1 + i);
      }
    }
  }
  if (auto st = levels.back().invalidate(unit_line)) {
    dirty = dirty || (*st == LineState::M);
    hist_[q][levels.size() > 1 ? 1 : 0].note_inval(unit_line);
  }
  if constexpr (kTimed) ++ctr(q).invalidations_recv;
  return dirty;
}

bool MachineSim::downgrade_unit_at(u32 q, u64 unit_line) {
  auto& levels = caches_[q];
  bool dirty = false;
  if (levels.size() > 1) {
    const u64 base_l1 = unit_line << unit_vs_l1_shift_;
    const u64 count = u64{1} << unit_vs_l1_shift_;
    for (u64 i = 0; i < count; ++i) {
      if (auto st = levels[0].probe(base_l1 + i)) {
        dirty = dirty || (*st == LineState::M);
        levels[0].set_state(base_l1 + i, LineState::S);
      }
    }
  }
  if (auto st = levels.back().probe(unit_line)) {
    dirty = dirty || (*st == LineState::M);
    levels.back().set_state(unit_line, LineState::S);
  }
  return dirty;
}

template <bool kTimed>
void MachineSim::last_level_eviction(u32 proc, const Eviction& ev, u64 now) {
  [[maybe_unused]] perf::Counters& c = ctr(proc);
  [[maybe_unused]] const u32 ll_shift = caches_[proc].back().line_shift();
  [[maybe_unused]] const SimAddr byte_addr = ev.line_addr << ll_shift;
  [[maybe_unused]] const u32 home = kTimed ? home_of(byte_addr) : 0;

  // Back-invalidate L1 sublines (multilevel inclusion).
  bool l1_dirty = false;
  if (caches_[proc].size() > 1) {
    const u64 base_l1 = ev.line_addr << unit_vs_l1_shift_;
    const u64 count = u64{1} << unit_vs_l1_shift_;
    for (u64 i = 0; i < count; ++i) {
      if (auto st = caches_[proc][0].invalidate(base_l1 + i)) {
        l1_dirty = l1_dirty || (*st == LineState::M);
      }
    }
  }

  // One directory probe for the whole eviction: the slot found here is
  // updated in place and, once Uncached, erased through the same slot.
  Directory::Slot* slot = dir_.find_slot(ev.line_addr);
  proto_check(slot != nullptr,
              "evicted a copy of a unit the directory does not hold",
              ev.line_addr, proc);
  DirEntry& e = slot->value;
  const bool dirty = ev.state == LineState::M || l1_dirty;
  if (ev.state == LineState::S) {
    proto_check(e.state == DirState::Shared && e.is_sharer(proc),
                "evicted a Shared copy the directory does not record",
                ev.line_addr, proc);
    e.remove_sharer(proc);
    if (e.sharer_count() == 0) e.state = DirState::Uncached;
  } else {
    proto_check(e.state == DirState::Owned && e.owner == proc,
                "evicted an exclusive copy the directory does not attribute "
                "to this processor",
                ev.line_addr, proc);
    e.state = DirState::Uncached;
    e.sharers = 0;
    if (dirty) {
      if constexpr (kTimed) {
        ++c.writebacks;
        // Writebacks are posted through the write buffer; the processor does
        // not stall, but the home controller is occupied.
        mc_.post(home, now + net_.oneway(node_of_proc(proc), home));
      }
    }
  }
  e.migratory = false;
  e.has_dirty_reader = false;
  dir_.erase_if_uncached(*slot);
}

void MachineSim::proto_fail(const char* what, u64 unit, u32 proc) const {
  if (obs_ != nullptr) obs_->on_violation(what, unit, proc);
  log_error("protocol violation at unit ", unit, " (proc ", proc, "): ", what);
  throw ProtocolViolation(what, unit, proc);
}

}  // namespace dss::sim
