#include "sim/check/invariants.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_set>

#include "util/log.hpp"

namespace dss::sim::check {

namespace {
std::string state_name(LineState s) {
  switch (s) {
    case LineState::I: return "I";
    case LineState::S: return "S";
    case LineState::E: return "E";
    case LineState::M: return "M";
  }
  return "?";
}
}  // namespace

InvariantChecker::InvariantChecker(MachineSim& m, CheckerOptions opts)
    : m_(m), opts_(opts) {
  m_.set_observer(this);
}

InvariantChecker::~InvariantChecker() {
  if (m_.observer() == this) m_.set_observer(nullptr);
}

void InvariantChecker::report(std::string what, u64 unit, u32 proc) {
  // Under a sharded replay, say which partition and merge window failed —
  // with several shards the message alone does not say which machine a
  // violation happened on, and the epoch tells the debugger which window
  // to re-run serially.
  if (opts_.shard >= 0) {
    what = "shard " + std::to_string(opts_.shard) + ", epoch " +
           std::to_string(epoch_) + ": " + what;
  }
  log_error("invariant checker: ", what, " (unit ", unit, ", proc ", proc,
            ")");
  violations_.push_back({what, unit, proc});
  if (opts_.fail_fast) throw ProtocolViolation(what, unit, proc);
}

void InvariantChecker::on_access(u32 proc, AccessKind kind, SimAddr addr,
                                 u32 len) {
  (void)proc, (void)kind;
  ++accesses_;
  const u32 ll_shift = m_.cache(0, m_.config().levels() - 1).line_shift();
  const u64 first = addr >> ll_shift;
  const u64 last = (addr + len - 1) >> ll_shift;
  for (u64 unit = first; unit <= last; ++unit) check_unit(unit);
  if (opts_.full_sweep_interval != 0 &&
      accesses_ % opts_.full_sweep_interval == 0) {
    full_sweep();
  }
}

void InvariantChecker::on_intervention(u32 requester, u32 owner, u64 unit) {
  if (requester == owner) {
    report("I6: directory intervened on the requesting processor itself",
           unit, requester);
  }
}

void InvariantChecker::on_invalidation(u32 requester, u32 target, u64 unit) {
  if (requester == target) {
    report("I6: directory invalidated the requesting processor's own copy",
           unit, requester);
  }
}

void InvariantChecker::on_downgrade(u32 requester, u32 owner, u64 unit) {
  if (requester == owner) {
    report("I6: directory downgraded the requesting processor's own copy",
           unit, requester);
  }
}

void InvariantChecker::on_migratory_handoff(u32 requester, u32 owner,
                                            u64 unit) {
  ++handoffs_;
  if (!m_.config().migratory_opt) {
    report("I5: migratory handoff with the optimization disabled", unit,
           requester);
  }
  if (requester == owner) {
    report("I5: migratory handoff to the current owner itself", unit,
           requester);
  }
}

void InvariantChecker::on_violation(const char* what, u64 unit, u32 proc) {
  // The machine's proto_check guard throws right after this hook returns.
  // Standalone, just record the event and let that exception fly. Under a
  // sharded replay (shard set), throw the shard/epoch-stamped message from
  // here instead — same exception type, same control flow, but the text
  // says which partition and merge window to re-run serially.
  if (opts_.shard < 0) {
    violations_.push_back({what, unit, proc});
    return;
  }
  const std::string tagged = "shard " + std::to_string(opts_.shard) +
                             ", epoch " + std::to_string(epoch_) + ": " +
                             what;
  violations_.push_back({tagged, unit, proc});
  throw ProtocolViolation(tagged, unit, proc);
}

void InvariantChecker::check_unit(u64 unit) {
  ++unit_checks_;
  const MachineConfig& cfg = m_.config();
  const u32 last = cfg.levels() - 1;
  const u32 nproc = cfg.num_processors;

  // Gather the coherence-level view of this unit across all processors.
  u32 excl_holders = 0;
  u32 shared_holders = 0;
  u32 excl_proc = 0;
  for (u32 p = 0; p < nproc; ++p) {
    const auto st = m_.cache(p, last).probe(unit);
    if (!st.has_value()) continue;
    if (is_exclusive(*st)) {
      ++excl_holders;
      excl_proc = p;
    } else {
      ++shared_holders;
    }
  }

  // I1: single writer, and no readers while a writer exists.
  if (excl_holders > 1) {
    report("I1: more than one exclusive (E/M) copy of a unit", unit,
           excl_proc);
  }
  if (excl_holders > 0 && shared_holders > 0) {
    report("I1: S copy coexists with an E/M copy", unit, excl_proc);
  }

  // I2/I3: directory and caches agree on this unit.
  const DirEntry* e = m_.directory().probe(unit);
  const DirState dstate = e == nullptr ? DirState::Uncached : e->state;
  switch (dstate) {
    case DirState::Uncached:
      for (u32 p = 0; p < nproc; ++p) {
        if (m_.cache(p, last).probe(unit).has_value()) {
          report("I2: directory-uncached unit resident in a cache", unit, p);
        }
      }
      break;
    case DirState::Shared: {
      if (e->sharer_count() == 0) {
        report("I2: Shared directory entry with an empty sharer set", unit, 0);
      }
      if (nproc < 64 && (e->sharers >> nproc) != 0) {
        report("I2: sharer bits set beyond the processor count", unit, 0);
      }
      for (u32 p = 0; p < nproc; ++p) {
        const auto st = m_.cache(p, last).probe(unit);
        if (e->is_sharer(p)) {
          if (!st.has_value()) {
            report("I2: directory sharer does not hold the unit", unit, p);
          } else if (is_exclusive(*st)) {
            report("I2: directory sharer holds the unit in " +
                       state_name(*st),
                   unit, p);
          }
        } else if (st.has_value()) {
          report("I3: non-sharer holds a copy of a Shared unit", unit, p);
        }
      }
      break;
    }
    case DirState::Owned: {
      if (e->owner >= nproc) {
        report("I2: directory owner out of processor range", unit, e->owner);
        break;
      }
      const auto st = m_.cache(e->owner, last).probe(unit);
      if (!st.has_value()) {
        report("I2: directory owner does not hold the unit", unit, e->owner);
      } else if (!is_exclusive(*st)) {
        report("I2: directory owner holds the unit in " + state_name(*st),
               unit, e->owner);
      }
      for (u32 p = 0; p < nproc; ++p) {
        if (p != e->owner && m_.cache(p, last).probe(unit).has_value()) {
          report("I3: second copy of an exclusively-owned unit", unit, p);
        }
      }
      break;
    }
  }
  if (e != nullptr && e->has_dirty_reader && e->last_dirty_reader >= nproc) {
    report("I5: migratory dirty-reader record out of processor range", unit,
           e->last_dirty_reader);
  }

  // I4: multilevel inclusion and level state compatibility for this unit.
  if (last > 0) {
    const u32 shift =
        m_.cache(0, last).line_shift() - m_.cache(0, 0).line_shift();
    const u64 base_l1 = unit << shift;
    const u64 count = u64{1} << shift;
    for (u32 p = 0; p < nproc; ++p) {
      const auto st2 = m_.cache(p, last).probe(unit);
      for (u64 i = 0; i < count; ++i) {
        const auto st1 = m_.cache(p, 0).probe(base_l1 + i);
        if (!st1.has_value()) continue;
        if (!st2.has_value()) {
          report("I4: L1 subline resident without its L2 unit (inclusion)",
                 unit, p);
          continue;
        }
        if (is_exclusive(*st1) && !is_exclusive(*st2)) {
          report("I4: L1 " + state_name(*st1) + " subline above L2 " +
                     state_name(*st2),
                 unit, p);
        }
        if (*st1 == LineState::M && *st2 != LineState::M) {
          report("I4: dirty L1 subline above a non-dirty L2 unit", unit, p);
        }
      }
    }
  }
}

void InvariantChecker::full_sweep() {
  ++sweeps_;
  const MachineConfig& cfg = m_.config();
  const u32 last = cfg.levels() - 1;
  const u32 nproc = cfg.num_processors;
  const u32 shift =
      last > 0 ? m_.cache(0, last).line_shift() - m_.cache(0, 0).line_shift()
               : 0;

  // Union of every unit the directory or any cache level knows about; a
  // check_unit() on each covers I1-I5 for the whole machine (a unit cached
  // anywhere but unknown to the directory is caught by the Uncached arm,
  // and an orphan L1 subline by the inclusion arm).
  // Ordered set: check_unit() runs in unit order so any violation report is
  // deterministic across runs and standard libraries (dss-lint enforces
  // this; it used to be an unordered_set).
  std::set<u64> units;
  m_.directory().for_each(
      [&](u64 unit, const DirEntry&) { units.insert(unit); });
  for (u32 p = 0; p < nproc; ++p) {
    m_.cache(p, last).for_each_line(
        [&](u64 unit, LineState) { units.insert(unit); });
    if (last > 0) {
      m_.cache(p, 0).for_each_line(
          [&](u64 l1_line, LineState) { units.insert(l1_line >> shift); });
    }
  }
  for (u64 unit : units) check_unit(unit);

  // I7: per-counter conservation identities. Valid because every counter
  // block is attached at machine construction (os::Process does this in its
  // constructor) and the simulator only ever adds to them.
  bool all_attached = true;
  u64 sum_dirty = 0, sum_interventions = 0, sum_migratory = 0;
  // dss-lint: allow(pointer-key) membership-only dedup of shared counter blocks; never iterated
  std::unordered_set<const perf::Counters*> seen;
  for (u32 p = 0; p < nproc; ++p) {
    const perf::Counters* c = m_.attached_counters(p);
    if (c == nullptr) {
      all_attached = false;
      continue;
    }
    if (!seen.insert(c).second) continue;  // shared block: count once
    const u64 refs = c->loads + c->stores + c->atomics;
    if (c->l1d_misses > refs) {
      report("I7: L1 misses exceed references (hits would be negative)", 0,
             p);
    }
    if (c->l2d_misses > c->l1d_misses) {
      report("I7: L2 misses exceed L1 misses", 0, p);
    }
    const u64 last_misses = last > 0 ? c->l2d_misses : c->l1d_misses;
    if (c->mem_requests != c->upgrades + last_misses) {
      std::ostringstream oss;
      oss << "I7: mem_requests (" << c->mem_requests
          << ") != upgrades + last-level misses (" << c->upgrades << " + "
          << last_misses << ")";
      report(oss.str(), 0, p);
    }
    // I8: every miss has exactly one recorded cause, and every last-level
    // miss exactly one object class.
    if (c->l1_miss_causes.total() != c->l1d_misses) {
      std::ostringstream oss;
      oss << "I8: L1 miss causes sum to " << c->l1_miss_causes.total()
          << " but l1d_misses is " << c->l1d_misses;
      report(oss.str(), 0, p);
    }
    if (c->l2_miss_causes.total() != (last > 0 ? c->l2d_misses : u64{0})) {
      std::ostringstream oss;
      oss << "I8: L2 miss causes sum to " << c->l2_miss_causes.total()
          << " but l2d_misses is " << c->l2d_misses;
      report(oss.str(), 0, p);
    }
    u64 obj_total = 0;
    for (u32 i = 0; i < perf::kNumObjClasses; ++i) {
      obj_total += c->obj_misses[i];
      if (c->obj_comm_misses[i] > c->obj_misses[i]) {
        report("I8: communication misses exceed total misses for object "
               "class " +
                   std::string(perf::obj_class_name(
                       static_cast<perf::ObjClass>(i))),
               0, p);
      }
    }
    if (obj_total != last_misses) {
      std::ostringstream oss;
      oss << "I8: object-class misses sum to " << obj_total
          << " but last-level misses is " << last_misses;
      report(oss.str(), 0, p);
    }
    // I9: the CPI stack conserves against the cycle counter. Both lag the
    // in-flight access identically (the OS folds the machine's stall
    // parts in the instant it banks the stall cycles).
    if (c->stack.total() != c->cycles) {
      std::ostringstream oss;
      oss << "I9: CPI stack sums to " << c->stack.total() << " but cycles is "
          << c->cycles;
      report(oss.str(), 0, p);
    }
    sum_dirty += c->dirty_misses;
    sum_interventions += c->cache_interventions;
    sum_migratory += c->migratory_transfers;
  }
  if (!cfg.migratory_opt && sum_migratory != 0) {
    report("I5: migratory transfers counted with the optimization disabled",
           0, 0);
  }
  if (all_attached) {
    // Aggregate identities need every processor's events to be visible.
    if (sum_dirty > sum_interventions) {
      report("I7: dirty misses exceed cache interventions machine-wide", 0,
             0);
    }
    if (handoffs_ > sum_migratory) {
      report("I5: observed migratory handoffs exceed the counted transfers",
             0, 0);
    }
  }
}

}  // namespace dss::sim::check
