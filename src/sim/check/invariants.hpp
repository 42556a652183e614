// Runtime coherence-invariant checker.
//
// An InvariantChecker attaches to a MachineSim through the ProtocolObserver
// seam and validates the global protocol invariants the figures depend on
// (DESIGN.md §9):
//
//   I1  single-writer / multiple-reader: at most one E/M copy of a coherence
//       unit machine-wide, and no S copy coexists with it
//   I2  directory -> caches: the directory's owner/sharer record matches
//       exactly what each processor's coherence-level cache holds
//   I3  caches -> directory: every resident coherence-level line is
//       registered with the directory in a compatible state
//   I4  multilevel inclusion (Origin): every L1 subline's unit is resident
//       in L2; L1 E/M implies L2 E/M; L1 M implies L2 M
//   I5  migratory legality (V-Class): migratory handoffs happen only with
//       the optimization enabled, never to the current owner itself, and
//       are accounted in the migratory_transfers counter
//   I6  no self-intervention: the directory never intervenes on, or
//       invalidates, the requesting processor itself (the PR 1 bug class)
//   I7  counter conservation: hits + misses = accesses (misses never exceed
//       references), L2 misses never exceed L1 misses, and
//       mem_requests = upgrades + last-level misses
//   I8  attribution conservation (when MachineSim attribution is on): the
//       per-cause miss breakdowns sum exactly to each level's miss counter,
//       and the per-object-class breakdown sums exactly to last-level misses
//   I9  cycle-accounting conservation: the CPI stack's components sum
//       exactly to the cycle counter
//
// Cost model: after every observed access the checker validates the touched
// units only (O(processors) per access); a configurable interval triggers a
// full sweep of the directory, every cache, and the counter identities. The
// checker never mutates simulator state, so a checked run's metrics are
// bit-identical to an unchecked run.
#pragma once

#include <string>
#include <vector>

#include "sim/machine.hpp"

namespace dss::sim::check {

struct Violation {
  std::string what;
  u64 unit = 0;
  u32 proc = 0;
};

struct CheckerOptions {
  /// Observed accesses between full global sweeps (0 disables periodic
  /// sweeps; targeted per-unit checks still run on every access).
  u64 full_sweep_interval = u64{1} << 14;
  /// Throw ProtocolViolation on the first violation (the default). When
  /// false, violations are collected and the run continues.
  bool fail_fast = true;
  /// Shard this checker's machine belongs to under checked_replay_batched,
  /// or -1 standalone. A non-negative shard makes every violation message
  /// carry "shard S, epoch E: " so a failure in a 8-shard replay says which
  /// partition and which merge window to re-run serially.
  i32 shard = -1;
};

class InvariantChecker final : public ProtocolObserver {
 public:
  /// Attaches to `m` as its protocol observer; detaches on destruction.
  explicit InvariantChecker(MachineSim& m, CheckerOptions opts = {});
  ~InvariantChecker() override;

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // --- ProtocolObserver ---
  void on_access(u32 proc, AccessKind kind, SimAddr addr, u32 len) override;
  void on_intervention(u32 requester, u32 owner, u64 unit) override;
  void on_invalidation(u32 requester, u32 target, u64 unit) override;
  void on_downgrade(u32 requester, u32 owner, u64 unit) override;
  void on_migratory_handoff(u32 requester, u32 owner, u64 unit) override;
  void on_violation(const char* what, u64 unit, u32 proc) override;

  /// Targeted invariants (I1, I2 for this unit, I4 for its sublines).
  void check_unit(u64 unit);

  /// Global sweep: every directory entry, every cache line, inclusion, and
  /// the counter conservation identities (I1-I5, I7-I9).
  void full_sweep();

  /// Advance the replay-epoch counter stamped into violation messages.
  /// Called by the shard's own replay worker before each epoch under
  /// checked_replay_batched; meaningless (and unused) standalone.
  void set_epoch(u64 epoch) { epoch_ = epoch; }
  [[nodiscard]] u64 epoch() const { return epoch_; }

  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] bool ok() const { return violations_.empty(); }

  // --- workload statistics (for overhead reporting) ---
  [[nodiscard]] u64 accesses_observed() const { return accesses_; }
  [[nodiscard]] u64 unit_checks_run() const { return unit_checks_; }
  [[nodiscard]] u64 full_sweeps_run() const { return sweeps_; }
  [[nodiscard]] u64 handoffs_observed() const { return handoffs_; }

 private:
  void report(std::string what, u64 unit, u32 proc);

  MachineSim& m_;
  CheckerOptions opts_;
  std::vector<Violation> violations_;
  u64 epoch_ = 0;
  u64 accesses_ = 0;
  u64 unit_checks_ = 0;
  u64 sweeps_ = 0;
  u64 handoffs_ = 0;
};

}  // namespace dss::sim::check
