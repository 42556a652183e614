// PostgreSQL-style spinlock (s_lock) on the simulated machine.
//
// Acquire = test-and-set on a shared line (real coherence traffic), a bounded
// spin of TAS retries, then backoff via select() — a voluntary context
// switch. Section 4.2.4 of the paper traces the voluntary-context-switch
// explosion at >= 2 query processes to exactly this code path.
//
// Contention model: processes execute in lockstep windows, not truly in
// parallel, so lock state cannot be observed live. Instead each lock records
// the recent (cpu, start, end) hold intervals; an acquire at local time t
// collides when t falls inside another CPU's recorded interval, and the
// waiter chases the chain of overlapping intervals (convoys form naturally).
#pragma once

#include <array>
#include <string>

#include "db/costs.hpp"
#include "os/process.hpp"
#include "sim/addr.hpp"

namespace dss::db {

/// Tunable backoff policy (the ablation benches contrast PostgreSQL's
/// spin-then-select() against pure spinning).
struct SpinPolicy {
  u32 tas_attempts = cost::kSpinTasAttempts;
  bool select_backoff = true;  ///< false = spin until the lock frees
};

class SpinLock {
 public:
  SpinLock(std::string name, sim::SimAddr addr, SpinPolicy policy = {});

  void acquire(os::Process& p);
  void release(os::Process& p);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] sim::SimAddr addr() const { return addr_; }
  [[nodiscard]] u64 total_acquires() const { return acquires_; }
  [[nodiscard]] u64 total_collisions() const { return collisions_; }
  [[nodiscard]] u64 total_sleeps() const { return sleeps_; }

 private:
  /// Drives record()/free_at() directly (tests/spinlock_test.cpp compares
  /// free_at() against a brute-force fixed point).
  friend struct SpinLockModelAccess;

  struct Hold {
    u32 cpu = 0;
    u64 start = 0;
    u64 end = 0;
  };

  /// Earliest time >= t at which no other CPU's recorded hold covers the
  /// lock (chases chained intervals — a convoy).
  [[nodiscard]] u64 free_at(u32 cpu, u64 t) const;

  void record(u32 cpu, u64 start, u64 end);

  std::string name_;
  sim::SimAddr addr_;
  SpinPolicy policy_;
  static constexpr u32 kRing = 128;
  /// Holds per skip block: free_at() passes over a block whose span does
  /// not contain t without reading its holds (none of them can cover t).
  static constexpr u32 kBlock = 16;
  static constexpr u32 kBlocks = kRing / kBlock;
  /// Bounds on a block's holds: every start >= first_start and every
  /// end <= last_end. Exact once the ring head leaves the block; while the
  /// head sweeps it they may also cover overwritten holds (still bounds).
  struct Span {
    u64 first_start = 0;
    u64 last_end = 0;
  };
  std::array<Hold, kRing> ring_{};
  std::array<Span, kBlocks> span_{};
  u32 head_ = 0;
  u64 held_since_ = 0;  ///< acquire time of the current holder
  u32 holder_ = 0;
  bool held_ = false;
  u64 acquires_ = 0;
  u64 collisions_ = 0;
  u64 sleeps_ = 0;
};

}  // namespace dss::db
