// Simulated process (a PostgreSQL backend).
//
// A Process owns a CPU, a local cycle clock, and a hardware-counter block. It
// is the handle through which the DBMS issues work:
//   * instr(n)  — charge n instructions of pure compute (advances the clock
//                 by n * base CPI)
//   * read/write/atomic — issue a memory reference through the machine
//                 simulator and stall for the exposed latency
//   * spin(n)   — like instr but also accounted as spin-wait burn
//   * select_sleep(cycles) — the PostgreSQL s_lock backoff: a voluntary
//                 context switch; wall-clock time passes but thread time
//                 (the paper's metric) does not accumulate
//
// Involuntary context switches: whenever the local clock crosses a time-slice
// boundary the OS preempts (system daemons on the real machines); the switch
// cost is charged and counted. The paper's Fig. 10 separates the two classes.
#pragma once

#include "perf/counters.hpp"
#include "sim/machine.hpp"

namespace dss::os {

class Process {
 public:
  /// `cpu` is the machine processor this process is bound to (the paper
  /// assigns each query process its own processor).
  Process(sim::MachineSim& machine, u32 cpu);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // --- DBMS-facing work interface ---
  void instr(u64 n);
  void spin(u64 n);
  void read(sim::SimAddr a, u32 len);
  void write(sim::SimAddr a, u32 len);
  void atomic(sim::SimAddr a, u32 len = 8);
  void select_sleep(u64 cycles);

  // --- state ---
  [[nodiscard]] u64 now() const { return now_; }
  [[nodiscard]] u32 cpu() const { return cpu_; }
  [[nodiscard]] perf::Counters& counters() { return ctr_; }
  [[nodiscard]] const perf::Counters& counters() const { return ctr_; }
  [[nodiscard]] sim::MachineSim& machine() { return machine_; }

  /// Thread time in seconds at this machine's clock.
  [[nodiscard]] double thread_seconds() const;

  /// Shrink the effective time slice to model heavier system-daemon load as
  /// more query processes run (Fig. 10's slow involuntary growth).
  void set_timeslice(u64 cycles);

 private:
  /// Advance the clock. `attributed` marks a stall whose CPI-stack parts
  /// were already folded in from the machine's stall_parts(); otherwise the
  /// cycles are compute (or spin) and this attributes them itself.
  void advance(double cycles, bool spinning, bool attributed = false);
  void check_timeslice();

  sim::MachineSim& machine_;
  u32 cpu_;
  perf::Counters ctr_;
  u64 now_ = 0;            ///< absolute local clock, cycles
  double cycle_acc_ = 0.0; ///< fractional-cycle accumulator (base CPI)
  double instr_acc_ = 0.0; ///< instruction counter with platform skew
  u64 timeslice_;
  u64 slice_end_;
};

}  // namespace dss::os
