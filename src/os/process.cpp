#include "os/process.hpp"

#include <cmath>

namespace dss::os {

Process::Process(sim::MachineSim& machine, u32 cpu)
    : machine_(machine),
      cpu_(cpu),
      timeslice_(machine.config().timeslice_cycles),
      slice_end_(timeslice_) {
  machine_.attach_counters(cpu_, &ctr_);
}

void Process::set_timeslice(u64 cycles) {
  timeslice_ = cycles;
  slice_end_ = ctr_.cycles + timeslice_;
}

void Process::advance(double cycles, bool spinning, bool attributed) {
  cycle_acc_ += cycles;
  const u64 whole = static_cast<u64>(cycle_acc_);
  if (whole > 0) {
    cycle_acc_ -= static_cast<double>(whole);
    now_ += whole;
    ctr_.cycles += whole;
    if (spinning) ctr_.spin_cycles += whole;
    if (!attributed) {
      // Compute/spin work: the whole cycles actually banked go to the
      // matching CPI-stack bucket (stall cycles arrive pre-attributed).
      if (spinning) {
        ctr_.stack.spin += whole;
      } else {
        ctr_.stack.compute += whole;
      }
    }
    check_timeslice();
  }
}

void Process::check_timeslice() {
  // Preemption is paced by *accumulated thread time* (system daemons claim
  // the CPU after each quantum of useful work), so voluntary sleeps do not
  // suppress the involuntary rate — matching the paper's Fig. 10, where
  // involuntary switches keep their slow growth even as select() backoffs
  // explode.
  while (ctr_.cycles >= slice_end_) {
    ++ctr_.invol_ctx_switches;
    const u64 cost = machine_.config().ctx_switch_cost;
    now_ += cost;
    ctr_.cycles += cost;
    ctr_.stack.sched += cost;
    slice_end_ += timeslice_ + cost;
  }
}

void Process::instr(u64 n) {
  instr_acc_ += static_cast<double>(n) * machine_.config().instr_factor;
  ctr_.instructions = static_cast<u64>(instr_acc_);
  advance(static_cast<double>(n) * machine_.config().base_cpi, false);
}

void Process::spin(u64 n) {
  instr_acc_ += static_cast<double>(n) * machine_.config().instr_factor;
  ctr_.instructions = static_cast<u64>(instr_acc_);
  advance(static_cast<double>(n) * machine_.config().base_cpi, true);
}

void Process::read(sim::SimAddr a, u32 len) {
  const u64 stall = machine_.access(cpu_, sim::AccessKind::Read, a, len, now_);
  if (stall > 0) {
    // Integer stalls land whole in the clock (the fractional accumulator
    // stays < 1), so the machine's per-part split conserves exactly.
    ctr_.stack += machine_.stall_parts(cpu_);
    advance(static_cast<double>(stall), false, /*attributed=*/true);
  }
}

void Process::write(sim::SimAddr a, u32 len) {
  const u64 stall = machine_.access(cpu_, sim::AccessKind::Write, a, len, now_);
  if (stall > 0) {
    ctr_.stack += machine_.stall_parts(cpu_);
    advance(static_cast<double>(stall), false, /*attributed=*/true);
  }
}

void Process::atomic(sim::SimAddr a, u32 len) {
  const u64 stall =
      machine_.access(cpu_, sim::AccessKind::Atomic, a, len, now_);
  if (stall > 0) {
    ctr_.stack += machine_.stall_parts(cpu_);
    advance(static_cast<double>(stall), true, /*attributed=*/true);
  }
}

void Process::select_sleep(u64 cycles) {
  // select() blocks: the scheduler runs something else. Wall time passes,
  // thread time does not.
  ++ctr_.vol_ctx_switches;
  ++ctr_.select_sleeps;
  now_ += cycles;
}

double Process::thread_seconds() const {
  return static_cast<double>(ctr_.cycles) /
         (machine_.config().clock_mhz * 1e6);
}

}  // namespace dss::os
