#include "db/spinlock.hpp"

#include <algorithm>
#include <cassert>

namespace dss::db {

SpinLock::SpinLock(std::string name, sim::SimAddr addr, SpinPolicy policy)
    : name_(std::move(name)), addr_(addr), policy_(policy) {}

u64 SpinLock::free_at(u32 cpu, u64 t) const {
  // Chase overlapping holds until a fixed point: if another CPU held the
  // lock across t, we can get it no earlier than that hold's end — at which
  // point yet another recorded hold may cover us. Every step jumps only
  // over covered points, so the result is the least point >= t that no
  // other CPU's hold covers, whatever the scan order and step size. That
  // allows two shortcuts: skip a block whose span cannot contain t (a hold
  // covers t only if start <= t < end), and test a block's holds against
  // one t, jumping once to the furthest covering end (a branch-free scan).
  bool moved = true;
  while (moved) {
    moved = false;
    for (u32 b = 0; b < kBlocks; ++b) {
      if (t < span_[b].first_start || span_[b].last_end <= t) continue;
      u64 reach = t;
      for (u32 i = b * kBlock; i < (b + 1) * kBlock; ++i) {
        const Hold& h = ring_[i];
        const bool covers = h.cpu != cpu && h.start <= t && t < h.end;
        reach = covers && h.end > reach ? h.end : reach;
      }
      if (reach != t) {
        t = reach;
        moved = true;
      }
    }
  }
  return t;
}

void SpinLock::record(u32 cpu, u64 start, u64 end) {
  ring_[head_] = Hold{cpu, start, end};
  const u32 b = head_ / kBlock;
  Span& s = span_[b];
  if (head_ % kBlock == kBlock - 1) {
    // The block now holds only this sweep's holds: recompute its span
    // exactly, dropping the overwritten ones the fold below kept.
    s = Span{~u64{0}, 0};
    for (u32 i = b * kBlock; i < (b + 1) * kBlock; ++i) {
      s.first_start = std::min(s.first_start, ring_[i].start);
      s.last_end = std::max(s.last_end, ring_[i].end);
    }
  } else {
    s.first_start = std::min(s.first_start, start);
    s.last_end = std::max(s.last_end, end);
  }
  head_ = (head_ + 1) % kRing;
}

void SpinLock::acquire(os::Process& p) {
  ++acquires_;
  ++p.counters().lock_acquires;
  p.instr(cost::kSpinAcquire);

  const double mhz = p.machine().config().clock_mhz;
  u64 sleep_us = cost::kSelectSleepUs;
  while (true) {
    // TAS: an atomic RMW on the lock's cache line. Under contention this
    // line ping-pongs between CPUs — the expensive part of communication
    // the paper contrasts across the two machines.
    p.atomic(addr_);
    u64 t = p.now();
    u64 until = free_at(p.cpu(), t);
    if (until <= t) break;  // lock free: acquired

    ++collisions_;
    ++p.counters().lock_collisions;
    // Bounded spin: retry TAS while the convoy drains.
    u32 iters = 0;
    while (t < until && (iters < policy_.tas_attempts ||
                         !policy_.select_backoff)) {
      p.spin(cost::kSpinIterInstr);
      p.atomic(addr_);
      t = p.now();
      ++iters;
    }
    until = free_at(p.cpu(), t);
    if (until <= t) break;  // drained within the spin budget

    // Spin budget exhausted: back off with select(), exactly as s_lock does.
    // Thread time stops; wall time advances; one voluntary context switch.
    ++sleeps_;
    p.select_sleep(static_cast<u64>(static_cast<double>(sleep_us) * mhz));
    sleep_us = std::min<u64>(sleep_us * 2, cost::kSelectSleepMaxUs);
  }
  held_ = true;
  holder_ = p.cpu();
  held_since_ = p.now();
}

void SpinLock::release(os::Process& p) {
  assert(held_ && holder_ == p.cpu() && "release by non-holder");
  p.instr(cost::kSpinRelease);
  p.write(addr_, 8);
  record(p.cpu(), held_since_, p.now());
  held_ = false;
}

}  // namespace dss::db
