#include "sim/memctrl.hpp"

#include <algorithm>
#include <cassert>

namespace dss::sim {

MemCtrl::MemCtrl(u32 num_homes, u32 occupancy, double burst)
    : occupancy_(occupancy),
      burst_(burst),
      cur_count_(num_homes, 0),
      prev_count_(num_homes, 0),
      requests_(num_homes, 0),
      queued_(num_homes, 0),
      delay_memo_(num_homes, 0) {
  recompute_delays();
}

void MemCtrl::begin_epoch(u64 epoch_cycles) {
  // A zero-length epoch (the first scheduler window of an empty trial)
  // carries no rate information. Clamp to one cycle rather than dividing by
  // zero in utilization(): with zero requests observed, 0/0 would give NaN,
  // which std::min silently turns into the 0.97 saturation clamp — a ~16x
  // occupancy phantom delay on a completely idle controller.
  epoch_cycles_ = std::max<u64>(1, epoch_cycles);
  prev_count_ = cur_count_;
  std::fill(cur_count_.begin(), cur_count_.end(), 0);
  recompute_delays();
}

void MemCtrl::install_merged(const u32* merged, std::size_t n,
                             u64 epoch_cycles) {
  assert(n == prev_count_.size());
  epoch_cycles_ = std::max<u64>(1, epoch_cycles);  // see begin_epoch
  prev_count_.assign(merged, merged + n);
  recompute_delays();
}

void MemCtrl::resolve_pending() {
  EpochResolver* r = pending_;
  pending_ = nullptr;
  r->resolve(*this);
}

void MemCtrl::recompute_delays() {
  for (u32 h = 0; h < delay_memo_.size(); ++h) {
    delay_memo_[h] = queue_delay(h);
  }
}

double MemCtrl::utilization(u32 home) const {
  // Effective utilization includes the burstiness factor: misses arrive in
  // batches (a scan faults several lines back to back), so queueing kicks
  // in well before the mean rate saturates the controller. An idle home is
  // 0 by definition — checked first so no division (and no NaN through
  // std::min, which would mask as the saturation clamp) can occur even if
  // epoch_cycles_ were somehow zero.
  if (prev_count_[home] == 0 || epoch_cycles_ == 0) return 0.0;
  return std::min(0.97, burst_ * static_cast<double>(prev_count_[home]) *
                            occupancy_ /
                            static_cast<double>(epoch_cycles_));
}

u64 MemCtrl::queue_delay(u32 home) const {
  // M/D/1 mean wait: rho * s / (2 * (1 - rho)), capped by the utilization
  // clamp above so a saturated home costs ~16x occupancy, not infinity.
  const double rho = utilization(home);
  return static_cast<u64>(rho * occupancy_ / (2.0 * (1.0 - rho)));
}

void MemCtrl::post(u32 home, u64 arrival) {
  (void)arrival;
  assert(home < cur_count_.size());
  ++cur_count_[home];
  ++requests_[home];
}

}  // namespace dss::sim
