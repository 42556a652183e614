// Memory-controller occupancy model.
//
// Each home (an EMAC bank on the V-Class, a node's hub/memory on the Origin)
// services one request per `occupancy` cycles; concurrent query processes
// queue. Because the simulator advances processes in lockstep windows rather
// than true parallel order, requests arrive out of host order within a
// window; a naive busy-until model would serialize an entire window of one
// process ahead of another's. Queueing is therefore estimated from the
// per-home request *rate* observed in the previous scheduling epoch
// (an M/D/1-style delay), which is insensitive to intra-window ordering and
// still deterministic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace dss::sim {

class MemCtrl {
 public:
  MemCtrl(u32 num_homes, u32 occupancy, double burst = 2.0);

  /// Begin a new scheduling epoch of `epoch_cycles` (called by the
  /// scheduler each lockstep window). Rolls the rate estimate.
  void begin_epoch(u64 epoch_cycles);

  // --- epoch-merge support for the shard-parallel replay core ---

  /// Requests observed so far in the current epoch, per home. The sharded
  /// replay core seals every shard's counts at the end of an epoch and sums
  /// them into one merged vector.
  [[nodiscard]] const std::vector<u32>& epoch_counts() const {
    return cur_count_;
  }

  // --- deferred epoch resolve (pipelined replay core, DESIGN.md §14) ---

  /// Callback armed by the pipelined replay core at each epoch seal and
  /// invoked at most once, from `request()`, immediately before the first
  /// blocking request of the new epoch — the latest point at which the
  /// merged previous-epoch totals must be installed (posted requests and
  /// the hit path never read the delay memo). The implementation blocks
  /// until the merge is published, then calls `install_merged`.
  class EpochResolver {
   public:
    virtual ~EpochResolver() = default;
    virtual void resolve(MemCtrl& mc) = 0;
  };

  /// Arm (or, with nullptr, disarm) the deferred resolve for the epoch now
  /// beginning. The resolver object is not owned and must outlive the epoch.
  void set_pending_epoch(EpochResolver* r) { pending_ = r; }

  /// Install an externally merged per-home request count `merged[0..n)` as
  /// the finished epoch's rate estimate over `epoch_cycles`. Because every
  /// shard installs the *same* merged totals, queueing estimates in the
  /// next epoch are identical across shards and independent of the shard
  /// count — the determinism argument of DESIGN.md's sharded-core section.
  /// Leaves `cur_count_` untouched: by resolve time the running epoch may
  /// already have accumulated posted requests, which belong to *its* tally.
  void install_merged(const u32* merged, std::size_t n, u64 epoch_cycles);

  /// Zero the running epoch tallies (the pipelined core's seal snapshots
  /// them first).
  void reset_epoch_counts() {
    std::fill(cur_count_.begin(), cur_count_.end(), 0);
  }

  /// A blocking request at `home`; returns the estimated queueing delay in
  /// cycles (0 when the home is lightly loaded). The delay is a function of
  /// the *previous* epoch's rate only, so it is precomputed per home at each
  /// epoch roll — the per-request cost is two counter bumps and a load, not
  /// an M/D/1 evaluation (two FP divides) in the miss hot path.
  [[nodiscard]] u64 request(u32 home, u64 arrival) {
    (void)arrival;
    if (pending_ != nullptr) [[unlikely]] {
      resolve_pending();
    }
    ++cur_count_[home];
    ++requests_[home];
    const u64 wait = delay_memo_[home];
    queued_[home] += wait;
    return wait;
  }

  /// A posted (non-blocking) request such as a writeback: adds load but
  /// nobody waits for it.
  void post(u32 home, u64 arrival);

  [[nodiscard]] u64 total_requests(u32 home) const { return requests_[home]; }
  [[nodiscard]] u64 total_queue_cycles(u32 home) const { return queued_[home]; }
  [[nodiscard]] u32 num_homes() const {
    return static_cast<u32>(requests_.size());
  }
  [[nodiscard]] double utilization(u32 home) const;
  [[nodiscard]] u32 occupancy() const { return occupancy_; }

 private:
  [[nodiscard]] u64 queue_delay(u32 home) const;
  /// Refresh `delay_memo_` from the current rate estimate; called whenever
  /// `prev_count_` or `epoch_cycles_` changes.
  void recompute_delays();
  /// Out-of-line slow path of the `pending_` branch in request(): disarm,
  /// then run the resolver (which installs the merged totals).
  void resolve_pending();

  DSS_REPLAY_SAFE u32 occupancy_;
  DSS_REPLAY_SAFE double burst_;
  DSS_EPOCH_MERGED u64 epoch_cycles_ = 20'000;
  /// requests seen this epoch
  DSS_EPOCH_MERGED std::vector<u32> cur_count_;
  /// requests in the finished epoch
  DSS_EPOCH_MERGED std::vector<u32> prev_count_;
  DSS_EPOCH_MERGED std::vector<u64> requests_;
  DSS_EPOCH_MERGED std::vector<u64> queued_;
  /// queue_delay(home), this epoch
  DSS_EPOCH_MERGED std::vector<u64> delay_memo_;
  /// Armed deferred epoch resolve (pipelined replay only; nullptr otherwise).
  DSS_EPOCH_MERGED EpochResolver* pending_ = nullptr;
};

}  // namespace dss::sim
