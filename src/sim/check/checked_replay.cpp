#include "sim/check/checked_replay.hpp"

#include <cassert>
#include <memory>
#include <mutex>

namespace dss::sim::check {

CheckedReplayResult checked_replay_batched(const MachineConfig& cfg,
                                           const std::vector<TraceRecord>& records,
                                           ReplayOptions opts,
                                           CheckerOptions copts) {
  assert(!opts.on_shard_start && !opts.on_shard_done);
  CheckedReplayResult out;
  // One checker per shard, created on the start seam (serial) and swept on
  // the done seam (the shard's own worker — shards never share a checker,
  // but the stats fold below is cross-shard, hence the mutex). Each shard
  // machine owns its checker, so the checker dies with the machine inside
  // replay_batched on every path, a shard failure included.
  std::vector<InvariantChecker*> checkers;
  std::mutex fold_mu;
  opts.on_shard_start = [&](u32 shard, MachineSim& m) {
    if (checkers.size() <= shard) checkers.resize(shard + 1);
    CheckerOptions shard_opts = copts;
    shard_opts.shard = static_cast<i32>(shard);
    auto checker = std::make_unique<InvariantChecker>(m, shard_opts);
    checkers[shard] = checker.get();
    m.own_observer(std::move(checker));
  };
  // Runs on the shard's own worker before each of its epochs, so a
  // violation thrown mid-epoch reports the window it happened in; the
  // checker belongs to that shard alone, so the stamp races with nothing.
  // The caller's own hook, if any, runs after the stamp.
  opts.on_epoch = [&, user_on_epoch = std::move(opts.on_epoch)](u32 shard,
                                                                 u64 epoch) {
    checkers[shard]->set_epoch(epoch);
    if (user_on_epoch) user_on_epoch(shard, epoch);
  };
  opts.on_shard_done = [&](u32 shard, MachineSim&) {
    InvariantChecker& c = *checkers[shard];
    c.full_sweep();
    {
      const std::lock_guard<std::mutex> lock(fold_mu);
      out.violations += c.violations().size();
      out.accesses_observed += c.accesses_observed();
      out.full_sweeps_run += c.full_sweeps_run();
    }
  };
  out.counters = replay_batched(cfg, records, opts, &out.stats);
  return out;
}

}  // namespace dss::sim::check
