// Interconnect and memory-controller model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/interconnect.hpp"
#include "sim/machine_configs.hpp"
#include "sim/memctrl.hpp"

namespace dss::sim {
namespace {

TEST(Interconnect, UmaIsUniform) {
  const Interconnect net(vclass());
  for (u32 a = 0; a < 8; ++a) {
    for (u32 b = 0; b < 8; ++b) {
      EXPECT_EQ(net.hops(a, b), 0u);
      EXPECT_EQ(net.oneway(a, b), vclass().net_oneway);
    }
  }
}

TEST(Interconnect, OriginBristledHypercubeHops) {
  const Interconnect net(origin2000());
  // Nodes 0,1 share router 0; nodes 2,3 share router 1.
  EXPECT_EQ(net.hops(0, 0), 0u);
  EXPECT_EQ(net.hops(0, 1), 0u);
  EXPECT_EQ(net.hops(0, 2), 1u);   // router 0 -> 1
  EXPECT_EQ(net.hops(0, 6), 2u);   // router 0 -> 3 (binary 00 -> 11)
  EXPECT_EQ(net.hops(0, 14), 3u);  // router 0 -> 7 (00 -> 111)
  EXPECT_EQ(net.hops(14, 0), 3u);  // symmetric
}

TEST(Interconnect, OriginLatencyGrowsWithDistance) {
  const auto cfg = origin2000();
  const Interconnect net(cfg);
  const u32 local = net.oneway(0, 0);
  const u32 same_router = net.oneway(0, 1);
  const u32 one_hop = net.oneway(0, 2);
  const u32 three_hop = net.oneway(0, 14);
  EXPECT_EQ(local, cfg.net_oneway);
  EXPECT_GT(same_router, local);  // off-node costs extra even on one router
  EXPECT_GT(one_hop, same_router);
  EXPECT_GT(three_hop, one_hop);
  EXPECT_EQ(three_hop - one_hop, 2 * cfg.per_hop);
}

TEST(Interconnect, DataPayloadAddsSerialization) {
  const auto cfg = origin2000();
  const Interconnect net(cfg);
  EXPECT_EQ(net.oneway_data(0, 2) - net.oneway(0, 2), cfg.line_transfer);
}

TEST(MemCtrl, NoLoadNoWait) {
  MemCtrl mc(4, 20);
  mc.begin_epoch(20'000);
  EXPECT_EQ(mc.request(0, 100), 0u);
  EXPECT_EQ(mc.request(0, 100), 0u);  // same-epoch requests see prev rate = 0
}

TEST(MemCtrl, ZeroCycleEpochIsIdleNotSaturated) {
  // The first scheduler window of an empty trial can begin an epoch of zero
  // cycles. Before the clamp this divided 0 requests by 0 cycles: NaN, which
  // std::min(0.97, NaN) silently turned into the saturation clamp — a
  // phantom ~16x-occupancy queue delay on a completely idle controller.
  MemCtrl mc(2, 20);
  mc.begin_epoch(0);
  EXPECT_EQ(mc.utilization(0), 0.0);
  EXPECT_EQ(mc.request(0, 100), 0u);

  // Same guard on the merged-epoch path, with load carried in: utilization
  // stays finite (clamped), never NaN.
  MemCtrl merged(2, 20);
  const u32 load[] = {50, 0};
  merged.install_merged(load, 2, 0);
  EXPECT_TRUE(std::isfinite(merged.utilization(0)));
  EXPECT_LE(merged.utilization(0), 0.97);
  EXPECT_EQ(merged.utilization(1), 0.0);
  EXPECT_EQ(merged.request(1, 100), 0u);
}

TEST(MemCtrl, QueueDelayGrowsWithPreviousEpochLoad) {
  MemCtrl mc(2, 50);
  mc.begin_epoch(10'000);
  // Load home 0 heavily, home 1 lightly.
  for (int i = 0; i < 150; ++i) (void)mc.request(0, 0);
  for (int i = 0; i < 2; ++i) (void)mc.request(1, 0);
  mc.begin_epoch(10'000);
  const u64 hot = mc.request(0, 0);
  const u64 cold = mc.request(1, 0);
  EXPECT_GT(hot, cold);
  // rho = 150*50/10000 = 0.75 -> M/D/1 wait = 0.75*50/(2*0.25) = 75 cycles.
  EXPECT_GE(hot, 50u);
}

TEST(MemCtrl, UtilizationClamped) {
  MemCtrl mc(1, 100);
  mc.begin_epoch(1'000);
  for (int i = 0; i < 1'000; ++i) (void)mc.request(0, 0);
  mc.begin_epoch(1'000);
  EXPECT_LE(mc.utilization(0), 0.97);
  // Even at full clamp the wait stays finite and bounded.
  EXPECT_LT(mc.request(0, 0), 100u * 20);
}

TEST(MemCtrl, PostAddsLoadButRuns) {
  MemCtrl mc(1, 10);
  mc.begin_epoch(1'000);
  mc.post(0, 5);
  EXPECT_EQ(mc.total_requests(0), 1u);
}

TEST(MemCtrl, CountersAccumulate) {
  MemCtrl mc(2, 10);
  mc.begin_epoch(100);
  for (int i = 0; i < 40; ++i) (void)mc.request(1, 0);
  mc.begin_epoch(100);
  (void)mc.request(1, 0);
  EXPECT_EQ(mc.total_requests(1), 41u);
  EXPECT_GT(mc.total_queue_cycles(1), 0u);
}

}  // namespace
}  // namespace dss::sim
