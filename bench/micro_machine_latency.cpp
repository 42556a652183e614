// Machine-model validation microbenchmarks, after Iyer et al., "Comparing
// the Memory System Performance of the HP V-Class and SGI Origin 2000 ...
// Using Microbenchmarks and Scientific Applications" (ICS'99) — the
// companion study this paper cites for its communication-cost claims
// (reference [4]).
//
//   * lat_mem_rd-style load-to-use latency vs footprint (cache plateaus)
//   * Origin remote latency vs router hop count
//   * dirty-miss (cache-to-cache) latency on both machines
//   * lock handoff (atomic ping-pong) cost
//
// These run against the *unscaled* machine models, so the plateaus land at
// the real 2 MB / 32 KB / 4 MB capacities, and the printed cycle counts can
// be compared against the published measurements.
#include <iostream>
#include <vector>

#include "core/metrics.hpp"
#include "perf/counters.hpp"
#include "sim/machine.hpp"
#include "sim/machine_configs.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace dss::bench {
namespace {

using namespace dss::sim;

/// Average exposed cycles per dependent load while chasing random lines
/// within a footprint (classic lat_mem_rd).
double pointer_chase(const MachineConfig& cfg, u64 footprint) {
  MachineSim m(cfg);
  perf::Counters c;
  m.attach_counters(0, &c);
  Rng rng(footprint);
  const u64 lines = footprint / 32;
  u64 t = 0;
  // Warm up: touch everything once.
  for (u64 l = 0; l < lines; ++l) {
    t += 200 + m.access(0, AccessKind::Read, kSharedBase + l * 32, 8, t);
  }
  // Measure dependent random loads.
  const int probes = 20'000;
  u64 exposed = 0;
  for (int i = 0; i < probes; ++i) {
    const u64 l = static_cast<u64>(rng.uniform(0, static_cast<i64>(lines) - 1));
    const u64 e = m.access(0, AccessKind::Read, kSharedBase + l * 32, 8, t);
    exposed += e;
    t += 4 + e;
  }
  return static_cast<double>(exposed) / probes;
}

/// Read-miss latency to memory homed at increasing distance (Origin).
void remote_latency(std::ostream& os) {
  Table t({"hops (node)", "read latency (cycles)", "ns @250MHz"});
  for (u32 node : {0u, 1u, 2u, 6u, 14u}) {
    MachineConfig cfg = origin2000();
    cfg.shared_home_nodes = {node};
    MachineSim m(cfg);
    perf::Counters c;
    m.attach_counters(0, &c);
    u64 total = 0;
    const int probes = 2'000;
    u64 tm = 0;
    for (int i = 0; i < probes; ++i) {
      // Distinct lines: always a cold miss to the remote home.
      (void)m.access(0, AccessKind::Read, kSharedBase + static_cast<u64>(i) * 256,
                     8, tm += 300);
    }
    total = c.mem_latency_cycles / c.mem_requests;
    char label[32];
    std::snprintf(label, sizeof label, "%u (node %u)",
                  m.interconnect().hops(0, node), node);
    t.add_row({label, Table::num(static_cast<double>(total), 1),
               Table::num(static_cast<double>(total) * 4.0, 0)});
  }
  core::print_figure(os, "Origin 2000 remote read latency vs distance", t);
}

/// Cache-to-cache transfer (dirty miss) latency.
double dirty_miss_latency(const MachineConfig& cfg) {
  MachineSim m(cfg);
  perf::Counters c0, c1;
  m.attach_counters(0, &c0);
  m.attach_counters(1, &c1);
  // CPU1 sits on another node for NUMA machines.
  const u32 reader = cfg.uma ? 1 : cfg.procs_per_node;  // first off-node CPU
  m.attach_counters(reader, &c1);
  u64 t = 0;
  const int probes = 2'000;
  for (int i = 0; i < probes; ++i) {
    const SimAddr a = kSharedBase + static_cast<u64>(i) * 256;
    (void)m.access(0, AccessKind::Write, a, 8, t += 500);
    (void)m.access(reader, AccessKind::Read, a, 8, t += 500);
  }
  return static_cast<double>(c1.mem_latency_cycles) /
         static_cast<double>(c1.mem_requests);
}

/// Lock ping-pong: alternating atomics on one line.
double lock_pingpong(const MachineConfig& cfg) {
  MachineSim m(cfg);
  perf::Counters c0, c1;
  m.attach_counters(0, &c0);
  const u32 other = cfg.uma ? 1 : cfg.procs_per_node;
  m.attach_counters(other, &c1);
  u64 t = 0;
  for (int i = 0; i < 2'000; ++i) {
    (void)m.access(0, AccessKind::Atomic, kSharedBase, 8, t += 500);
    (void)m.access(other, AccessKind::Atomic, kSharedBase, 8, t += 500);
  }
  return static_cast<double>(c0.mem_latency_cycles + c1.mem_latency_cycles) /
         static_cast<double>(c0.mem_requests + c1.mem_requests);
}

}  // namespace

int micro_machine_latency(const core::BenchOptions& /*opts*/) {
  // lat_mem_rd plateaus.
  Table t({"footprint", "V-Class (cycles)", "Origin (cycles)"});
  const std::vector<u64> sizes = {16 * KiB,  64 * KiB,  256 * KiB, 1 * MiB,
                                  2 * MiB,   3 * MiB,   4 * MiB,   8 * MiB,
                                  16 * MiB};
  for (u64 s : sizes) {
    t.add_row({human_bytes(s), Table::num(pointer_chase(vclass(), s), 1),
               Table::num(pointer_chase(origin2000(), s), 1)});
  }
  core::print_figure(std::cout,
                     "lat_mem_rd: exposed load-to-use latency vs footprint",
                     t);
  std::cout << "Expected plateaus: V-Class flat to 2 MB then memory;\n"
               "Origin near-zero to 32 KB (L1), L2 cost to 4 MB, then "
               "memory.\n\n";

  remote_latency(std::cout);

  Table comm({"primitive", "V-Class (cycles)", "Origin (cycles)"});
  comm.add_row({"dirty miss (cache-to-cache)",
                Table::num(dirty_miss_latency(vclass()), 1),
                Table::num(dirty_miss_latency(origin2000()), 1)});
  comm.add_row({"lock ping-pong (atomic)",
                Table::num(lock_pingpong(vclass()), 1),
                Table::num(lock_pingpong(origin2000()), 1)});
  core::print_figure(std::cout, "Communication primitives (the paper's "
                                "'communication overhead is more expensive "
                                "in SGI Origin 2000')",
                     comm);
  return 0;
}

}  // namespace dss::bench
