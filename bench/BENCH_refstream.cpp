// BENCH_refstream — replay-core counter scoreboard.
//
// Replays each synthetic reference pattern (sim/refstream.hpp) through the
// batched, shard-parallel replay core (sim/batch.hpp) on both machine
// models and reports the simulated counters of every stream. Its claim is
// that the shard partition is transparent: every counter is bit-identical
// at shards 1, 4 and 8. It measures no host time; replay throughput is
// perfbench's `replay` workload (perfbench/README.md).
//
// Cells: {V-Class, Origin 2000} x {5 patterns} x {shards 1, 4, 8}. The
// reference streams and all simulated counters depend only on --seed —
// never on the host, the shard count or --jobs. The record count per
// stream is fixed (not a flag) so runs are comparable across invocations
// by construction. `--epoch-records N` turns on the scheduling-epoch
// contention model (default off here), which is what engages the
// pipelined epoch engine at shards > 1. The sampled replay has no epoch
// model, so `--epoch-records` with a sampling schedule is a usage error.
#include <algorithm>
#include <iostream>
#include <iterator>
#include <tuple>

#include "bench_common.hpp"
#include "perf/platform_events.hpp"
#include "sim/batch.hpp"
#include "sim/machine_configs.hpp"
#include "sim/refstream.hpp"
#include "sim/sample/sample.hpp"

namespace dss::bench {
namespace {

/// Fixed stream length per pattern.
constexpr u64 kRecords = 200'000;

/// Shard counts per cell; kShards[0] must be 1 (the per-row baseline the
/// bit-identity claim compares against).
constexpr u32 kShards[] = {1, 4, 8};
constexpr std::size_t kVariants = std::size(kShards);

struct Cell {
  perf::Platform platform;
  sim::RefPattern pattern;
  u32 shards;
  std::vector<perf::Counters> counters;  ///< merged per-proc result
  sim::SampleReplayStats sample;         ///< sampled mode only
  core::RunResult result;                ///< derived from the summed counters
};

}  // namespace

int BENCH_refstream(const core::BenchOptions& opts) {
  const u32 jobs =
      opts.jobs == 0 ? dss::ThreadPool::default_jobs() : opts.jobs;
  std::cout << "(replay-core scoreboard: " << kRecords
            << " records per stream, seed " << opts.seed << ", jobs " << jobs
            << ", scale 1/" << opts.scale_denom;
  if (opts.epoch_records > 0) {
    std::cout << ", epoch-records " << opts.epoch_records;
  }
  std::cout << ")\n";

  std::unique_ptr<dss::ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<dss::ThreadPool>(jobs);

  const sim::SampleSchedule sched = opts.sample_schedule();
  if (sched.enabled()) {
    std::cout << "(sampled replay: N=" << sched.unit_records << " K="
              << sched.detail_every << " W=" << sched.warmup_records
              << ", detail fraction "
              << Table::num(100.0 * sched.detail_fraction(), 2) << "%)\n";
  }

  const std::vector<std::pair<perf::Platform, sim::MachineConfig>> machines = {
      {kVClass, sim::vclass().scaled(opts.scale_denom)},
      {kOrigin, sim::origin2000().scaled(opts.scale_denom)}};

  // One compile cache across every (pattern, shard-count) replay of a
  // machine: each stream compiles once per machine instead of once per
  // variant.
  sim::TraceCompileCache compile_cache;

  std::vector<Cell> cells;
  for (const auto& [platform, cfg] : machines) {
    for (u32 pi = 0; pi < sim::kNumRefPatterns; ++pi) {
      sim::RefStreamConfig rc;
      rc.pattern = static_cast<sim::RefPattern>(pi);
      rc.records = kRecords;
      rc.seed = opts.seed;
      const auto recs = sim::make_refstream(rc);
      for (u32 shards : kShards) {
        Cell cell;
        cell.platform = platform;
        cell.pattern = rc.pattern;
        cell.shards = shards;
        if (sched.enabled()) {
          sim::SampleReplayOptions so;
          so.shards = shards;
          so.pool = pool.get();
          so.compile_cache = &compile_cache;
          cell.counters =
              sim::sample_replay(cfg, recs, sched, so, &cell.sample);
        } else {
          sim::ReplayOptions ro;
          ro.shards = shards;
          ro.epoch_records = opts.epoch_records;
          ro.pool = pool.get();
          ro.compile_cache = &compile_cache;
          cell.counters = sim::replay_batched(cfg, recs, ro);
        }
        // A replay has no per-process trials to average: the stream is one
        // machine-wide sample of summed counters.
        perf::Counters sum;
        for (const auto& pc : cell.counters) sum += pc;
        const sim::ExecSampleSummary* summary = &cell.sample;
        cell.result = core::derive_result(sum, 1, sum.avg_mem_latency(), 0.0,
                                          1, sched, {summary, 1});
        cells.push_back(std::move(cell));
      }
    }
  }

  // Scoreboard: one row per (machine, pattern), the shards=1 counters
  // summed over processors (the other shard counts must match them).
  Table t({"machine", "pattern", "cycles", "l1 misses", "l2 misses",
           "mem requests", "cpi"});
  for (std::size_t i = 0; i + kVariants <= cells.size(); i += kVariants) {
    const perf::Counters& sum = cells[i].result.mean;
    t.add_row({perf::platform_name(cells[i].platform),
               sim::ref_pattern_name(cells[i].pattern),
               std::to_string(sum.cycles), std::to_string(sum.l1d_misses),
               std::to_string(sum.l2d_misses),
               std::to_string(sum.mem_requests),
               Table::num(cells[i].result.cpi, 3)});
  }
  core::print_figure(std::cout, "BENCH_refstream replay counters", t);
  if (sched.enabled() && !cells.empty()) {
    u64 total = 0, detailed = 0;
    for (const Cell& c : cells) {
      total += c.sample.total_refs;
      detailed += c.sample.detailed_refs;
    }
    std::cout << "sampled: " << detailed << " of " << total
              << " refs detailed ("
              << Table::num(detailed > 0 ? static_cast<double>(total) /
                                               static_cast<double>(detailed)
                                         : 0.0,
                            1)
              << "x fewer)\n\n";
  }

  std::vector<core::ExportCell> exported;
  for (const Cell& c : cells) {
    exported.push_back({.platform = perf::platform_name(c.platform),
                        .query = sim::ref_pattern_name(c.pattern),
                        .nproc = static_cast<u32>(c.counters.size()),
                        .variant = "shards=" + std::to_string(c.shards),
                        .result = c.result});
  }
  write_export(opts, std::move(exported));

  // The scoreboard's correctness claim: the shard partition really is
  // transparent — every simulated counter is bit-identical across shard
  // counts.
  auto key = [](const perf::Counters& c) {
    return std::tuple{c.cycles, c.l1d_misses, c.l2d_misses,
                      c.mem_latency_cycles, c.stack.total()};
  };
  bool identical = true;
  for (std::size_t i = 0; i + kVariants <= cells.size(); i += kVariants) {
    for (std::size_t v = 1; v < kVariants; ++v) {
      identical = identical && std::ranges::equal(cells[i].counters,
                                                  cells[i + v].counters, {},
                                                  key, key);
    }
  }
  return bench::report_claims(
      {{"replay results bit-identical across shard counts", identical}});
}

}  // namespace dss::bench
