// Extensions: more plan shapes, query mixes and the refresh (write) path.
#include <algorithm>
#include <iterator>

#include "bench_common.hpp"
#include "os/process.hpp"
#include "tpch/gen.hpp"
#include "tpch/refresh.hpp"

namespace dss::bench {

// Extension study — the full six-query suite (the paper's Q6/Q21/Q12 plus
// Q1/Q3/Q14) on both machines, extending the paper's single-process
// characterization to more plan shapes:
//   Q1  pure sequential aggregation (heaviest compute per tuple)
//   Q3  hash join + index join
//   Q14 scan + point lookups into a small dimension table
int ext_queries(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  const std::vector<tpch::QueryId> all = {
      tpch::QueryId::Q1, tpch::QueryId::Q3,  tpch::QueryId::Q6,
      tpch::QueryId::Q12, tpch::QueryId::Q14, tpch::QueryId::Q21};

  // One batch: all twelve (query, machine) cells run concurrently.
  const auto cells =
      core::cell_grid(std::vector{kVClass, kOrigin}, all, std::vector{1u});
  const core::CellBatch batch = run_batch_exported(opts, runner, cells);

  Table t({"query", "machine", "cycles", "CPI", "L1d/1Mi", "L2d/1Mi",
           "descents", "memlat"});
  bool comparable = true;
  for (auto q : all) {
    for (auto pl : {kVClass, kOrigin}) {
      const auto& r = batch.at({pl, q, 1});
      t.add_row({tpch::query_name(q), pl == kVClass ? "V-Class" : "Origin",
                 Table::num(r.thread_time_cycles, 0), Table::num(r.cpi, 3),
                 Table::num(r.l1d_per_minstr, 0),
                 Table::num(r.l2d_per_minstr, 0),
                 Table::num(static_cast<double>(r.mean.index_descents), 0),
                 Table::num(r.avg_mem_latency, 1)});
    }
    const double hpv = batch.at({kVClass, q, 1}).thread_time_cycles;
    const double sgi = batch.at({kOrigin, q, 1}).thread_time_cycles;
    comparable = comparable && std::abs(sgi / hpv - 1.0) < 0.2;
  }
  core::print_figure(std::cout,
                     "Extension: six-query characterization, 1 process", t);
  return report_claims(
      {{"the paper's 1-process finding (comparable cycles on both machines) "
        "extends to all six plan shapes",
        comparable}});
}

// Extension — heterogeneous multiprogramming.
//
// The paper runs N copies of the *same* query; real DSS systems run mixes.
// This bench runs {Q6, Q21, Q12} concurrently (plus a 6-way mix with the
// extension queries) and compares each query's thread time against its solo
// run — the interference cost of sharing the memory system with different
// plan shapes.
int ext_mixed(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  const std::vector<tpch::QueryId> mix3 = {
      tpch::QueryId::Q6, tpch::QueryId::Q21, tpch::QueryId::Q12};
  const std::vector<tpch::QueryId> mix6 = {
      tpch::QueryId::Q1, tpch::QueryId::Q3,  tpch::QueryId::Q6,
      tpch::QueryId::Q12, tpch::QueryId::Q14, tpch::QueryId::Q21};

  bool interference_bounded = true;
  std::vector<core::ExportCell> cells;
  for (auto pl : {kVClass, kOrigin}) {
    const char* mname = pl == kVClass ? "V-Class" : "Origin";
    // Both mixes share Q6, Q21 and Q12: each solo cell runs (and is
    // exported) once per platform, at its first use.
    std::map<tpch::QueryId, core::RunResult> solos;
    for (const auto& mix : {mix3, mix6}) {
      Table t({"query", "solo cycles", "mixed cycles", "slowdown"});
      const auto mix_cell = runner.cell(
          pl, mix.front(), static_cast<u32>(mix.size()), opts.trials);
      const auto mixed = runner.run_mix(mix_cell, mix);
      std::ranges::move(core::export_mix(mix_cell, mix, mixed),
                        std::back_inserter(cells));
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto it = solos.find(mix[i]);
        if (it == solos.end()) {
          const auto solo = runner.cell(pl, mix[i], 1, opts.trials);
          it = solos.emplace(mix[i], runner.run(solo)).first;
          cells.push_back(core::export_cell(solo, it->second));
        }
        const core::RunResult& solo = it->second;
        const double slow =
            mixed[i].thread_time_cycles / solo.thread_time_cycles;
        interference_bounded = interference_bounded && slow < 1.25;
        t.add_row({tpch::query_name(mix[i]),
                   Table::num(solo.thread_time_cycles, 0),
                   Table::num(mixed[i].thread_time_cycles, 0),
                   Table::num(slow, 3)});
      }
      core::print_figure(std::cout,
                         std::string("Mixed workload (") +
                             std::to_string(mix.size()) + " queries) on " +
                             mname,
                         t);
    }
  }
  write_export(opts, std::move(cells));
  return report_claims(
      {{"read-only DSS queries interfere mildly (thread-time slowdown "
        "<25%), like the paper's same-query runs",
        interference_bounded}});
}

// Extension — TPC-H refresh functions RF1/RF2 on both machines.
//
// The paper skips the refresh functions; this bench characterizes the write
// path the same way Section 3 characterizes the read path: cycles, CPI and
// cache behaviour of a spec-sized insert batch (RF1) and delete batch (RF2).
int rf_functions(const core::BenchOptions& opts) {
  std::cout << "(fresh TPC-H database per run; batch = 0.1% of orders)\n";

  Table t({"function", "machine", "rows", "cycles", "CPI", "L1d misses",
           "writebacks", "index splits observed"});
  bool writes_cost_more_on_origin = true;
  std::map<int, double> rf1_cycles;
  for (int mi = 0; mi < 2; ++mi) {
    const bool hp = mi == 0;
    for (int fn = 0; fn < 2; ++fn) {
      tpch::GenConfig gen;
      gen.scale_factor = 0.2 / opts.scale_denom;
      gen.seed = opts.seed;
      auto dbase = tpch::build_database(gen);
      const u32 pages_before =
          dbase->index("lineitem_orderkey_idx").num_pages();

      sim::MachineConfig mc =
          (hp ? sim::vclass() : sim::origin2000()).scaled(opts.scale_denom);
      sim::MachineSim machine(mc);
      db::RuntimeConfig rc;
      rc.pool_frames = core::ScaleConfig{opts.scale_denom}.pool_frames();
      db::DbRuntime rt(*dbase, rc);
      machine.set_addr_classes(&rt.addr_classes());
      rt.prewarm_all();
      os::Process proc(machine, 0);

      tpch::RefreshConfig cfg;
      cfg.seed = opts.seed + 7;
      const auto res = fn == 0 ? tpch::rf1(*dbase, rt, proc, cfg)
                               : tpch::rf2(*dbase, rt, proc, cfg);
      const auto& c = proc.counters();
      if (fn == 0) rf1_cycles[mi] = static_cast<double>(c.cycles);
      const u32 splits =
          dbase->index("lineitem_orderkey_idx").num_pages() - pages_before;
      t.add_row({fn == 0 ? "RF1 (insert)" : "RF2 (delete)",
                 hp ? "V-Class" : "Origin",
                 Table::num(static_cast<double>(res.orders + res.lineitems), 0),
                 Table::num(static_cast<double>(c.cycles), 0),
                 Table::num(c.cpi(), 3),
                 Table::num(static_cast<double>(c.l1d_misses), 0),
                 Table::num(static_cast<double>(c.writebacks), 0),
                 Table::num(static_cast<double>(splits), 0)});
    }
  }
  core::print_figure(std::cout, "Extension: refresh functions RF1/RF2", t);
  writes_cost_more_on_origin = rf1_cycles[1] < rf1_cycles[0] * 1.25;
  return report_claims(
      {{"single-process write batches, like reads, take comparable cycles "
        "on the two machines",
        writes_cost_more_on_origin}});
}

}  // namespace dss::bench
