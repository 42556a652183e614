// Ablations: each runs the stock machine (or DBMS) next to variants that
// change one design choice the paper discusses.
#include "bench_common.hpp"

namespace dss::bench {

// Ablation — the V-Class migratory-sharing protocol enhancement on/off.
//
// Section 4.2.3 of the paper argues the enhancement hurts read-shared data
// pages slightly (the second reader's intervention invalidates instead of
// downgrading) but wins on lock/metadata lines (read-then-update becomes one
// transaction). This bench isolates that trade by toggling the option.
int abl_migratory(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  // Build every (query, nproc) x {migratory on, off} cell, then run the
  // whole ablation as one concurrent batch.
  std::vector<core::ExperimentConfig> cfgs;
  for (auto q : core::kQueries) {
    for (u32 np : {2u, 8u}) {
      const auto cfg = runner.cell(kVClass, q, np, opts.trials);
      cfgs.push_back(cfg);
      cfgs.push_back(machine_variant(
          cfg, "migratory=off",
          [](sim::MachineConfig& mc) { mc.migratory_opt = false; }));
    }
  }
  const auto results = run_exported(opts, runner, cfgs);

  Table t({"query", "nproc", "migratory: cycles", "off: cycles",
           "migratory: memlat", "off: memlat", "migratory: upgrades",
           "off: upgrades"});
  double on_upgrades = 0, off_upgrades = 0;
  std::size_t i = 0;
  for (auto q : core::kQueries) {
    for (u32 np : {2u, 8u}) {
      const auto& on = results[i++];
      const auto& off = results[i++];
      on_upgrades += static_cast<double>(on.mean.upgrades);
      off_upgrades += static_cast<double>(off.mean.upgrades);
      t.add_row({tpch::query_name(q), std::to_string(np),
                 Table::num(on.thread_time_cycles, 0),
                 Table::num(off.thread_time_cycles, 0),
                 Table::num(on.avg_mem_latency, 1),
                 Table::num(off.avg_mem_latency, 1),
                 Table::num(static_cast<double>(on.mean.upgrades), 0),
                 Table::num(static_cast<double>(off.mean.upgrades), 0)});
    }
  }
  core::print_figure(std::cout, "Ablation: V-Class migratory optimization", t);
  return report_claims(
      {{"migratory handoff eliminates upgrade transactions on "
        "read-then-update lines",
        on_upgrades < off_upgrades}});
}

// Ablation — the Origin 2000 speculative memory reply on/off.
//
// The speculative reply hides the third hop of a clean-owned read (the home
// ships the memory copy while confirming with the owner). The paper cites
// it when contrasting the machines' communication costs; this bench
// quantifies the latency it saves for multi-process scans, where every line
// is first read Exclusive by whichever process arrives first.
int abl_speculative(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  // Both legs of every (query, nproc) cell run as one concurrent batch.
  std::vector<core::ExperimentConfig> cfgs;
  for (auto q : core::kQueries) {
    for (u32 np : {2u, 8u}) {
      const auto cfg = runner.cell(kOrigin, q, np, opts.trials);
      cfgs.push_back(cfg);
      cfgs.push_back(machine_variant(
          cfg, "speculative=off",
          [](sim::MachineConfig& mc) { mc.speculative_reply = false; }));
    }
  }
  const auto results = run_exported(opts, runner, cfgs);

  Table t({"query", "nproc", "spec: memlat", "no-spec: memlat",
           "spec: cycles", "no-spec: cycles"});
  bool spec_faster = true;
  std::size_t i = 0;
  for (auto q : core::kQueries) {
    for (u32 np : {2u, 8u}) {
      const auto& on = results[i++];
      const auto& off = results[i++];
      spec_faster = spec_faster && on.avg_mem_latency <= off.avg_mem_latency;
      t.add_row({tpch::query_name(q), std::to_string(np),
                 Table::num(on.avg_mem_latency, 1),
                 Table::num(off.avg_mem_latency, 1),
                 Table::num(on.thread_time_cycles, 0),
                 Table::num(off.thread_time_cycles, 0)});
    }
  }
  core::print_figure(std::cout, "Ablation: Origin speculative memory reply", t);
  return report_claims(
      {{"speculative replies lower multi-process memory latency",
        spec_faster}});
}

// Ablation — Origin L2 line size, 32 B vs the real 128 B.
//
// Section 3.3: "the longer cache lines (128 bytes) decrease the cache
// misses for both Q6 and Q21, while the larger size of L2 cache has a
// smaller effect on cache misses for Q6 than for Q21." This bench isolates
// the line-size leg of that claim.
int abl_linesize(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  // Both line-size legs of every query run as one concurrent batch.
  std::vector<core::ExperimentConfig> cfgs;
  for (auto q : core::kQueries) {
    const auto cfg = runner.cell(kOrigin, q, 1, opts.trials);
    cfgs.push_back(cfg);  // stock 128 B
    cfgs.push_back(machine_variant(
        cfg, "l2_line=32 B",
        [](sim::MachineConfig& mc) { mc.dcache[1].line_bytes = 32; }));
  }
  const auto results = run_exported(opts, runner, cfgs);

  Table t({"query", "L2 line 32B: misses", "L2 line 128B: misses",
           "reduction x"});
  std::map<std::string, double> reduction;
  std::size_t i = 0;
  for (auto q : core::kQueries) {
    const auto& wide = results[i++];
    const auto& narrow = results[i++];
    const double red = narrow.l2d_misses / wide.l2d_misses;
    reduction[tpch::query_name(q)] = red;
    t.add_row({tpch::query_name(q), Table::num(narrow.l2d_misses, 0),
               Table::num(wide.l2d_misses, 0), Table::num(red, 2)});
  }
  core::print_figure(std::cout, "Ablation: Origin L2 line size", t);
  return report_claims(
      {{"longer lines cut L2 misses for the sequential query Q6 (>2x)",
        reduction["Q6"] > 2.0},
       {"longer lines help every query", reduction["Q21"] > 1.0 &&
                                             reduction["Q12"] > 1.0}});
}

// Ablation — Origin L2 capacity sweep (1/2/4/8 MB before scaling).
//
// Section 3.3's other leg: a bigger L2 helps the index query (Q21, whose
// index upper levels and heap hot set have reuse) much more than the
// sequential queries (Q6/Q12, which stream).
int abl_cachesize(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  // The whole (size x query) grid runs as one concurrent batch.
  const std::vector<u64> sizes = {1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB};
  std::vector<core::ExperimentConfig> cfgs;
  for (u64 sz : sizes) {
    for (auto q : core::kQueries) {
      cfgs.push_back(machine_variant(
          runner.cell(kOrigin, q, 1, opts.trials),
          "l2=" + human_bytes(sz),
          [sz](sim::MachineConfig& mc) { mc.dcache[1].size_bytes = sz; }));
    }
  }
  const auto results = run_exported(opts, runner, cfgs);

  Table t({"L2 size (unscaled)", "Q6 misses", "Q21 misses", "Q12 misses"});
  std::map<std::pair<int, u64>, double> misses;  // (query index, size)
  std::size_t i = 0;
  for (u64 sz : sizes) {
    std::vector<std::string> row{human_bytes(sz)};
    for (int qi = 0; qi < static_cast<int>(core::kQueries.size()); ++qi) {
      misses[{qi, sz}] = results[i++].l2d_misses;
      row.push_back(Table::num(misses[{qi, sz}], 0));
    }
    t.add_row(std::move(row));
  }
  core::print_figure(std::cout, "Ablation: Origin L2 capacity", t);

  const double q6_gain = misses[{0, 1 * MiB}] / misses[{0, 8 * MiB}];
  const double q21_gain = misses[{1, 1 * MiB}] / misses[{1, 8 * MiB}];
  return report_claims(
      {{"growing L2 helps the index query Q21 more than sequential Q6",
        q21_gain > q6_gain},
       {"Q6 is nearly capacity-insensitive (streaming)", q6_gain < 1.5}});
}

// Ablation — PostgreSQL's select() backoff vs pure spinning.
//
// Section 4.2.4: "While backoff using the select() call is perfect for
// uniprocessor systems, it is not so efficient in multiprocessors because
// query processes do not share the same processor. This increases the wall
// time (response time) significantly." With dedicated CPUs, pure spinning
// burns thread time but avoids 10ms sleeps; select() keeps thread time down
// at the cost of response time.
int abl_backoff(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  // Both spin policies at every process count run as one concurrent batch.
  std::vector<core::ExperimentConfig> cfgs;
  for (u32 np : {2u, 4u, 8u}) {
    // Q21 is the lock-heavy query.
    auto cfg = runner.cell(kVClass, tpch::QueryId::Q21, np, opts.trials);
    cfgs.push_back(cfg);
    cfg.spin_override = db::SpinPolicy{12, /*select_backoff=*/false};
    cfg.variant = "backoff=spin";
    cfgs.push_back(cfg);
  }
  const auto results = run_exported(opts, runner, cfgs);

  Table t({"nproc", "select(): wall s", "spin: wall s", "select(): vol/1Mi",
           "spin: vol/1Mi", "select(): spin-cycle %", "spin: spin-cycle %"});
  bool select_sleeps_more = true, spin_burns_more = true;
  bool spin_wall_not_worse = true;
  std::size_t i = 0;
  for (u32 np : {2u, 4u, 8u}) {
    const auto& sel = results[i++];
    const auto& spin = results[i++];
    const double sel_spin_pct = 100.0 *
                                static_cast<double>(sel.mean.spin_cycles) /
                                static_cast<double>(sel.mean.cycles);
    const double spin_spin_pct = 100.0 *
                                 static_cast<double>(spin.mean.spin_cycles) /
                                 static_cast<double>(spin.mean.cycles);
    select_sleeps_more =
        select_sleeps_more &&
        sel.vol_ctx_per_minstr > spin.vol_ctx_per_minstr;
    spin_burns_more = spin_burns_more && spin_spin_pct >= sel_spin_pct;
    spin_wall_not_worse =
        spin_wall_not_worse && spin.wall_seconds <= sel.wall_seconds * 1.02;
    t.add_row({std::to_string(np), Table::num(sel.wall_seconds, 3),
               Table::num(spin.wall_seconds, 3),
               Table::num(sel.vol_ctx_per_minstr, 3),
               Table::num(spin.vol_ctx_per_minstr, 3),
               Table::num(sel_spin_pct, 2), Table::num(spin_spin_pct, 2)});
  }
  core::print_figure(std::cout,
                     "Ablation: s_lock select() backoff vs pure spin (Q21, "
                     "V-Class)",
                     t);
  return report_claims(
      {{"select() backoff produces the voluntary context switches",
        select_sleeps_more},
       {"pure spinning shifts the cost into spin cycles", spin_burns_more},
       {"with dedicated CPUs, spinning does not hurt response time "
        "(the paper's criticism of select())",
        spin_wall_not_worse}});
}

// Ablation — Origin 2000 shared-segment home placement.
//
// Section 4.1.1 attributes the 6-to-8-process knee to "shared memory
// requests from different processors routed to the same node or a couple of
// different nodes which hold the shared memory for the DBMS". This bench
// contrasts homing the DBMS shared segment on 1 node, 2 nodes (stock), and
// round-robin across all 16 nodes.
int abl_placement(const core::BenchOptions& opts) {
  auto runner = make_runner(opts);

  struct Placement {
    const char* name;
    std::vector<u32> homes;
  };
  const std::vector<Placement> placements = {
      {"1 node", {0}},
      {"2 nodes (stock)", {0, 1}},
      {"4 active nodes", {0, 1, 2, 3}},
      {"all 16 nodes", {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}};

  // The whole (placement x nproc) grid runs as one concurrent batch.
  std::vector<core::ExperimentConfig> cfgs;
  for (const auto& pl : placements) {
    for (u32 np : {2u, 8u}) {
      cfgs.push_back(machine_variant(
          runner.cell(kOrigin, tpch::QueryId::Q6, np, opts.trials),
          std::string("homes=") + pl.name,
          [&pl](sim::MachineConfig& mc) { mc.shared_home_nodes = pl.homes; }));
    }
  }
  const auto results = run_exported(opts, runner, cfgs);

  Table t({"placement", "nproc", "cycles/1Mi", "memlat", "remote %"});
  std::map<std::pair<std::string, u32>, double> cpm;
  std::size_t i = 0;
  for (const auto& pl : placements) {
    for (u32 np : {2u, 8u}) {
      const auto& r = results[i++];
      cpm[{pl.name, np}] = r.cycles_per_minstr;
      t.add_row({pl.name, std::to_string(np),
                 Table::num(r.cycles_per_minstr, 0),
                 Table::num(r.avg_mem_latency, 1),
                 Table::num(100.0 * static_cast<double>(r.mean.remote_accesses) /
                                static_cast<double>(r.mean.mem_requests),
                            1)});
    }
  }
  core::print_figure(std::cout, "Ablation: shared-segment home placement "
                                "(Q6, Origin)", t);
  return report_claims(
      {{"concentrating the segment on 1 node costs more at 8 processes "
        "than spreading over the active nodes",
        cpm[{"1 node", 8}] > cpm[{"4 active nodes", 8}]},
       {"blind spreading over all 16 nodes adds distance without relieving "
        "a bottleneck (why the OS concentrated it in the first place)",
        cpm[{"all 16 nodes", 8}] > cpm[{"4 active nodes", 8}]},
       {"placement matters little at 2 processes (no contention to relieve)",
        std::abs(cpm[{"1 node", 2}] - cpm[{"2 nodes (stock)", 2}]) <
            0.01 * cpm[{"1 node", 2}]}});
}

}  // namespace dss::bench
