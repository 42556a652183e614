// The paper's evaluation, Figs. 2-10: one `dss_bench` experiment per figure.
// The cells a figure runs and the claims it checks are its row in
// core/claims; this file prints the figures.

#include <stdexcept>
#include <string_view>

#include "bench_common.hpp"

namespace dss::bench {
namespace {

using core::CellBatch;

/// Print Figs. 2-4's pair of tables, (a) at 1 process and (b) at 8, with
/// one row per query: `row(query, V-Class result, Origin result)`.
template <class Row>
void print_one_and_eight(const CellBatch& batch,
                         const std::vector<std::string>& headers,
                         const std::string& title_1,
                         const std::string& title_8, Row row) {
  for (u32 np : {1u, 8u}) {
    Table t(headers);
    for (auto q : core::kQueries) {
      t.add_row(row(q, batch.at({kVClass, q, np}), batch.at({kOrigin, q, np})));
    }
    core::print_figure(std::cout, np == 1 ? title_1 : title_8, t);
  }
}

/// Print one metric of `platform`'s (query x nproc) sweep as the paper's
/// line-chart table: one row per process count, one column per query.
void print_sweep(const std::string& title, const CellBatch& batch,
                 perf::Platform platform, double core::RunResult::*metric,
                 int precision) {
  // Headers and column count follow core::kQueries, so extending the query
  // list extends every figure table with it.
  std::vector<std::string> headers{"processes"};
  for (auto q : core::kQueries) headers.emplace_back(tpch::query_name(q));
  Table t(std::move(headers));
  for (u32 np : core::kProcSeries) {
    std::vector<std::string> row{std::to_string(np)};
    for (auto q : core::kQueries) {
      row.push_back(Table::num(batch.at({platform, q, np}).*metric, precision));
    }
    t.add_row(std::move(row));
  }
  core::print_figure(std::cout, title, t);
}

/// Print `value` of each query's 8-process cell on `platform`.
template <class Value>
void print_at_8(const std::string& title, const std::string& header,
                const CellBatch& batch, perf::Platform platform,
                int precision, Value value) {
  Table t({"query", header});
  for (auto q : core::kQueries) {
    t.add_row({std::string(tpch::query_name(q)),
               Table::num(value(batch.at({platform, q, 8})), precision)});
  }
  core::print_figure(std::cout, title, t);
}

/// The one figure driver: run the cells of `experiment`'s row as one batch,
/// print the figure, then report the row's claims. Returns the number of
/// claims that do not reproduce.
int run_figure(const core::BenchOptions& opts, std::string_view experiment,
               void (*print)(const CellBatch&, const core::BenchOptions&)) {
  for (const core::Figure& fig : core::figures()) {
    if (fig.experiment != experiment) continue;
    auto runner = make_runner(opts);
    const CellBatch batch = core::run_batch(runner, fig.cells, opts.trials);
    print(batch, opts);
    return report_claims(fig.claims(batch));
  }
  throw std::logic_error("no figure row for " + std::string(experiment));
}

void print_fig2(const CellBatch& batch, const core::BenchOptions&) {
  print_one_and_eight(
      batch,
      {"query", "HP V-Class (cycles)", "SGI Origin 2000 (cycles)", "HPV (s)",
       "SGI (s)"},
      "Fig. 2(a) Thread time, 1 query process",
      "Fig. 2(b) Thread time, 8 query processes",
      [](tpch::QueryId q, const core::RunResult& hpv,
         const core::RunResult& sgi) -> std::vector<std::string> {
        return {tpch::query_name(q), Table::num(hpv.thread_time_cycles, 0),
                Table::num(sgi.thread_time_cycles, 0),
                Table::num(hpv.thread_time_cycles / 200e6, 3),
                Table::num(sgi.thread_time_cycles / 250e6, 3)};
      });
}

void print_fig3(const CellBatch& batch, const core::BenchOptions&) {
  print_one_and_eight(
      batch, {"query", "HP V-Class", "SGI Origin 2000"},
      "Fig. 3(a) CPI, 1 query process", "Fig. 3(b) CPI, 8 query processes",
      [](tpch::QueryId q, const core::RunResult& hpv,
         const core::RunResult& sgi) -> std::vector<std::string> {
        return {tpch::query_name(q), Table::num(hpv.cpi, 3),
                Table::num(sgi.cpi, 3)};
      });
}

void print_fig4(const CellBatch& batch, const core::BenchOptions&) {
  print_one_and_eight(
      batch,
      {"query", "HPV cache", "SGI L1", "SGI L2", "HPV /1Mi", "SGI L1 /1Mi",
       "SGI L2 /1Mi"},
      "Fig. 4(a) Data cache misses (per process), 1 process",
      "Fig. 4(b) Data cache misses (per process), 8 processes",
      [](tpch::QueryId q, const core::RunResult& hpv,
         const core::RunResult& sgi) -> std::vector<std::string> {
        return {tpch::query_name(q),          human_count(hpv.l1d_misses),
                human_count(sgi.l1d_misses),  human_count(sgi.l2d_misses),
                Table::num(hpv.l1d_per_minstr, 0),
                Table::num(sgi.l1d_per_minstr, 0),
                Table::num(sgi.l2d_per_minstr, 0)};
      });
}

void print_fig5(const CellBatch& batch, const core::BenchOptions&) {
  print_sweep("Fig. 5 Origin 2000 thread time (cycles / 1M instructions)",
              batch, kOrigin, &core::RunResult::cycles_per_minstr, 0);
}

void print_fig6(const CellBatch& batch, const core::BenchOptions&) {
  print_sweep("Fig. 6 Origin 2000 L2 D-cache misses / 1M instructions", batch,
              kOrigin, &core::RunResult::l2d_per_minstr, 1);
  print_at_8("L2 miss composition at 8 processes",
             "dirty-miss share of L2 misses @8p (%)", batch, kOrigin, 1,
             [](const core::RunResult& r) {
               return core::dirty_miss_pct(r, r.mean.l2d_misses);
             });
}

void print_fig7(const CellBatch& batch, const core::BenchOptions&) {
  print_sweep("Fig. 7 V-Class thread time (cycles / 1M instructions)", batch,
              kVClass, &core::RunResult::cycles_per_minstr, 0);
}

void print_fig8(const CellBatch& batch, const core::BenchOptions&) {
  print_sweep("Fig. 8 V-Class D-cache misses / 1M instructions", batch,
              kVClass, &core::RunResult::l1d_per_minstr, 1);
  print_at_8("Miss composition at 8 processes", "dirty-miss share @8p (%)",
             batch, kVClass, 1, [](const core::RunResult& r) {
               return core::dirty_miss_pct(r, r.mean.l1d_misses);
             });
}

void print_fig9(const CellBatch& batch, const core::BenchOptions& opts) {
  print_sweep("Fig. 9 V-Class memory latency (avg cycles per memory request)",
              batch, kVClass, &core::RunResult::avg_mem_latency, 1);
  print_at_8("Migratory handoffs (protocol enhancement)",
             "migratory transfers @8p (per process)", batch, kVClass, 0,
             [&](const core::RunResult& r) {
               return static_cast<double>(r.mean.migratory_transfers) / 8 /
                      opts.trials;
             });
}

void print_fig10(const CellBatch& batch, const core::BenchOptions&) {
  Table t({"processes", "Q6 vol", "Q6 invol", "Q21 vol", "Q21 invol",
           "Q12 vol", "Q12 invol"});
  for (u32 np : core::kProcSeries) {
    std::vector<std::string> row{std::to_string(np)};
    for (auto q : core::kQueries) {
      const core::RunResult& r = batch.at({kVClass, q, np});
      row.push_back(Table::num(r.vol_ctx_per_minstr, 3));
      row.push_back(Table::num(r.invol_ctx_per_minstr, 3));
    }
    t.add_row(std::move(row));
  }
  core::print_figure(
      std::cout, "Fig. 10 V-Class context switches / 1M instructions", t);
}

}  // namespace

// Each experiment draws the figure row named after it.
#define DSS_FIGURE(name, print) \
  int name(const core::BenchOptions& o) { return run_figure(o, #name, print); }
DSS_FIGURE(fig2_thread_time, print_fig2)
DSS_FIGURE(fig3_cpi, print_fig3)
DSS_FIGURE(fig4_dcache_misses, print_fig4)
DSS_FIGURE(fig5_origin_thread_time, print_fig5)
DSS_FIGURE(fig6_origin_l2_misses, print_fig6)
DSS_FIGURE(fig7_vclass_thread_time, print_fig7)
DSS_FIGURE(fig8_vclass_dcache_misses, print_fig8)
DSS_FIGURE(fig9_vclass_memory_latency, print_fig9)
DSS_FIGURE(fig10_vclass_context_switches, print_fig10)
#undef DSS_FIGURE

}  // namespace dss::bench
