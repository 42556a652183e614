// Extension — heterogeneous multiprogramming.
//
// The paper runs N copies of the *same* query; real DSS systems run mixes.
// This bench runs {Q6, Q21, Q12} concurrently (plus a 6-way mix with the
// extension queries) and compares each query's thread time against its solo
// run — the interference cost of sharing the memory system with different
// plan shapes.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dss;
  const auto opts = core::parse_bench_options(argc, argv);
  auto runner = bench::make_runner(opts);

  const std::vector<tpch::QueryId> mix3 = {
      tpch::QueryId::Q6, tpch::QueryId::Q21, tpch::QueryId::Q12};
  const std::vector<tpch::QueryId> mix6 = {
      tpch::QueryId::Q1, tpch::QueryId::Q3,  tpch::QueryId::Q6,
      tpch::QueryId::Q12, tpch::QueryId::Q14, tpch::QueryId::Q21};

  bool interference_bounded = true;
  for (auto pl : {perf::Platform::VClass, perf::Platform::Origin2000}) {
    const char* mname = pl == perf::Platform::VClass ? "V-Class" : "Origin";
    // Both mixes share Q6, Q21 and Q12: each solo cell runs (and is
    // exported) once per platform, at its first use.
    std::map<tpch::QueryId, core::RunResult> solos;
    for (const auto& mix : {mix3, mix6}) {
      Table t({"query", "solo cycles", "mixed cycles", "slowdown"});
      const auto mixed = runner.run_mix(pl, mix, opts.trials);
      for (std::size_t i = 0; i < mix.size(); ++i) {
        auto it = solos.find(mix[i]);
        if (it == solos.end()) {
          it = solos.emplace(mix[i], runner.run(pl, mix[i], 1, opts.trials))
                   .first;
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
  return bench::report_claims(
      {{"read-only DSS queries interfere mildly (thread-time slowdown "
        "<25%), like the paper's same-query runs",
        interference_bounded}});
}
