// Scaling study: the paper's Section 4 experience as a command-line tool.
//
//   scaling_study [Q6|Q21|Q12] [--scale N] [--trials N]
//
// Sweeps the number of concurrent query processes (1..8) on both machines
// and prints thread time, CPI, miss rates and context switches side by side.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dss;

  tpch::QueryId query = tpch::QueryId::Q6;
  // Two trials unless --trials says otherwise: the user's flags come after
  // this default, and the last --trials wins.
  std::string default_trials[] = {"--trials", "2"};
  std::vector<char*> rest = {argv[0], default_trials[0].data(),
                             default_trials[1].data()};
  int first = 1;  // the query, when given, comes before the flags
  if (argc > 1 && argv[1][0] != '-') {
    try {
      query = tpch::query_from_name(argv[first++]);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\nusage: scaling_study [Q6|Q21|Q12] "
                << "[--scale N] [--trials N]\n";
      return 2;
    }
  }
  rest.insert(rest.end(), argv + first, argv + argc);
  const auto opts =
      core::parse_bench_options(static_cast<int>(rest.size()), rest.data(),
                                core::Flag::scale | core::Flag::trials);

  std::printf("Scaling study for TPC-H %s (scale 1/%u, %u trials)\n\n",
              tpch::query_name(query), opts.scale_denom, opts.trials);
  core::ExperimentRunner runner(core::ScaleConfig{opts.scale_denom}, 42);

  Table t({"procs", "machine", "cycles/1Mi", "CPI", "L1d/1Mi", "L2d/1Mi",
           "memlat", "vol/1Mi", "invol/1Mi", "wall s"});
  for (u32 np : core::kProcSeries) {
    for (auto pl : {perf::Platform::VClass, perf::Platform::Origin2000}) {
      const auto r = runner.run(pl, query, np, opts.trials);
      t.add_row({std::to_string(np),
                 pl == perf::Platform::VClass ? "V-Class" : "Origin",
                 Table::num(r.cycles_per_minstr, 0), Table::num(r.cpi, 3),
                 Table::num(r.l1d_per_minstr, 0),
                 Table::num(r.l2d_per_minstr, 0),
                 Table::num(r.avg_mem_latency, 1),
                 Table::num(r.vol_ctx_per_minstr, 3),
                 Table::num(r.invol_ctx_per_minstr, 3),
                 Table::num(r.wall_seconds, 3)});
    }
  }
  t.print(std::cout);
  std::cout << "\nReading guide: the Origin's cycles/1Mi and memory latency\n"
               "climb with process count (ccNUMA communication + homed\n"
               "shared segment); the V-Class stays nearly flat (UMA\n"
               "crossbar). Voluntary context switches are the DBMS spinlock\n"
               "backoff going off under contention.\n";
  return 0;
}
