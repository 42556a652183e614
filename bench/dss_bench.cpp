// dss_bench — one front end for every experiment (DESIGN.md §15):
//
//   dss_bench --list | <experiment> --help | <experiment> [flags]
//
// Each registry entry names the flags its experiment reads; any other flag
// is a usage error (exit 2). The name labels the experiment's export.
#include <algorithm>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"

namespace dss::bench {

// The experiments' bodies: figures.cpp, ablations.cpp, extensions.cpp and
// one file for each of the rest.
Run fig2_thread_time, fig3_cpi, fig4_dcache_misses, fig5_origin_thread_time,
    fig6_origin_l2_misses, fig7_vclass_thread_time, fig8_vclass_dcache_misses,
    fig9_vclass_memory_latency, fig10_vclass_context_switches, abl_migratory,
    abl_speculative, abl_linesize, abl_cachesize, abl_backoff, abl_placement,
    micro_machine_latency, ext_queries, rf_functions, ext_mixed,
    BENCH_refstream, BENCH_serving;

namespace {

using core::Flag;
// The execution-driven experiments: make_runner reads all of these.
constexpr core::FlagSet kRunner =
    Flag::scale | Flag::trials | Flag::seed | Flag::jobs | Flag::check |
    Flag::metrics | Flag::sample_units | Flag::sample_detail |
    Flag::sample_warmup;
constexpr core::FlagSet kReplay =
    Flag::scale | Flag::seed | Flag::jobs | Flag::metrics | Flag::sample_units |
    Flag::sample_detail | Flag::sample_warmup | Flag::epoch_records;
constexpr core::FlagSet kServing =
    Flag::scale | Flag::trials | Flag::seed | Flag::jobs | Flag::metrics |
    Flag::sessions | Flag::arrival | Flag::think_time | Flag::target_load |
    Flag::cpus;

// An entry's name is the name of its run function.
#define DSS_EXP(run, flags, about) {#run, about, flags, run}
const Experiment kExperiments[] = {
    DSS_EXP(fig2_thread_time, kRunner, "Fig. 2: thread time, 1 and 8 procs"),
    DSS_EXP(fig3_cpi, kRunner, "Fig. 3: CPI, 1 and 8 processes"),
    DSS_EXP(fig4_dcache_misses, kRunner,
            "Fig. 4: data-cache misses, V-Class vs Origin L1 and L2"),
    DSS_EXP(fig5_origin_thread_time, kRunner,
            "Fig. 5: Origin cycles per 1M instructions vs processes"),
    DSS_EXP(fig6_origin_l2_misses, kRunner,
            "Fig. 6: Origin L2 misses per 1M instructions vs processes"),
    DSS_EXP(fig7_vclass_thread_time, kRunner,
            "Fig. 7: V-Class cycles per 1M instructions vs processes"),
    DSS_EXP(fig8_vclass_dcache_misses, kRunner,
            "Fig. 8: V-Class D-cache misses per 1M instructions"),
    DSS_EXP(fig9_vclass_memory_latency, kRunner,
            "Fig. 9: V-Class memory latency vs processes"),
    DSS_EXP(fig10_vclass_context_switches, kRunner,
            "Fig. 10: V-Class context switches vs processes"),
    DSS_EXP(abl_migratory, kRunner, "V-Class migratory sharing on/off"),
    DSS_EXP(abl_speculative, kRunner, "Origin speculative reply on/off"),
    DSS_EXP(abl_linesize, kRunner, "Origin L2 line, 32 B vs 128 B"),
    DSS_EXP(abl_cachesize, kRunner, "Origin L2 capacity, 1 to 8 MiB"),
    DSS_EXP(abl_backoff, kRunner, "spinlock select() backoff vs spin"),
    DSS_EXP(abl_placement, kRunner, "Origin shared-segment home nodes"),
    DSS_EXP(micro_machine_latency, 0, "machine-model latency probes"),
    DSS_EXP(ext_queries, kRunner, "six TPC-H queries at 1 process"),
    DSS_EXP(rf_functions, Flag::scale | Flag::seed, "TPC-H refresh RF1/RF2"),
    DSS_EXP(ext_mixed, kRunner, "query mixes vs solo runs"),
    DSS_EXP(BENCH_refstream, kReplay, "replay counters at shards 1, 4, 8"),
    DSS_EXP(BENCH_serving, kServing, "serving: load vs tail latency"),
};
#undef DSS_EXP

/// The registry, one experiment a line; with `usage`, the usage line first.
int print_list(std::ostream& os, bool usage, int status) {
  if (usage) {
    os << "usage: dss_bench <experiment> [flags] | dss_bench --list | "
          "dss_bench <experiment> --help\nexperiments:\n";
  }
  for (const Experiment& e : kExperiments) {
    std::string name = e.name;
    name.resize(std::max<std::size_t>(name.size() + 1, 32), ' ');
    os << "  " << name << e.about << '\n';
  }
  return status;
}

}  // namespace
}  // namespace dss::bench

int main(int argc, char** argv) {
  using namespace dss;
  const std::string_view first = argc > 1 ? argv[1] : "";
  if (first == "--list" || first == "--help") {
    return bench::print_list(std::cout, first == "--help", 0);
  }
  const bench::Experiment* exp = nullptr;
  for (const bench::Experiment& e : bench::kExperiments) {
    if (first == e.name) exp = &e;
  }
  if (exp == nullptr) {
    std::cerr << "dss_bench: unknown experiment '" << first << "'\n";
    return bench::print_list(std::cerr, true, 2);
  }
  // The parser sees `dss_bench <experiment>` as its command: the usage line
  // shows it, and its last word labels the export.
  std::string command = std::string("dss_bench ") + exp->name;
  std::vector<char*> args{command.data()};
  for (int i = 2; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--help") {
      std::cout << "usage: " << command << core::flags_usage(exp->flags)
                << "\n" << exp->about << "\n";
      core::print_flags_help(std::cout, exp->flags);
      return 0;
    }
    args.push_back(argv[i]);
  }
  return exp->run(core::parse_bench_options(static_cast<int>(args.size()),
                                            args.data(), exp->flags));
}
