// Trace tools: capture the memory-reference stream of a query once, then
// replay it against both machine models — the trace-driven methodology of
// the authors' TPC-C study (paper reference [5]) applied to this workload.
//
//   trace_tools [Q6|Q21|Q12] [trace-file]
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "os/process.hpp"
#include "sim/machine_configs.hpp"
#include "sim/trace.hpp"

int main(int argc, char** argv) {
  using namespace dss;
  tpch::QueryId query = tpch::QueryId::Q6;
  std::string path = "/tmp/dss_query.trace";
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == 'Q' || argv[i][0] == 'q') {
      try {
        query = tpch::query_from_name(argv[i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr,
                     "%s\nusage: trace_tools [Q6|Q21|Q12] [trace-file]\n",
                     e.what());
        return 2;
      }
    } else {
      path = argv[i];
    }
  }
  const u32 denom = 32;

  std::printf("capturing %s on a scaled V-Class...\n", tpch::query_name(query));
  core::ExperimentRunner runner(core::ScaleConfig{denom}, 42);
  sim::TraceWriter writer;
  {
    sim::MachineSim machine(sim::vclass().scaled(denom));
    db::DbRuntime rt(runner.database(),
                     db::RuntimeConfig{core::ScaleConfig{denom}.pool_frames(),
                                       core::ScaleConfig{denom}.arena_bytes(),
                                       db::SpinPolicy{}});
    rt.prewarm_all();
    os::Process proc(machine, 0);
    sim::TraceCapture guard(machine, writer);
    tpch::QueryParams params;
    params.workmem_arena_bytes = core::ScaleConfig{denom}.arena_bytes();
    auto run = tpch::make_query(query, rt, proc, params);
    while (!run->step(proc)) {
    }
  }
  std::printf("  %zu references captured\n", writer.records().size());
  if (!writer.save(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("  saved to %s (%zu bytes/record)\n", path.c_str(),
              sim::kTraceRecordBytes);

  sim::TraceReader reader;
  if (!reader.load(path)) {
    std::fprintf(stderr, "failed to re-load %s\n", path.c_str());
    return 1;
  }
  for (bool hp : {true, false}) {
    sim::MachineSim machine(
        (hp ? sim::vclass() : sim::origin2000()).scaled(denom));
    const auto counters = sim::replay(machine, reader.records());
    u64 l1 = 0, l2 = 0, reqs = 0, lat = 0;
    for (const auto& c : counters) {
      l1 += c.l1d_misses;
      l2 += c.l2d_misses;
      reqs += c.mem_requests;
      lat += c.mem_latency_cycles;
    }
    std::printf("replay on %-16s  L1 misses %8llu  L2 misses %8llu  "
                "avg latency %.1f cycles\n",
                hp ? "HP V-Class:" : "SGI Origin 2000:",
                static_cast<unsigned long long>(l1),
                static_cast<unsigned long long>(l2),
                reqs ? static_cast<double>(lat) / static_cast<double>(reqs)
                     : 0.0);
  }
  std::remove(path.c_str());
  return 0;
}
