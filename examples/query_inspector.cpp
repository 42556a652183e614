// Query inspector: run one query on one machine and dump everything the
// instrumented DBMS can tell you — results, the hardware-counter view in
// each platform's own event names, and the DBMS software counters.
//
//   query_inspector [Q6|Q21|Q12] [vclass|origin]
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/experiment.hpp"
#include "perf/platform_events.hpp"

int main(int argc, char** argv) {
  using namespace dss;
  tpch::QueryId query = tpch::QueryId::Q12;
  perf::Platform platform = perf::Platform::Origin2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "vclass") == 0) {
      platform = perf::Platform::VClass;
    } else if (std::strcmp(argv[i], "origin") == 0) {
      platform = perf::Platform::Origin2000;
    } else {
      try {
        query = tpch::query_from_name(argv[i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr,
                     "%s\nusage: query_inspector [Q6|Q21|Q12] "
                     "[vclass|origin]\n",
                     e.what());
        return 2;
      }
    }
  }

  core::ExperimentRunner runner(core::ScaleConfig{32}, 42);
  const auto r = runner.run(platform, query, 1, 1);

  std::printf("=== %s on %s ===\n\n", tpch::query_name(query),
              perf::platform_name(platform));

  std::printf("-- query result (%zu rows) --\n", r.query_result.size());
  const std::size_t show = std::min<std::size_t>(r.query_result.size(), 10);
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("  %-28s", r.query_result[i].key.c_str());
    for (double v : r.query_result[i].vals) std::printf("  %14.2f", v);
    std::printf("\n");
  }
  if (r.query_result.size() > show) {
    std::printf("  ... %zu more rows\n", r.query_result.size() - show);
  }

  std::printf("\n-- hardware counters (%s event names) --\n",
              perf::platform_name(platform));
  for (const auto& ev : perf::platform_events(platform)) {
    const auto v = perf::read_event(platform, ev.name, r.mean);
    std::printf("  %-16s %14llu  %s\n", ev.name.c_str(),
                static_cast<unsigned long long>(v.value_or(0)),
                ev.description.c_str());
  }

  std::printf("\n-- DBMS software counters --\n");
  std::printf("  tuples scanned     %12llu\n",
              static_cast<unsigned long long>(r.mean.tuples_scanned));
  std::printf("  index descents     %12llu\n",
              static_cast<unsigned long long>(r.mean.index_descents));
  std::printf("  buffer pins        %12llu\n",
              static_cast<unsigned long long>(r.mean.buffer_pins));
  std::printf("  lock acquires      %12llu\n",
              static_cast<unsigned long long>(r.mean.lock_acquires));
  std::printf("  lock collisions    %12llu\n",
              static_cast<unsigned long long>(r.mean.lock_collisions));
  std::printf("  select() sleeps    %12llu\n",
              static_cast<unsigned long long>(r.mean.select_sleeps));

  std::printf("\n-- derived --\n");
  std::printf("  CPI                %12.3f\n", r.cpi);
  std::printf("  thread time        %12.3f s\n",
              r.thread_time_cycles /
                  (platform == perf::Platform::VClass ? 200e6 : 250e6));
  std::printf("  avg memory latency %12.1f cycles\n", r.avg_mem_latency);
  return 0;
}
