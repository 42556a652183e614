// Core experiment-harness tests: scaling rules, trial averaging, option
// parsing, and the figure-table plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics.hpp"

namespace dss::core {
namespace {

TEST(ScaleConfig, FollowsDesignRules) {
  const ScaleConfig s{16};
  EXPECT_DOUBLE_EQ(s.scale_factor(), 0.0125);
  EXPECT_EQ(s.pool_frames(), 4096u);       // 32 MiB of 8 KiB frames
  EXPECT_EQ(s.arena_bytes(), 24u * 1024);  // 384 KiB / 16
  const ScaleConfig full{1};
  EXPECT_DOUBLE_EQ(full.scale_factor(), 0.2);
  EXPECT_EQ(full.pool_frames(), 65536u);
}

TEST(ExperimentRunner, PoolHoldsWholeDatabaseAtEveryScale) {
  for (u32 denom : {32u, 64u}) {
    ExperimentRunner r(ScaleConfig{denom}, 1);
    EXPECT_LT(r.database().total_pages(), ScaleConfig{denom}.pool_frames())
        << "denom " << denom;
  }
}

TEST(ExperimentRunner, DeterministicAcrossRunnerInstances) {
  ExperimentRunner r1(ScaleConfig{64}, 5);
  ExperimentRunner r2(ScaleConfig{64}, 5);
  const auto a = r1.run(perf::Platform::VClass, tpch::QueryId::Q6, 2, 2);
  const auto b = r2.run(perf::Platform::VClass, tpch::QueryId::Q6, 2, 2);
  EXPECT_EQ(a.mean.cycles, b.mean.cycles);
  EXPECT_EQ(a.mean.l1d_misses, b.mean.l1d_misses);
  EXPECT_EQ(a.mean.vol_ctx_switches, b.mean.vol_ctx_switches);
  EXPECT_DOUBLE_EQ(a.query_result[0].vals[0], b.query_result[0].vals[0]);
}

TEST(ExperimentRunner, TrialsJitterButAverage) {
  ExperimentRunner r(ScaleConfig{64}, 5);
  const auto one = r.run(perf::Platform::Origin2000, tpch::QueryId::Q6, 2, 1);
  const auto four = r.run(perf::Platform::Origin2000, tpch::QueryId::Q6, 2, 4);
  // Averaged metrics stay close to a single trial (jitter is small).
  EXPECT_NEAR(four.cpi, one.cpi, 0.05);
  EXPECT_NEAR(four.thread_time_cycles / one.thread_time_cycles, 1.0, 0.05);
}

TEST(ExperimentRunner, WallClockAtLeastThreadTime) {
  ExperimentRunner r(ScaleConfig{64}, 5);
  const auto res = r.run(perf::Platform::VClass, tpch::QueryId::Q6, 1, 1);
  const double thread_s = res.thread_time_cycles / 200e6;
  EXPECT_GE(res.wall_seconds * 1.001, thread_s);
}

TEST(ExperimentRunner, VClassReportsNoL2) {
  ExperimentRunner r(ScaleConfig{64}, 5);
  const auto res = r.run(perf::Platform::VClass, tpch::QueryId::Q12, 1, 1);
  EXPECT_EQ(res.l2d_misses, 0.0);
  const auto sgi = r.run(perf::Platform::Origin2000, tpch::QueryId::Q12, 1, 1);
  EXPECT_GT(sgi.l2d_misses, 0.0);
  EXPECT_LT(sgi.l2d_misses, sgi.l1d_misses);
}

TEST(DeriveResult, AveragesCountsAndCombinesTrialHalfWidths) {
  perf::Counters sum;
  sum.cycles = 8'000;
  sum.instructions = 2'000;
  sum.l1d_misses = 40;
  // Four per-process samples over two trials.
  const RunResult full = derive_result(sum, 4, 100.0, 3.0, 2, {}, {});
  EXPECT_EQ(full.mean.cycles, 8'000u);  // totals, not averages
  EXPECT_DOUBLE_EQ(full.thread_time_cycles, 2'000.0);
  EXPECT_DOUBLE_EQ(full.l1d_misses, 10.0);
  EXPECT_DOUBLE_EQ(full.cpi, 4.0);
  EXPECT_DOUBLE_EQ(full.avg_mem_latency, 25.0);
  EXPECT_DOUBLE_EQ(full.wall_seconds, 1.5);
  EXPECT_FALSE(full.sampled);
  EXPECT_EQ(full.ci_cpi, 0.0);

  sim::SampleSchedule sched;
  sched.unit_records = 500;
  sched.detail_every = 10;
  std::vector<sim::ExecSampleSummary> trials(2);
  for (auto& t : trials) t.total_refs = 100;
  trials[0].stall_per_ref.ci_half = 0.3;  // 30 cycles on the trial total
  trials[1].stall_per_ref.ci_half = 0.4;  // 40
  trials[0].lat_per_req.ci_half = 6.0;
  trials[1].lat_per_req.ci_half = 8.0;
  const RunResult s = derive_result(sum, 4, 100.0, 3.0, 2, sched, trials);
  EXPECT_TRUE(s.sampled);
  EXPECT_EQ(s.sample_unit_records, 500u);
  EXPECT_EQ(s.sample_total_refs, 200u);
  // Quadrature: sqrt(30^2 + 40^2) = 50 cycles on the summed total.
  EXPECT_DOUBLE_EQ(s.ci_thread_time_cycles, 50.0 / 4);
  EXPECT_DOUBLE_EQ(s.ci_cpi, 50.0 / 2'000);
  EXPECT_DOUBLE_EQ(s.ci_cycles_per_minstr, 50.0 / 2'000 * 1e6);
  EXPECT_DOUBLE_EQ(s.ci_avg_mem_latency, 10.0 / 2);
  EXPECT_EQ(s.cpi, full.cpi);  // sampling changes only the CI side
}

TEST(BenchOptions, ParsesFlags) {
  const char* argv[] = {"bench", "--scale", "32", "--trials", "2",
                        "--seed", "99"};
  const auto o = parse_bench_options(7, const_cast<char**>(argv), kAllFlags);
  EXPECT_EQ(o.scale_denom, 32u);
  EXPECT_EQ(o.trials, 2u);
  EXPECT_EQ(o.seed, 99u);
}

TEST(BenchOptions, DefaultsAndErrors) {
  const char* argv0[] = {"bench"};
  const auto o = parse_bench_options(1, const_cast<char**>(argv0), kAllFlags);
  EXPECT_EQ(o.scale_denom, 16u);
  EXPECT_EQ(o.trials, 4u);
  const char* bad[] = {"bench", "--wat"};
  EXPECT_EXIT((void)parse_bench_options(2, const_cast<char**>(bad), kAllFlags),
              testing::ExitedWithCode(2), "unknown option: --wat");
  const char* dangling[] = {"bench", "--scale"};
  EXPECT_EXIT((void)parse_bench_options(2, const_cast<char**>(dangling),
                                          kAllFlags),
              testing::ExitedWithCode(2), "--scale requires a value");
}

/// Run the parser on `bench <args...>`.
void parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  (void)parse_bench_options(static_cast<int>(argv.size()), argv.data(),
                            kAllFlags);
}

TEST(BenchOptionsDeathTest, EveryNumericFlagRejectsBadValuesWithUsage) {
  // A bad numeric value prints the problem and a usage line and exits 2:
  // never an uncaught exception, never a sign wrapped around. Every numeric
  // flag is tried with a non-number, no value and a negative value, plus
  // partial, signed, overflowing, empty and out-of-range tokens, and a
  // --scale that is not a power of two.
  std::vector<std::vector<std::string>> cases = {
      {"--scale", "12abc"},          {"--scale", "+3"},
      {"--scale", " 3"},             {"--scale", ""},
      {"--scale", "0"},              {"--scale", "3"},
      {"--scale", "24"},             {"--trials", "0"},
      {"--jobs", "4294967296"},      {"--seed", "18446744073709551616"},
      {"--think-time", "nan"},       {"--target-load", "0.5x"},
      {"--cpus", "4,x"},             {"--cpus", "4,"},
      {"--cpus", "4,0"},             {"--cpus", ""}};
  for (const char* flag :
       {"--scale", "--trials", "--seed", "--jobs", "--sample-units",
        "--sample-detail", "--sample-warmup", "--sessions", "--think-time",
        "--target-load", "--cpus", "--epoch-records"}) {
    cases.push_back({flag, "abc"});
    cases.push_back({flag});
    cases.push_back({flag, "-1"});
  }
  for (const auto& args : cases) {
    SCOPED_TRACE(args[0] + (args.size() > 1 ? " '" + args[1] + "'" : ""));
    EXPECT_EXIT(parse(args), testing::ExitedWithCode(2),
                std::string(args.size() > 1 ? "expects" : "requires a value") +
                    ".*usage: bench ");
  }
}

TEST(BenchOptions, FlagTableFollowsTheFlagOrder) {
  // The table is indexed by Flag: each flag's synopsis names that flag.
  EXPECT_EQ(flags_usage(kAllFlags),
            " [--scale N] [--trials N] [--seed N] [--jobs N] [--check] "
            "[--metrics PATH] [--sample-units N] [--sample-detail K] "
            "[--sample-warmup W] [--sessions N] "
            "[--arrival closed|open|both] [--think-time MS] "
            "[--target-load F] [--cpus N,N,...] [--epoch-records N]");
  EXPECT_EQ(flags_usage(Flag::check | Flag::scale), " [--scale N] [--check]");
  EXPECT_EQ(flags_usage(0), "");
  std::ostringstream os;
  print_flags_help(os, Flag::jobs);
  const std::string help = os.str();
  EXPECT_EQ(help.rfind("  --jobs N ", 0), 0u) << help;
  EXPECT_EQ(std::count(help.begin(), help.end(), '\n'), 1);
}

TEST(BenchOptionsDeathTest, FlagOutsideTheAcceptedSetIsAUsageError) {
  // Every flag, offered to a command that does not read it, exits 2 with
  // the command's own usage line; the same flag is accepted once it is in
  // the set. The command's last word names the bench.
  const FlagSet accepted = Flag::seed | Flag::scale;
  for (u32 f = 0; f < kNumFlags; ++f) {
    const std::string synopsis = flags_usage(1u << f);  // " [--name ...]"
    const std::string name =
        synopsis.substr(2, synopsis.find_first_of(" ]", 2) - 2);
    SCOPED_TRACE(name);
    std::string cmd = "dss_bench demo";
    std::string arg = name;
    char* argv[] = {cmd.data(), arg.data()};
    EXPECT_EXIT((void)parse_bench_options(2, argv, accepted),
                testing::ExitedWithCode(2),
                (accepted >> f & 1u) != 0
                    ? "requires a value"
                    : name + " does not apply to demo\n"
                             "usage: dss_bench demo \\[--scale N\\] "
                             "\\[--seed N\\]\n");
  }
  char cmd[] = "dss_bench demo";
  char* bare[] = {cmd};
  EXPECT_EQ(parse_bench_options(1, bare, 0).bench_name, "demo");
  char shards[] = "--shards";
  char* gone[] = {cmd, shards};
  EXPECT_EXIT((void)parse_bench_options(2, gone, kAllFlags),
              testing::ExitedWithCode(2),
              "unknown option: --shards");
}

TEST(BenchOptions, AcceptsBoundaryValues) {
  const char* argv[] = {"bench",      "--seed",        "18446744073709551615",
                        "--sessions", "4294967295",    "--think-time",
                        "0.5",        "--cpus",        "1,32"};
  const auto o = parse_bench_options(9, const_cast<char**>(argv), kAllFlags);
  EXPECT_EQ(o.seed, UINT64_MAX);
  EXPECT_EQ(o.sessions, UINT32_MAX);
  EXPECT_DOUBLE_EQ(o.think_time_ms, 0.5);
  EXPECT_EQ(o.cpus, (std::vector<u32>{1, 32}));
}

TEST(Figures, PrintFigureIncludesCsvBlock) {
  Table t({"q", "v"});
  t.add_row({"Q6", "1"});
  std::ostringstream os;
  print_figure(os, "Fig. X", t);
  const std::string s = os.str();
  EXPECT_NE(s.find("== Fig. X =="), std::string::npos);
  EXPECT_NE(s.find("# csv"), std::string::npos);
  EXPECT_NE(s.find("q,v"), std::string::npos);
}

}  // namespace
}  // namespace dss::core
