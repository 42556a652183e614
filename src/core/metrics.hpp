// The `dss_bench` command line (flag table and strict parser) and the
// figure-printing helpers the experiments share.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "sim/sample/sampler.hpp"
#include "util/table.hpp"

namespace dss::core {

/// The process-count series the paper sweeps in Section 4.
inline const std::vector<u32> kProcSeries = {1, 2, 4, 6, 8};

/// The three queries, in the paper's presentation order.
inline const std::vector<tpch::QueryId> kQueries = {
    tpch::QueryId::Q6, tpch::QueryId::Q21, tpch::QueryId::Q12};

/// Print a figure: a title line, the aligned table, then a `# csv` block
/// with the same content for plotting.
void print_figure(std::ostream& os, const std::string& title,
                  const Table& table);

/// The bench command-line flags, one bit each, in the order of metrics.cpp's
/// flag table (which holds each flag's name, value kind and help text). A
/// FlagSet is the set one command accepts; any other flag is a usage error.
using FlagSet = u32;
struct Flag {
  enum : FlagSet {
    scale = 1u << 0, trials = 1u << 1, seed = 1u << 2, jobs = 1u << 3,
    check = 1u << 4, metrics = 1u << 5, sample_units = 1u << 6,
    sample_detail = 1u << 7, sample_warmup = 1u << 8, sessions = 1u << 9,
    arrival = 1u << 10, think_time = 1u << 11, target_load = 1u << 12,
    cpus = 1u << 13, epoch_records = 1u << 14,
  };
};
inline constexpr u32 kNumFlags = 15;
inline constexpr FlagSet kAllFlags = (1u << kNumFlags) - 1;

/// The parsed flags. What each one means is its help text in the flag table
/// (`dss_bench <experiment> --help` prints it); sampling is DESIGN.md §12,
/// serving §13.
struct BenchOptions {
  u32 scale_denom = 16;
  u32 trials = 4;
  u64 seed = 42;
  u32 jobs = 0;        ///< 0 = hardware concurrency
  bool check = false;  ///< run trials under the invariant checker
  std::string metrics_path;  ///< empty = no export
  std::string bench_name;    ///< the command's name, labels the export
  u64 sample_units = 0;      ///< N: refs per sampling unit (0 = full detail)
  u32 sample_detail = 0;     ///< K: every K-th unit measured in detail
  u64 sample_warmup = 0;     ///< W: detailed-unmeasured refs before a window
  u32 sessions = 256;        ///< serving: client population
  std::string arrival = "both";     ///< serving: "closed" | "open" | "both"
  double think_time_ms = 50.0;      ///< serving, closed loop: mean think
  double target_load = 0.0;         ///< serving, open loop: 0 = sweep preset
  std::vector<u32> cpus = {8, 16, 32};  ///< serving: simulated CPU sweep
  /// Scheduling-epoch length (input records per epoch) for replay-driven
  /// benches that default to epochs off; 0 keeps the bench's default.
  u64 epoch_records = 0;

  /// The sampling schedule these options describe (disabled when
  /// --sample-units was not given).
  [[nodiscard]] sim::SampleSchedule sample_schedule() const {
    return {sample_units, sample_detail, sample_warmup};
  }
};

/// Parse `argv[1..argc)` against the flags in `accepted`. `argv[0]` is the
/// command as the usage line shows it (a directory prefix is dropped); its
/// last word names the bench and labels the export, so `dss_bench fig3_cpi`
/// exports as `fig3_cpi`.
///
/// Numbers parse strictly: the whole token, unsigned decimal, no overflow
/// (--scale and --trials must be >= 1). An explicit `--jobs 0`, or a value
/// above the host's hardware concurrency, is clamped with a warning on
/// stderr (stdout and any --metrics JSON stay byte-identical). A flag
/// outside `accepted`, an unknown option, a missing or malformed value, or
/// an inconsistent combination prints the problem and a usage line to
/// stderr and exits with status 2.
[[nodiscard]] BenchOptions parse_bench_options(int argc, char** argv,
                                               FlagSet accepted);

/// The usage synopsis of `flags`, e.g. " [--scale N] [--trials N]" (empty
/// for no flags; every entry starts with a space).
[[nodiscard]] std::string flags_usage(FlagSet flags);

/// One line per flag of `flags`: its name, value and help text.
void print_flags_help(std::ostream& os, FlagSet flags);

/// Parse the whole of `text` as a finite, non-negative decimal number: no
/// sign, no trailing characters, no nan/inf. Empty on any violation. The
/// bench flags and dss_report's --threshold share it.
[[nodiscard]] std::optional<double> parse_nonneg(std::string_view text);

}  // namespace dss::core
