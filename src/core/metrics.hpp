// Shared figure-building helpers for the bench binaries.
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

/// Parse common bench options: --scale N (μ denominator), --trials N,
/// --seed N, --jobs N (worker threads for trial/cell execution; 0 = one per
/// hardware thread, the default), --shards N (intra-trial shard count for
/// the replay core; no-op on the execution-driven fig binaries — see
/// DESIGN.md "Sharded replay core" — and bit-identical at every value
/// where it applies), --check (attach the runtime coherence invariant
/// checker to every trial; observation-only, metrics unchanged),
/// --metrics PATH (write every cell the binary runs as one schema-versioned
/// JSON document; see core/run_export.hpp and tools/dss_report),
/// --epoch-records N
/// (scheduling-epoch length for replay-driven benches that default to
/// epochs off).
///
/// Sampled simulation (DESIGN.md §12): --sample-units N (references per
/// sampling unit; 0, the default, keeps every reference detailed),
/// --sample-detail K (every K-th unit is a detailed measurement window;
/// K >= 2 when sampling), --sample-warmup W (detailed-unmeasured references
/// before each window), --live-points DIR (replay-driven benches only:
/// checkpoint the warmed state at each window; exec-driven binaries warn
/// and ignore it). Sampling is mutually exclusive with --check — the
/// checker's counter-conservation identities do not hold across the
/// functional-warming path.
///
/// Serving mode (DESIGN.md §13, BENCH_serving): --sessions N (client
/// population / arrival-plan length), --arrival closed|open|both (which
/// arrival models to run; default both), --think-time MS (closed loop:
/// mean exponential think time, simulated ms), --target-load F (open loop:
/// run one offered-load level instead of the preset sweep; load is a
/// fraction of the calibrated saturated capacity), --cpus LIST
/// (comma-separated simulated CPU counts to sweep, e.g. "8,16,32").
/// Binaries without a serving mode simply ignore these fields.
///
/// Numbers parse strictly: the whole token, unsigned decimal, no overflow
/// (--scale and --trials must be >= 1). An explicit `--jobs 0` or
/// `--shards 0`, or a value above the host's hardware concurrency, is
/// clamped with a warning on stderr (stdout and any --metrics JSON stay
/// byte-identical). An unknown option, a missing or malformed value, or an
/// inconsistent combination prints the problem and a usage line to stderr
/// and exits with status 2.
struct BenchOptions {
  u32 scale_denom = 16;
  u32 trials = 4;
  u64 seed = 42;
  u32 jobs = 0;        ///< 0 = hardware concurrency
  u32 shards = 1;      ///< replay-core shard count (where supported)
  bool check = false;  ///< run trials under the invariant checker
  std::string metrics_path;  ///< empty = no export
  std::string bench_name;    ///< argv[0] basename, labels the export
  u64 sample_units = 0;      ///< N: refs per sampling unit (0 = full detail)
  u32 sample_detail = 0;     ///< K: every K-th unit measured in detail
  u64 sample_warmup = 0;     ///< W: detailed-unmeasured refs before a window
  std::string live_points;   ///< checkpoint dir (replay-driven benches)
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
    sim::SampleSchedule s;
    s.unit_records = sample_units;
    s.detail_every = sample_detail;
    s.warmup_records = sample_warmup;
    return s;
  }
};
[[nodiscard]] BenchOptions parse_bench_options(int argc, char** argv);

/// Parse the whole of `text` as a finite, non-negative decimal number: no
/// sign, no trailing characters, no nan/inf. Empty on any violation. The
/// bench flags and dss_report's --threshold share it.
[[nodiscard]] std::optional<double> parse_nonneg(std::string_view text);

}  // namespace dss::core
