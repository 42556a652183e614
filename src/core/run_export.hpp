// Machine-readable run export and run-to-run diffing.
//
// Every `dss_bench` experiment that takes `--metrics out.json` labels the
// cells it ran with export_cell()/export_mix() and writes them as one
// versioned JSON document; `tools/dss_report` pretty-prints one such
// document and diffs two with per-metric relative-delta gates. This is what
// lets EXPERIMENTS.md's composition claims ("Q21's growth is
// communication-dominated", "dirty-miss share stays below half") be checked
// mechanically instead of narratively, and what CI diffs across versions.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/serving.hpp"
#include "util/json.hpp"

namespace dss::core {

/// Bump when the JSON layout changes shape. Version history:
///   1 — initial layout.
///   2 — adds an optional metric holding the host replay rate in
///       references per second (BENCH_refstream), omitted when zero.
///   3 — sampled runs (DESIGN.md §12) add two optional per-cell objects:
///       "sample" (the sampling schedule plus reference accounting) and
///       "metric_ci" (95% confidence half-widths keyed like "metrics");
///       the host rate may be null when the timer floor made it
///       unmeasurable.
///   4 — the host rate is always emitted (a number or null). Serving cells
///       (DESIGN.md §13) add an optional per-cell "serving" object: arrival
///       mode, offered load, QphH-style throughput, and per-session
///       end-to-end latency percentiles.
///   5 — the host rate is gone: host wall-clock never enters the document,
///       so every metric is a simulated, deterministic number. Readers
///       accept only this version.
inline constexpr u32 kMetricsSchemaVersion = 5;

/// One exported configuration cell: identifying labels + its RunResult.
struct ExportCell {
  std::string platform;  ///< perf::platform_name
  std::string query;     ///< tpch::query_name
  u32 nproc = 1;
  u32 trials = 1;
  /// Distinguishes ablation variants of the same (platform, query, nproc):
  /// "" for stock runs, e.g. "l2=1 MiB", "backoff=spin", "mix[2]".
  std::string variant;
  bool check = false;
  RunResult result;
  /// Serving cells only (schema v4): the queueing-side numbers. `result`
  /// then holds the machine metrics at the serving operating point.
  std::optional<ServingStats> serving = std::nullopt;
};

/// The export cell of `r`, the result of running `cfg`. Its variant is
/// `cfg.variant`, else the names of the overrides `cfg` carries
/// ("machine_override", "spin_override", joined by '+').
[[nodiscard]] ExportCell export_cell(const ExperimentConfig& cfg,
                                     const RunResult& r);

/// The export cells of a run_mix: `results[i]` is process i of the one cell
/// `cfg`, which ran `mix[i]` and is labelled "mix[i]".
[[nodiscard]] std::vector<ExportCell> export_mix(
    const ExperimentConfig& cfg, std::span<const tpch::QueryId> mix,
    std::span<const RunResult> results);

/// Top-level document written by `--metrics`.
struct MetricsDoc {
  std::string bench;  ///< experiment name (`dss_bench <name>`)
  u32 scale_denom = 16;
  u64 seed = 42;
  std::vector<ExportCell> cells;
};

/// Serialize `doc` as schema-version-`kMetricsSchemaVersion` JSON.
void write_metrics_json(std::ostream& os, const MetricsDoc& doc);

/// Write to `path`; throws std::runtime_error when the file cannot be
/// written.
void write_metrics_file(const std::string& path, const MetricsDoc& doc);

/// Validate a parsed document against the schema. Returns the list of
/// problems (empty = valid). Rejects other schema versions.
[[nodiscard]] std::vector<std::string> check_metrics_schema(
    const util::Json& doc);

struct DiffOptions {
  /// Relative delta above which a higher-is-worse metric counts as a
  /// regression (and a lower one as an improvement).
  double rel_threshold = 0.05;
  /// Confidence-interval-aware gating for sampled runs. When set, ONLY
  /// metrics that carry a CI (in either document's "metric_ci") gate: a
  /// regression needs the worse-direction move to exceed both the combined
  /// 95% half-width sqrt(ha^2 + hb^2) and rel_threshold * |before|.
  /// Metrics with no CI are informational — sampling legitimately shifts
  /// wall_seconds and context-switch rates, which must not trip the gate
  /// when comparing a sampled run against a full-detail golden.
  bool ci_gate = false;
  /// When non-empty, compare only these metric keys (the CI
  /// sampled-accuracy job gates "cpi" alone: that is the estimator's
  /// accuracy contract; contention-coupled latencies shift with the
  /// interleaving and are judged by their own CIs, not a hard gate).
  std::vector<std::string> only_metrics;
};

/// One compared metric across the two runs.
struct MetricDelta {
  std::string cell;    ///< "platform/query/nproc[/variant]"
  std::string metric;  ///< key inside the cell's "metrics" object, or a
                       ///< "serving."-prefixed key from the serving object
  double before = 0.0;
  double after = 0.0;
  double rel = 0.0;  ///< (after - before) / before; 0 when before == 0
  /// Combined 95% half-width sqrt(ha^2 + hb^2) from the two cells'
  /// "metric_ci" entries; 0 when neither side has one.
  double combined_ci = 0.0;
  bool regression = false;
};

struct DiffReport {
  std::vector<MetricDelta> deltas;       ///< every compared metric
  std::vector<std::string> errors;       ///< schema / cell-matching problems
  [[nodiscard]] bool has_regressions() const;
  [[nodiscard]] std::vector<MetricDelta> regressions() const;
};

/// Compare two parsed metrics documents cell-by-cell (matched on
/// platform/query/nproc/variant). Mismatched or missing cells land in
/// `errors`.
[[nodiscard]] DiffReport diff_metrics(const util::Json& before,
                                      const util::Json& after,
                                      const DiffOptions& opts = {});

}  // namespace dss::core
