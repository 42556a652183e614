// Rule registry and analysis engine for dss_lint.
//
// Rules encode this repository's determinism and shard-safety contracts
// (DESIGN.md §11). Each has an id usable in suppression comments
// (`// dss-lint: allow(<id>) <reason>`) and in `--rule` filters.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dss_lint/model.hpp"

namespace dss::lint {

struct Rule {
  std::string id;
  std::string summary;  ///< one line, shown by --list-rules
};

/// All rules, in reporting order.
[[nodiscard]] const std::vector<Rule>& all_rules();
[[nodiscard]] bool known_rule(const std::string& id);

struct Finding {
  std::string rule;
  std::string file;
  u32 line = 0;
  std::string message;
};

/// A parsed `// dss-lint: allow(...)` comment.
struct SuppressionRecord {
  std::string rule;
  std::string file;
  u32 line = 0;
  std::string reason;
  u32 hits = 0;  ///< findings this suppression absorbed
};

struct AnalysisOptions {
  /// Restrict reported findings to these rule ids (empty = all rules).
  std::vector<std::string> only_rules;
  /// Report suppressions that matched no finding as bad-suppression.
  bool strict_suppressions = false;
  /// Functions whose bodies seed the shard-safety reachability analysis.
  /// Covers the detailed replay core, the functional-warming path of
  /// sampled replay (warm_* run on the same pool-sharded machines), and the
  /// pool-worker entry points (pipeline_worker and replay_shard_phases run
  /// shards there; compile_trace and route_shards run their chunked scans
  /// there).
  std::vector<std::string> shard_roots = {
      "access_batch",        "replay_batched",  "warm_batch",
      "warm_access",         "sample_replay",   "pipeline_worker",
      "replay_shard_phases", "compile_trace",   "route_shards"};
  /// Functions whose bodies the hot-alloc rule bans allocation in (the
  /// `// dss-lint: hot-path` marker extends this per definition site).
  std::vector<std::string> hot_functions = {"classify_and_fill"};
};

struct AnalysisResult {
  std::vector<Finding> findings;       ///< surviving, sorted (file, line)
  std::vector<Finding> suppressed;     ///< absorbed by a suppression
  std::vector<SuppressionRecord> suppressions;  ///< every parsed allow()
  std::size_t files_scanned = 0;
};

/// Run every rule over the parsed models. Deterministic: output order
/// depends only on the (sorted) input file order and line numbers.
[[nodiscard]] AnalysisResult analyze(const std::vector<FileModel>& files,
                                     const AnalysisOptions& opts);

}  // namespace dss::lint
