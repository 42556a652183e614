// The paper's Figs. 2-10 as data: one row per figure, naming the cells it
// runs and the qualitative claims it supports (EXPERIMENTS.md), each defined
// once. `dss_bench fig*` prints a row's figure and reports its claims;
// `paper_shapes_test` checks every row's claims on one batch.
#pragma once

#include <map>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"

namespace dss::core {

/// One cell of a figure: `nproc` processes of a query on a platform.
using CellKey = std::tuple<perf::Platform, tpch::QueryId, u32>;

/// The results of a batch of cells, keyed by (platform, query, nproc).
using CellBatch = std::map<CellKey, RunResult>;

/// Every (platform x query x nproc) combination, in that nesting order.
[[nodiscard]] std::vector<CellKey> cell_grid(
    std::span<const perf::Platform> platforms,
    std::span<const tpch::QueryId> queries, std::span<const u32> nprocs);

/// Run `cells` at `trials` as one run_cells batch on `runner`'s pool. The
/// export records them in `cells` order.
[[nodiscard]] CellBatch run_batch(ExperimentRunner& runner,
                                  std::span<const CellKey> cells, u32 trials);

/// A qualitative statement of the paper and whether a run reproduces it.
struct Claim {
  std::string text;
  bool holds;
};

/// One of Figs. 2-10: the `dss_bench` experiment that draws it, the cells it
/// runs (in run and export order), and its claims, evaluated on a batch that
/// holds those cells.
struct Figure {
  const char* experiment;
  std::vector<CellKey> cells;
  std::vector<Claim> (*claims)(const CellBatch&);
};

/// Figs. 2-10, in paper order.
[[nodiscard]] const std::vector<Figure>& figures();

/// Dirty (cache-to-cache) misses as a percentage of `misses`, both summed
/// over the cell: the communication share Figs. 6 and 8 report.
[[nodiscard]] double dirty_miss_pct(const RunResult& r, u64 misses);

}  // namespace dss::core
