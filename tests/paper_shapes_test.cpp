// Regression test for the paper's qualitative findings (EXPERIMENTS.md).
//
// Every claim of every Fig. 2-10 row in core/claims is checked at the
// documented scale 16 and seed 42, one trial per cell. A refactor that breaks
// a figure's shape fails here. The per-figure tests check their rows' claims
// plus the few checks no claim makes at this strength.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string_view>
#include <vector>

#include "core/claims.hpp"
#include "core/metrics.hpp"

namespace dss {
namespace {

using perf::Platform;
using tpch::QueryId;

// One runner and one batch per test process: each cell runs once, the first
// time a test reads it.
const core::CellBatch& batch_with(std::span<const core::CellKey> cells) {
  static core::ExperimentRunner runner(core::ScaleConfig{16}, 42,
                                       /*jobs=*/0);
  static core::CellBatch batch;
  std::vector<core::CellKey> missing;
  std::vector<core::ExperimentConfig> cfgs;
  for (const core::CellKey& k : cells) {
    if (!batch.contains(k) &&
        std::find(missing.begin(), missing.end(), k) == missing.end()) {
      missing.push_back(k);
      const auto& [pl, q, np] = k;
      cfgs.push_back(runner.cell(pl, q, np, 1));
    }
  }
  if (cfgs.empty()) return batch;
  std::vector<core::RunResult> results = runner.run_cells(cfgs);
  for (std::size_t i = 0; i < missing.size(); ++i) {
    batch.emplace(missing[i], std::move(results[i]));
  }
  return batch;
}

const core::RunResult& cell(Platform pl, QueryId q, u32 np) {
  const core::CellKey k{pl, q, np};
  return batch_with(std::span(&k, 1)).at(k);
}

void expect_claims(std::string_view experiment) {
  const auto& rows = core::figures();
  const auto f = std::find_if(rows.begin(), rows.end(), [&](const auto& r) {
    return r.experiment == experiment;
  });
  ASSERT_NE(f, rows.end()) << experiment;
  for (const core::Claim& c : f->claims(batch_with(f->cells))) {
    EXPECT_TRUE(c.holds) << f->experiment << ": " << c.text;
  }
}

TEST(PaperShapes, EveryFigureClaimHoldsOnOneBatch) {
  // The rows share most cells (Figs. 2-4's grid lies inside the sweeps), so
  // the union runs each distinct cell once.
  std::vector<core::CellKey> cells;
  for (const core::Figure& f : core::figures()) {
    cells.insert(cells.end(), f.cells.begin(), f.cells.end());
  }
  const core::CellBatch& b = batch_with(cells);
  for (const core::Figure& f : core::figures()) {
    for (const core::Claim& c : f.claims(b)) {
      EXPECT_TRUE(c.holds) << f.experiment << ": " << c.text;
    }
  }
}

TEST(PaperShapes, Fig2SingleProcessCyclesComparable) {
  expect_claims("fig2_thread_time");
  for (auto q : {QueryId::Q21, QueryId::Q12}) {
    EXPECT_LT(cell(Platform::Origin2000, q, 1).thread_time_cycles / 250e6,
              cell(Platform::VClass, q, 1).thread_time_cycles / 200e6)
        << tpch::query_name(q) << ": the Origin's clock wins wall-clock";
  }
}

TEST(PaperShapes, Fig3CpiBandAndGrowth) {
  expect_claims("fig3_cpi");
  for (auto q : core::kQueries) {
    for (auto pl : {Platform::VClass, Platform::Origin2000}) {
      const double cpi8 = cell(pl, q, 8).cpi;
      EXPECT_GT(cpi8, 1.25) << tpch::query_name(q) << " CPI at 8 processes";
      EXPECT_LT(cpi8, 1.70) << tpch::query_name(q) << " CPI at 8 processes";
    }
  }
}

TEST(PaperShapes, Fig4CacheHierarchyContrast) {
  expect_claims("fig4_dcache_misses");
}

TEST(PaperShapes, Fig5and7ScalingContrast) {
  expect_claims("fig5_origin_thread_time");
  expect_claims("fig7_vclass_thread_time");
  const auto c = &core::RunResult::cycles_per_minstr;
  const double sgi_rise = cell(Platform::Origin2000, QueryId::Q12, 8).*c -
                          cell(Platform::Origin2000, QueryId::Q12, 1).*c;
  const double hpv_rise = cell(Platform::VClass, QueryId::Q12, 8).*c -
                          cell(Platform::VClass, QueryId::Q12, 1).*c;
  EXPECT_GT(sgi_rise, hpv_rise) << "Q12: Origin communication costs more";
}

TEST(PaperShapes, Fig9LatencyJumpAtTwoProcesses) {
  expect_claims("fig9_vclass_memory_latency");
}

TEST(PaperShapes, Fig10ContextSwitchStructure) {
  expect_claims("fig10_vclass_context_switches");
  EXPECT_GT(cell(Platform::VClass, QueryId::Q21, 8).vol_ctx_per_minstr,
            cell(Platform::VClass, QueryId::Q21, 2).vol_ctx_per_minstr)
      << "Q21: voluntary switches grow strictly with process count";
}

TEST(PaperShapes, MigratoryHandoffsHappenOnVClass) {
  EXPECT_GT(cell(Platform::VClass, QueryId::Q6, 4).mean.migratory_transfers,
            0u)
      << "the V-Class protocol enhancement must trigger on lock/header "
         "read-update patterns";
}

TEST(PaperShapes, RemoteAccessShareGrowsOnOrigin) {
  auto remote_share = [](u32 np) {
    const perf::Counters& c = cell(Platform::Origin2000, QueryId::Q6, np).mean;
    return static_cast<double>(c.remote_accesses) /
           static_cast<double>(c.mem_requests);
  };
  EXPECT_GT(remote_share(8), remote_share(1))
      << "more processes sit on nodes away from the shared segment's homes";
}

}  // namespace
}  // namespace dss
