// Parameterized property tests: the timed executor must match the oracle
// for arbitrary query parameters (TPC-H's substitution parameters), not
// just the validation defaults.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/experiment.hpp"
#include "sim/machine_configs.hpp"
#include "tpch/oracle.hpp"

namespace dss {
namespace {

core::ExperimentRunner& runner() {
  static core::ExperimentRunner r(core::ScaleConfig{64}, 42);
  return r;
}

db::DbRuntime& shared_rt() {
  static db::RuntimeConfig rc{core::ScaleConfig{64}.pool_frames(),
                              core::ScaleConfig{64}.arena_bytes(),
                              db::SpinPolicy{}};
  static db::DbRuntime rt = [] {
    db::DbRuntime r(runner().database(), rc);
    r.prewarm_all();
    return r;
  }();
  return rt;
}

std::vector<tpch::ResultRow> run_query(tpch::QueryId q,
                                       const tpch::QueryParams& params) {
  static sim::MachineSim machine(sim::origin2000().scaled(64));
  static u32 next_cpu = 0;
  os::Process proc(machine, next_cpu);
  next_cpu = (next_cpu + 1) % machine.config().num_processors;
  auto run = tpch::make_query(q, shared_rt(), proc, params);
  while (!run->step(proc)) {
  }
  return run->result();
}

// ---- Q6 over the spec's substitution grid ----

// year is 64-bit so the struct has no padding: gtest prints the raw bytes
// into the test name, and padding garbage would change it from run to run.
struct Q6Param {
  i64 year;        // 1993..1997
  double discount; // 0.02..0.09
  double quantity; // 24 or 25
};

class Q6Params : public ::testing::TestWithParam<Q6Param> {};

TEST_P(Q6Params, MatchesOracle) {
  const auto gp = GetParam();
  tpch::QueryParams params;
  params.q6_date = db::make_date(static_cast<int>(gp.year), 1, 1);
  params.q6_discount = gp.discount;
  params.q6_quantity = gp.quantity;
  const double expected = tpch::oracle::q6(runner().database(), params);
  const auto rows = run_query(tpch::QueryId::Q6, params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].vals[0], expected, 1e-6 * (1.0 + expected));
}

INSTANTIATE_TEST_SUITE_P(
    Substitutions, Q6Params,
    ::testing::Values(Q6Param{1993, 0.02, 24.0}, Q6Param{1994, 0.06, 24.0},
                      Q6Param{1995, 0.09, 25.0}, Q6Param{1996, 0.04, 25.0},
                      Q6Param{1997, 0.07, 24.0}),
    [](const auto& info) { return "y" + std::to_string(info.param.year); });

// ---- Q12 over shipmode pairs ----

// std::string rather than const char*: gtest prints a char pointer's
// address into the test name, which would change from build to build.
using ShipModes = std::pair<std::string, std::string>;

class Q12Params : public ::testing::TestWithParam<ShipModes> {};

TEST_P(Q12Params, MatchesOracle) {
  tpch::QueryParams params;
  params.q12_mode1 = GetParam().first;
  params.q12_mode2 = GetParam().second;
  const auto expected = tpch::oracle::q12(runner().database(), params);
  const auto rows = run_query(tpch::QueryId::Q12, params);
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rows[i].key, expected[i].key);
    EXPECT_DOUBLE_EQ(rows[i].vals[0], expected[i].vals[0]);
    EXPECT_DOUBLE_EQ(rows[i].vals[1], expected[i].vals[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Substitutions, Q12Params,
    ::testing::Values(ShipModes{"MAIL", "SHIP"},
                      ShipModes{"RAIL", "TRUCK"},
                      ShipModes{"AIR", "FOB"},
                      ShipModes{"REG AIR", "RAIL"}),
    [](const auto& info) {
      std::string n = info.param.first + info.param.second;
      for (char& c : n) {
        if (c == ' ') c = '_';
      }
      return n;
    });

// ---- Q21 over nations ----

class Q21Params : public ::testing::TestWithParam<const char*> {};

TEST_P(Q21Params, MatchesOracle) {
  tpch::QueryParams params;
  params.q21_nation = GetParam();
  const auto expected = tpch::oracle::q21(runner().database(), params);
  const auto rows = run_query(tpch::QueryId::Q21, params);
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rows[i].key, expected[i].key) << "row " << i;
    EXPECT_DOUBLE_EQ(rows[i].vals[0], expected[i].vals[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Nations, Q21Params,
                         ::testing::Values("SAUDI ARABIA", "FRANCE", "JAPAN",
                                           "UNITED STATES"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (c == ' ') c = '_';
                           }
                           return n;
                         });

// ---- Q3 over segments, Q14 over months ----

class Q3Params : public ::testing::TestWithParam<const char*> {};

TEST_P(Q3Params, MatchesOracle) {
  tpch::QueryParams params;
  params.q3_segment = GetParam();
  const auto expected = tpch::oracle::q3(runner().database(), params);
  const auto rows = run_query(tpch::QueryId::Q3, params);
  ASSERT_EQ(rows.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rows[i].key, expected[i].key) << "row " << i;
    EXPECT_NEAR(rows[i].vals[0], expected[i].vals[0], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Segments, Q3Params,
                         ::testing::Values("BUILDING", "MACHINERY",
                                           "AUTOMOBILE"));

class Q14Params : public ::testing::TestWithParam<int> {};

TEST_P(Q14Params, MatchesOracle) {
  tpch::QueryParams params;
  params.q14_date = db::make_date(1994 + GetParam() / 12, 1 + GetParam() % 12, 1);
  const auto expected = tpch::oracle::q14(runner().database(), params);
  const auto rows = run_query(tpch::QueryId::Q14, params);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NEAR(rows[0].vals[0], expected[0].vals[0], 1e-9);
  EXPECT_NEAR(rows[0].vals[2], expected[0].vals[2], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Months, Q14Params, ::testing::Values(0, 5, 8, 14));

}  // namespace
}  // namespace dss
