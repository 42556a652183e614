// Known-distribution fixtures for the util/stats sampling estimators
// (DESIGN.md §12): constant, alternating, and heavy-tail inputs with
// hand-checkable means/variances, CI coverage of the true mean, and exact
// determinism of the estimates regardless of how the samples were produced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dss {
namespace {

TEST(TCritical, MatchesTableAndAsymptote) {
  EXPECT_DOUBLE_EQ(t_critical_95(0), 0.0);
  EXPECT_DOUBLE_EQ(t_critical_95(1), 12.706);
  EXPECT_DOUBLE_EQ(t_critical_95(2), 4.303);
  EXPECT_DOUBLE_EQ(t_critical_95(10), 2.228);
  EXPECT_DOUBLE_EQ(t_critical_95(30), 2.042);
  // The bracket values above the table are conservative: monotonically
  // non-increasing toward 1.96.
  double prev = t_critical_95(1);
  for (std::size_t df = 2; df <= 1000; ++df) {
    const double t = t_critical_95(df);
    EXPECT_LE(t, prev) << "df=" << df;
    EXPECT_GE(t, 1.96) << "df=" << df;
    prev = t;
  }
  EXPECT_DOUBLE_EQ(t_critical_95(100000), 1.96);
}

TEST(EstimateMean, EmptyAndSingleton) {
  const Estimate none = estimate_mean({});
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
  EXPECT_DOUBLE_EQ(none.ci_half, 0.0);

  const Estimate one = estimate_mean({42.5});
  EXPECT_EQ(one.n, 1u);
  EXPECT_DOUBLE_EQ(one.mean, 42.5);
  // One observation: no spread information, zero-width interval by
  // definition (df == 0).
  EXPECT_DOUBLE_EQ(one.variance, 0.0);
  EXPECT_DOUBLE_EQ(one.ci_half, 0.0);
}

TEST(EstimateMean, ConstantSeriesHasZeroWidth) {
  const std::vector<double> xs(64, 3.25);
  const Estimate e = estimate_mean(xs);
  EXPECT_EQ(e.n, 64u);
  EXPECT_DOUBLE_EQ(e.mean, 3.25);
  EXPECT_DOUBLE_EQ(e.variance, 0.0);
  EXPECT_DOUBLE_EQ(e.ci_half, 0.0);
  EXPECT_DOUBLE_EQ(e.cov, 0.0);
  EXPECT_TRUE(e.covers(3.25));
  EXPECT_FALSE(e.covers(3.26));
}

TEST(EstimateMean, AlternatingSeriesExactMoments) {
  // 0, 2, 0, 2, ...: mean 1, sample variance n/(n-1) * 1 = 1.0337 for n=30
  // ... keep it exact: with n even, ss = n * 1^2, variance = n/(n-1).
  std::vector<double> xs;
  for (int i = 0; i < 30; ++i) xs.push_back(i % 2 == 0 ? 0.0 : 2.0);
  const Estimate e = estimate_mean(xs);
  EXPECT_EQ(e.n, 30u);
  EXPECT_DOUBLE_EQ(e.mean, 1.0);
  EXPECT_DOUBLE_EQ(e.variance, 30.0 / 29.0);
  const double sd = std::sqrt(30.0 / 29.0);
  EXPECT_DOUBLE_EQ(e.ci_half, t_critical_95(29) * sd / std::sqrt(30.0));
  EXPECT_DOUBLE_EQ(e.cov, sd);
  EXPECT_TRUE(e.covers(1.0));
}

TEST(EstimateMean, HeavyTailCoverageOfTrueMean) {
  // Two-point heavy-tail mixture with known mean: value 1 with p=0.99,
  // value 101 with p=0.01 -> true mean 2.0. Repeated experiments should
  // produce 95% intervals that cover 2.0 in roughly 19/20 cases; we assert
  // a loose lower bound (>= 80%) so the test is robust yet meaningful, plus
  // the aggregate mean lands near truth.
  constexpr int kExperiments = 200;
  constexpr int kSamples = 400;
  int covered = 0;
  double mean_of_means = 0.0;
  Rng rng(20260809);
  for (int rep = 0; rep < kExperiments; ++rep) {
    std::vector<double> xs;
    xs.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
      xs.push_back(rng.uniform01() < 0.01 ? 101.0 : 1.0);
    }
    const Estimate e = estimate_mean(xs);
    covered += e.covers(2.0) ? 1 : 0;
    mean_of_means += e.mean;
  }
  mean_of_means /= kExperiments;
  EXPECT_GE(covered, kExperiments * 8 / 10);
  EXPECT_NEAR(mean_of_means, 2.0, 0.25);
}

TEST(EstimateMean, ScaledInflatesMeanAndInterval) {
  const Estimate e = estimate_mean({1.0, 2.0, 3.0, 4.0});
  const Estimate s = e.scaled(10.0);
  EXPECT_DOUBLE_EQ(s.mean, e.mean * 10.0);
  EXPECT_DOUBLE_EQ(s.variance, e.variance * 100.0);
  EXPECT_DOUBLE_EQ(s.ci_half, e.ci_half * 10.0);
  EXPECT_DOUBLE_EQ(s.cov, e.cov);
  EXPECT_EQ(s.n, e.n);
}

TEST(StratifiedMean, EqualWeightsMatchPlainMean) {
  const std::vector<double> means = {1.0, 3.0, 5.0, 7.0};
  const std::vector<double> w = {2.0, 2.0, 2.0, 2.0};
  const Estimate strat = stratified_mean(means, w);
  const Estimate plain = estimate_mean(means);
  EXPECT_DOUBLE_EQ(strat.mean, plain.mean);
  EXPECT_DOUBLE_EQ(strat.variance, plain.variance);
  EXPECT_DOUBLE_EQ(strat.ci_half, plain.ci_half);
  EXPECT_EQ(strat.n, plain.n);
}

TEST(StratifiedMean, WeightsShiftTheMean) {
  // Weighted mean of {0, 10} with weights {3, 1} is 2.5.
  const Estimate e = stratified_mean({0.0, 10.0}, {3.0, 1.0});
  EXPECT_EQ(e.n, 2u);
  EXPECT_DOUBLE_EQ(e.mean, 2.5);
  EXPECT_TRUE(e.covers(2.5));
}

TEST(StratifiedMean, ZeroWeightStrataIgnored) {
  const Estimate e = stratified_mean({5.0, 999.0, 7.0}, {1.0, 0.0, 1.0});
  EXPECT_EQ(e.n, 2u);
  EXPECT_DOUBLE_EQ(e.mean, 6.0);
  const Estimate none = stratified_mean({1.0, 2.0}, {0.0, 0.0});
  EXPECT_EQ(none.n, 0u);
  EXPECT_DOUBLE_EQ(none.mean, 0.0);
}

TEST(EstimateMean, BitwiseDeterministicAcrossCallOrder) {
  // The estimators are pure functions of their input vector: however the
  // per-window samples were produced (any --jobs / shard-count split), equal
  // inputs must give bit-identical estimates. Simulate "collected in a
  // different schedule" by rebuilding the same vector through a different
  // interleaving and compare exactly.
  std::vector<double> a;
  Rng rng(7);
  for (int i = 0; i < 257; ++i) a.push_back(rng.uniform01() * 1e6);
  std::vector<double> b(a.size());
  // Fill b back-to-front, then front-to-back over halves: same content.
  for (std::size_t i = a.size(); i-- > 0;) b[i] = a[i];
  const Estimate ea = estimate_mean(a);
  const Estimate eb = estimate_mean(b);
  EXPECT_EQ(ea.n, eb.n);
  EXPECT_EQ(ea.mean, eb.mean);
  EXPECT_EQ(ea.variance, eb.variance);
  EXPECT_EQ(ea.ci_half, eb.ci_half);
  EXPECT_EQ(ea.cov, eb.cov);
}

}  // namespace
}  // namespace dss
