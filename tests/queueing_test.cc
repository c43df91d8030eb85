// Unit tests for streaming statistics, distribution samplers and the
// Pollaczek–Khinchine estimator (paper Equation 1).
#include <algorithm>
#include <cmath>
#include <deque>

#include <gtest/gtest.h>

#include "queueing/distributions.h"
#include "queueing/mg1.h"
#include "queueing/stats.h"
#include "util/rng.h"

namespace phoenix::queueing {
namespace {

// ---------------------------------------------------------------- RunningStats

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic example set
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SecondMomentIdentity) {
  RunningStats s;
  util::Rng rng(1);
  double sum_sq = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Uniform(0, 10);
    s.Add(x);
    sum_sq += x * x;
  }
  EXPECT_NEAR(s.second_moment(), sum_sq / n, 1e-6);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.Add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, ClearResets) {
  RunningStats s;
  s.Add(1);
  s.Clear();
  EXPECT_EQ(s.count(), 0u);
}

// ---------------------------------------------------------------- WindowedStats

TEST(WindowedStats, WindowEviction) {
  WindowedStats w(3);
  w.Add(1);
  w.Add(2);
  w.Add(3);
  EXPECT_DOUBLE_EQ(w.mean(), 2.0);
  w.Add(10);  // evicts 1
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
}

TEST(WindowedStats, SecondMoment) {
  WindowedStats w(10);
  w.Add(3);
  w.Add(4);
  EXPECT_DOUBLE_EQ(w.second_moment(), (9.0 + 16.0) / 2.0);
}

TEST(WindowedStats, EmptyIsZero) {
  WindowedStats w(5);
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
  EXPECT_DOUBLE_EQ(w.second_moment(), 0.0);
}

TEST(WindowedStats, RingMatchesPushThenPopWindowBitForBit) {
  // The reference is the grow-then-evict window the ring replaces: the new
  // sample is added to the sums before the evicted one is subtracted, so
  // every rounding step, and thus every moment, must agree exactly.
  WindowedStats w(7);
  std::deque<double> ref;
  double sum = 0;
  double sum_sq = 0;
  util::Rng rng(11);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 500; ++i) {
      const double x = rng.Uniform(0.0, 1000.0);
      w.Add(x);
      ref.push_back(x);
      sum += x;
      sum_sq += x * x;
      if (ref.size() > 7) {
        sum -= ref.front();
        sum_sq -= ref.front() * ref.front();
        ref.pop_front();
      }
      const double n = static_cast<double>(ref.size());
      ASSERT_EQ(w.count(), ref.size());
      ASSERT_EQ(w.mean(), sum / n);
      ASSERT_EQ(w.second_moment(), std::max(0.0, sum_sq / n));
    }
    w.Clear();
    ref.clear();
    sum = 0;
    sum_sq = 0;
    EXPECT_TRUE(w.empty());
  }
}

TEST(WindowedStatsDeathTest, ZeroWindowAborts) {
  EXPECT_DEATH(WindowedStats(0), "positive");
}

// ---------------------------------------------------------------- Ewma

TEST(Ewma, SeedsWithFirstSample) {
  Ewma e(0.5);
  EXPECT_TRUE(e.empty());
  e.Add(10);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
}

TEST(Ewma, BlendsSubsequentSamples) {
  Ewma e(0.5);
  e.Add(10);
  e.Add(20);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
  e.Add(15);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
}

TEST(EwmaDeathTest, AlphaOutOfRangeAborts) {
  EXPECT_DEATH(Ewma(0.0), "alpha");
  EXPECT_DEATH(Ewma(1.5), "alpha");
}

// ---------------------------------------------------------------- Distributions

TEST(Distributions, ExponentialMeanMatchesRate) {
  util::Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += SampleExponential(rng, 0.25);
  EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(Distributions, ExponentialIsPositive) {
  util::Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(SampleExponential(rng, 2.0), 0.0);
}

TEST(Distributions, BoundedParetoStaysInBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = SampleBoundedPareto(rng, 1.3, 1.0, 300.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 300.0);
  }
}

TEST(Distributions, BoundedParetoMeanMatchesClosedForm) {
  util::Rng rng(8);
  const double alpha = 1.3, lo = 1.0, hi = 300.0;
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += SampleBoundedPareto(rng, alpha, lo, hi);
  const double analytic = BoundedParetoMean(alpha, lo, hi);
  EXPECT_NEAR(sum / n, analytic, analytic * 0.02);
}

TEST(Distributions, BoundedParetoSecondMomentMatchesClosedForm) {
  util::Rng rng(9);
  const double alpha = 2.5, lo = 1.0, hi = 50.0;
  double sum_sq = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double x = SampleBoundedPareto(rng, alpha, lo, hi);
    sum_sq += x * x;
  }
  const double analytic = BoundedParetoSecondMoment(alpha, lo, hi);
  EXPECT_NEAR(sum_sq / n, analytic, analytic * 0.05);
}

TEST(Distributions, BoundedParetoIsHeavyTailed) {
  // The top 1 % of draws should carry a disproportionate share of the mass.
  util::Rng rng(10);
  std::vector<double> xs(100000);
  double total = 0;
  for (auto& x : xs) {
    x = SampleBoundedPareto(rng, 1.1, 1.0, 1000.0);
    total += x;
  }
  std::sort(xs.begin(), xs.end());
  double top = 0;
  for (std::size_t i = xs.size() - xs.size() / 100; i < xs.size(); ++i)
    top += xs[i];
  EXPECT_GT(top / total, 0.15);
}

TEST(Distributions, LogNormalMeanMatchesClosedForm) {
  util::Rng rng(11);
  const double mu = 2.0, sigma = 0.5;
  double sum = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) sum += SampleLogNormal(rng, mu, sigma);
  const double analytic = std::exp(mu + sigma * sigma / 2);
  EXPECT_NEAR(sum / n, analytic, analytic * 0.02);
}

TEST(Distributions, StandardNormalMoments) {
  util::Rng rng(12);
  double sum = 0, sum_sq = 0;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const double z = SampleStandardNormal(rng);
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

// ---------------------------------------------------------------- P-K formula

TEST(Pk, ZeroLoadHasZeroWait) {
  EXPECT_DOUBLE_EQ(PkWait(0.0, 1.0, 2.0), 0.0);
}

TEST(Pk, UnstableQueueIsInfinite) {
  EXPECT_TRUE(std::isinf(PkWait(1.0, 1.0, 2.0)));
  EXPECT_TRUE(std::isinf(PkWait(1.5, 1.0, 2.0)));
}

TEST(Pk, ReducesToMm1ForExponentialService) {
  // Exponential service with rate mu: E[S] = 1/mu, E[S^2] = 2/mu^2.
  const double mu = 0.5, lambda = 0.3;
  const double rho = lambda / mu;
  const double pk = PkWait(rho, 1 / mu, 2 / (mu * mu));
  EXPECT_NEAR(pk, Mm1Wait(lambda, mu), 1e-12);
}

TEST(Pk, MonotonicInRho) {
  double prev = -1;
  for (double rho = 0.1; rho < 0.95; rho += 0.1) {
    const double w = PkWait(rho, 1.0, 2.0);
    EXPECT_GT(w, prev);
    prev = w;
  }
}

TEST(Pk, GrowsWithServiceVariability) {
  // Same E[S], higher E[S^2] (more variable service) waits longer.
  EXPECT_LT(PkWait(0.8, 1.0, 1.0), PkWait(0.8, 1.0, 10.0));
}

TEST(Mm1, KnownValue) {
  // lambda=0.5, mu=1: W = rho/(mu-lambda) = 0.5/0.5 = 1.
  EXPECT_DOUBLE_EQ(Mm1Wait(0.5, 1.0), 1.0);
}

TEST(Mm1, UnstableIsInfinite) {
  EXPECT_TRUE(std::isinf(Mm1Wait(1.0, 1.0)));
}

// ---------------------------------------------------------------- Estimator

TEST(WorkerWaitEstimator, ColdStartIsZero) {
  WorkerWaitEstimator est(16);
  EXPECT_DOUBLE_EQ(est.EstimateWait(), 0.0);
  EXPECT_DOUBLE_EQ(est.EstimateRho(), 0.0);
}

TEST(WorkerWaitEstimator, LearnsArrivalRate) {
  WorkerWaitEstimator est(64);
  for (int i = 0; i <= 20; ++i) est.OnArrival(i * 2.0);  // gap 2 => lambda 0.5
  EXPECT_NEAR(est.lambda(), 0.5, 1e-9);
}

TEST(WorkerWaitEstimator, MatchesPkClosedForm) {
  WorkerWaitEstimator est(128);
  // Deterministic arrivals every 2 s, constant service 1 s.
  for (int i = 0; i <= 100; ++i) est.OnArrival(i * 2.0);
  for (int i = 0; i < 100; ++i) est.OnServiceComplete(1.0);
  // lambda=0.5, E[S]=1, E[S^2]=1, rho=0.5 => W = 1 * 1/(2*1) = 0.5.
  EXPECT_NEAR(est.EstimateRho(), 0.5, 1e-9);
  EXPECT_NEAR(est.EstimateWait(), 0.5, 1e-9);
}

TEST(WorkerWaitEstimator, OverloadReportsInfinity) {
  WorkerWaitEstimator est(32);
  for (int i = 0; i <= 10; ++i) est.OnArrival(i * 1.0);
  for (int i = 0; i < 10; ++i) est.OnServiceComplete(2.0);  // rho = 2
  EXPECT_TRUE(std::isinf(est.EstimateWait()));
}

TEST(WorkerWaitEstimator, WindowTracksLoadChanges) {
  WorkerWaitEstimator est(8);
  // Old slow phase…
  for (int i = 0; i <= 50; ++i) est.OnArrival(i * 10.0);
  // …then a burst: the window only remembers the recent gaps.
  for (int i = 0; i < 20; ++i) est.OnArrival(500.0 + i * 0.5);
  EXPECT_NEAR(est.lambda(), 2.0, 1e-9);
}

TEST(WorkerWaitEstimator, ClearResets) {
  WorkerWaitEstimator est(8);
  est.OnArrival(0);
  est.OnArrival(1);
  est.OnServiceComplete(1);
  est.Clear();
  EXPECT_DOUBLE_EQ(est.EstimateWait(), 0.0);
}

// Property sweep: against a simulated M/M/1 queue, the estimator's E[W]
// prediction lands near the theoretical value across loads.
class PkAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(PkAccuracyTest, EstimatorTracksMm1Theory) {
  const double rho = GetParam();
  const double mu = 1.0, lambda = rho;
  util::Rng rng(42);
  WorkerWaitEstimator est(4096);
  double t = 0;
  for (int i = 0; i < 20000; ++i) {
    t += SampleExponential(rng, lambda);
    est.OnArrival(t);
    est.OnServiceComplete(SampleExponential(rng, mu));
  }
  const double theory = Mm1Wait(lambda, mu);
  EXPECT_NEAR(est.EstimateWait(), theory, theory * 0.25) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Loads, PkAccuracyTest,
                         ::testing::Values(0.3, 0.5, 0.7, 0.8));

}  // namespace
}  // namespace phoenix::queueing
