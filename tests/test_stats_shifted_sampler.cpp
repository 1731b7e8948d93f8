#include "stats/shifted_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace mayo::stats {
namespace {

TEST(ShiftedSampler, DrawsAreBaseStreamTranslatedByShift) {
  const linalg::StatUnitVec mu{1.5, -0.5, 2.0};
  const SampleSet base(50, 3, 77);
  const ShiftedSampler shifted(50, mu, 77);
  ASSERT_EQ(shifted.count(), 50u);
  ASSERT_EQ(shifted.dim(), 3u);
  for (std::size_t j = 0; j < 50; ++j)
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_DOUBLE_EQ(shifted.samples().sample(j)[i],
                       base.sample(j)[i] + mu[i]);
}

TEST(ShiftedSampler, LogWeightsAreExactLikelihoodRatios) {
  const linalg::StatUnitVec mu{0.7, -1.2};
  const ShiftedSampler shifted(20, mu, 5);
  const double mu_sq = mu[0] * mu[0] + mu[1] * mu[1];
  for (std::size_t j = 0; j < 20; ++j) {
    const double* s = shifted.samples().sample(j);
    const double expected = 0.5 * mu_sq - (mu[0] * s[0] + mu[1] * s[1]);
    EXPECT_DOUBLE_EQ(shifted.log_weight(j), expected);
    EXPECT_DOUBLE_EQ(shifted.weight(j), std::exp(expected));
  }
}

TEST(ShiftedSampler, ZeroShiftHasUnitWeights) {
  const linalg::StatUnitVec mu{0.0, 0.0};
  const ShiftedSampler shifted(10, mu, 3);
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_DOUBLE_EQ(shifted.log_weight(j), 0.0);
    EXPECT_DOUBLE_EQ(shifted.weight(j), 1.0);
  }
}

TEST(ShiftedSampler, WeightsAverageToOne) {
  // E_q[w] = 1 exactly; a sample mean of w over many draws must be close.
  const linalg::StatUnitVec mu{1.0, 0.5, -0.5};
  const ShiftedSampler shifted(20000, mu, 13);
  RunningStats acc;
  for (std::size_t j = 0; j < shifted.count(); ++j) acc.add(shifted.weight(j));
  EXPECT_NEAR(acc.mean(), 1.0, 0.05);
}

TEST(ShiftedSampler, TwoLobeDrawsAlternateBetweenLobes) {
  const linalg::StatUnitVec mu{1.5, -0.5};
  const SampleSet base(9, 2, 21);
  const ShiftedSampler mixed(9, mu, 21, /*two_lobe=*/true);
  for (std::size_t j = 0; j < 9; ++j) {
    const double sign = j % 2 == 0 ? 1.0 : -1.0;
    for (std::size_t i = 0; i < 2; ++i)
      EXPECT_DOUBLE_EQ(mixed.samples().sample(j)[i],
                       base.sample(j)[i] + sign * mu[i]);
  }
}

TEST(ShiftedSampler, TwoLobeLogWeightsMatchDirectDensityRatio) {
  // w = phi(s) / (a+ phi(s - mu) + a- phi(s + mu)) from the Gaussian
  // densities themselves (normalizations cancel), for an even and an odd
  // count (lobe shares 1/2 and 3/5 : 2/5).
  const linalg::StatUnitVec mu{0.9, -1.4, 0.3};
  for (std::size_t count : {8u, 5u}) {
    const ShiftedSampler mixed(count, mu, 31, /*two_lobe=*/true);
    const double a_plus = static_cast<double>((count + 1) / 2) / count;
    const double a_minus = 1.0 - a_plus;
    for (std::size_t j = 0; j < count; ++j) {
      const double* s = mixed.samples().sample(j);
      double s2 = 0.0, plus2 = 0.0, minus2 = 0.0;
      for (std::size_t i = 0; i < 3; ++i) {
        s2 += s[i] * s[i];
        plus2 += (s[i] - mu[i]) * (s[i] - mu[i]);
        minus2 += (s[i] + mu[i]) * (s[i] + mu[i]);
      }
      const double direct =
          std::exp(-0.5 * s2) /
          (a_plus * std::exp(-0.5 * plus2) + a_minus * std::exp(-0.5 * minus2));
      EXPECT_NEAR(mixed.log_weight(j), std::log(direct), 1e-12)
          << "count " << count << " draw " << j;
      EXPECT_NEAR(mixed.weight(j), direct, 1e-12 * direct);
    }
  }
}

TEST(ShiftedSampler, TwoLobeWeightsAverageToOne) {
  // E_q[w] = 1 for the mixture too; the alternating (stratified) draws
  // with their lobe shares keep the sample mean unbiased.
  const linalg::StatUnitVec mu{1.0, 0.5, -0.5};
  const ShiftedSampler mixed(20000, mu, 17, /*two_lobe=*/true);
  RunningStats acc;
  for (std::size_t j = 0; j < mixed.count(); ++j) acc.add(mixed.weight(j));
  EXPECT_NEAR(acc.mean(), 1.0, 0.05);
}

TEST(ShiftedSampler, InvalidArgumentsThrow) {
  const linalg::StatUnitVec mu{1.0};
  EXPECT_THROW(ShiftedSampler(0, mu, 1), std::invalid_argument);
  EXPECT_THROW(ShiftedSampler(4, linalg::StatUnitVec{}, 1),
               std::invalid_argument);
}

TEST(SubstreamSeed, DeterministicAndDistinct) {
  const std::uint64_t base = 0xC0FFEE;
  EXPECT_EQ(substream_seed(base, 2, 7), substream_seed(base, 2, 7));
  EXPECT_NE(substream_seed(base, 2, 7), substream_seed(base, 7, 2));
  EXPECT_NE(substream_seed(base, 0, 0), substream_seed(base, 0, 1));
  EXPECT_NE(substream_seed(base, 0, 0), substream_seed(base, 1, 0));
  EXPECT_NE(substream_seed(base, 0, 0), substream_seed(base + 1, 0, 0));
}

TEST(WeightedYieldConfidence, ReducesToWilsonOnIntegerInputs) {
  for (std::size_t trials : {10u, 300u, 1000u}) {
    for (std::size_t successes : {0u, 1u, 5u, 9u}) {
      if (successes > trials) continue;
      const YieldInterval wilson = yield_confidence(successes, trials);
      const YieldInterval weighted = weighted_yield_confidence(
          static_cast<double>(successes) / static_cast<double>(trials),
          static_cast<double>(trials));
      EXPECT_EQ(weighted.estimate, wilson.estimate);
      EXPECT_EQ(weighted.lower, wilson.lower);
      EXPECT_EQ(weighted.upper, wilson.upper);
    }
  }
}

TEST(WeightedYieldConfidence, FractionalEssNarrowsWithMoreSamples) {
  const YieldInterval small = weighted_yield_confidence(0.1, 25.5);
  const YieldInterval large = weighted_yield_confidence(0.1, 400.75);
  EXPECT_LT(large.upper - large.lower, small.upper - small.lower);
}

TEST(WeightedYieldConfidence, InvalidInputsThrow) {
  EXPECT_THROW(weighted_yield_confidence(0.5, 0.0), std::invalid_argument);
  EXPECT_THROW(weighted_yield_confidence(0.5, -1.0), std::invalid_argument);
  EXPECT_THROW(weighted_yield_confidence(-0.1, 10.0), std::invalid_argument);
  EXPECT_THROW(weighted_yield_confidence(1.1, 10.0), std::invalid_argument);
}

}  // namespace
}  // namespace mayo::stats
