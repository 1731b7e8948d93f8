// Statistical validation of the importance-sampled verifier on a real
// circuit fixture, against a high-budget plain Monte-Carlo reference (the
// way ISLE, arXiv 0805.2627, and variational IS, arXiv 2407.00711,
// validate their estimators).
//
// The fixture is the optimized folded cascode: d* below is the final
// design of examples/opamp_yield, printed with %.17g.  At d* the
// worst-case operating corners and points are rebuilt exactly as the
// optimizer's last linearization builds them, and the IS verifier runs
// with the opamp_yield options.  The reference is a 40,000-sample plain
// MC at d* (seed 987654321, the same corners): yield 0.99720 with Wilson
// interval [0.99663, 0.99767]; 100 of its 112 failures are CMRR failures
// (p ~ 2.5e-3) -- the mirrored spec, which fails on both sides.  It costs
// 120,000 evaluations, so it is pinned here instead of recomputed.
#include "circuits/folded_cascode.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/evaluator.hpp"
#include "core/is_verification.hpp"
#include "core/linearization.hpp"
#include "obs/obs.hpp"

namespace mayo::circuits {
namespace {

using linalg::DesignVec;

constexpr double kReferenceLower = 0.99663224097525149;
constexpr double kReferenceUpper = 0.99767226601989667;
constexpr std::size_t kCmrr = 2;

DesignVec optimized_design() {
  return DesignVec{7.9969771444780079e-05, 2.6006396264899676e-05,
                   3.8154545795207499e-05, 1.9622502321068214e-05,
                   1.9101235641826773e-05, 4.0000000000000003e-05,
                   5.0000000000000002e-05};
}

/// examples/opamp_yield's IS options.
core::IsVerificationOptions opamp_yield_options(std::uint64_t seed) {
  core::IsVerificationOptions options;
  options.initial_samples = 64;
  options.round_samples = 64;
  options.max_rounds = 4;
  options.seed = seed;
  return options;
}

class IsReferenceTest : public ::testing::Test {
 protected:
  IsReferenceTest()
      : problem(FoldedCascode::make_problem()),
        ev(problem),
        d(optimized_design()),
        linearized(core::build_linearizations(ev, d)) {}

  core::YieldProblem problem;
  core::Evaluator ev;
  DesignVec d;
  core::LinearizedModels linearized;
};

TEST_F(IsReferenceTest, IsBracketOverlapsPlainMcReference) {
  ASSERT_TRUE(linearized.worst_cases[kCmrr].mirrored);
  for (const std::uint64_t seed : {0xC0FFEEull, 7919ull, 39595ull}) {
    SCOPED_TRACE(seed);
    const core::IsVerificationResult is = core::importance_sample_verify(
        ev, d, linearized.operating.theta_wc, linearized.worst_cases,
        opamp_yield_options(seed));

    // Same design, corners and estimand as the reference: the intervals
    // must overlap, and the certified lower bound must hold.
    EXPECT_LE(is.confidence.lower, kReferenceUpper);
    EXPECT_GE(is.confidence.upper, kReferenceLower);
    EXPECT_GE(is.confidence.lower, 0.99);
    EXPECT_LE(is.confidence.lower, is.yield);
    EXPECT_GE(is.confidence.upper, is.yield);

    // Structural sanity of every per-spec estimate.
    ASSERT_EQ(is.per_spec.size(), problem.num_specs());
    for (const core::SpecIsEstimate& e : is.per_spec) {
      EXPECT_GE(e.fail_probability, 0.0);
      EXPECT_LE(e.fail_probability, 1.0);
      EXPECT_LE(e.lower, e.fail_probability);
      EXPECT_GE(e.upper, e.fail_probability);
      EXPECT_GE(e.samples, 64u);
    }
  }
}

TEST_F(IsReferenceTest, FarShiftFlagsLowEss) {
  // Proposals six times past the worst-case points: the likelihood ratios
  // degenerate for at least one spec, which the low-ESS diagnostic must
  // flag and count, while every estimate stays a bracketed probability.
  std::vector<core::WorstCasePoint> far = linearized.worst_cases;
  for (core::WorstCasePoint& wc : far) wc.s_wc = wc.s_wc * 6.0;
  core::IsVerificationOptions options = opamp_yield_options(0xC0FFEE);
  options.max_rounds = 0;
  const std::uint64_t low_ess_before =
      obs::registry().counters.mc_is_low_ess.value();
  const core::IsVerificationResult is = core::importance_sample_verify(
      ev, d, linearized.operating.theta_wc, far, options);

  bool any_low_ess = false;
  for (const core::SpecIsEstimate& e : is.per_spec) {
    any_low_ess = any_low_ess || e.low_ess;
    EXPECT_GE(e.fail_probability, 0.0);
    EXPECT_LE(e.fail_probability, 1.0);
    EXPECT_LE(e.lower, e.upper);
  }
  EXPECT_TRUE(any_low_ess);
  EXPECT_GT(obs::registry().counters.mc_is_low_ess.value(), low_ess_before);
}

}  // namespace
}  // namespace mayo::circuits
