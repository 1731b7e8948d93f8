// The shared opamp testbench harness: the 10%-90% slew measurement both
// topologies read their SR+ performance from, and the per-topology choice
// of the third performance (CMRR on the folded cascode, PM on Miller).
#include "circuits/opamp_harness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"

namespace mayo::circuits {
namespace {

/// A ramp from v0 to v1 between t = 2 and t = 6 on the grid 0, 1, ..., 10.
std::vector<double> ramp(double v0, double v1) {
  std::vector<double> v;
  for (int k = 0; k <= 10; ++k) {
    const double f = std::clamp((k - 2.0) / 4.0, 0.0, 1.0);
    v.push_back(v0 + f * (v1 - v0));
  }
  return v;
}

std::vector<double> grid() {
  std::vector<double> t;
  for (int k = 0; k <= 10; ++k) t.push_back(k);
  return t;
}

TEST(SlewFromStep, RisingEdge) {
  // 10% at t = 2.4, 90% at t = 5.6: 0.8 * 2 V over 3.2 s.
  const SlewResult r = slew_from_step(grid(), ramp(1.0, 3.0), 3.0);
  EXPECT_EQ(r.status, SlewStatus::kMeasured);
  EXPECT_NEAR(r.rate, 0.5, 1e-12);
}

TEST(SlewFromStep, FallingEdgeReportsMagnitude) {
  const SlewResult r = slew_from_step(grid(), ramp(3.0, 1.0), 1.0);
  EXPECT_EQ(r.status, SlewStatus::kMeasured);
  EXPECT_NEAR(r.rate, 0.5, 1e-12);
}

TEST(SlewFromStep, WaveformMayEndAtTheNinetyPercentCrossing) {
  // The early-stopped slew bench hands over the response only up to its
  // first sample at or past 90%: the levels come from v_end, not v.back().
  std::vector<double> t = grid();
  std::vector<double> v = ramp(1.0, 3.0);
  t.resize(7);  // last sample t = 6 (v = 3.0) is past the 90% level 2.8
  v.resize(7);
  EXPECT_NEAR(slew_from_step(t, v, 3.0).rate, 0.5, 1e-12);
  // Two points straddling both levels suffice.
  EXPECT_NEAR(slew_from_step({0.0, 1.0}, {0.0, 1.0}, 1.0).rate, 1.0, 1e-12);
}

TEST(SlewFromStep, NegligibleStepIsNoStep) {
  const SlewResult up = slew_from_step(grid(), ramp(1.0, 3.0), 1.0 + 5e-7);
  EXPECT_EQ(up.status, SlewStatus::kNoStep);
  EXPECT_EQ(up.rate, 0.0);
  EXPECT_EQ(slew_from_step(grid(), ramp(1.0, 3.0), 1.0 - 5e-7).status,
            SlewStatus::kNoStep);
}

TEST(SlewFromStep, UnsettledResponseIsNotSettled) {
  // The response stops short of 90% of the way to v_end (2.8 V).
  const SlewResult r = slew_from_step(grid(), ramp(1.0, 2.5), 3.0);
  EXPECT_EQ(r.status, SlewStatus::kNotSettled);
  EXPECT_EQ(r.rate, 0.0);
}

TEST(SlewFromStep, MissingCrossingIsNotSettled) {
  // A gap of unusable samples: no pair of samples straddles the levels.
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v = {0.0, NAN, NAN, 1.0};
  EXPECT_EQ(slew_from_step(t, v, 1.0).status, SlewStatus::kNotSettled);
  EXPECT_EQ(slew_from_step({}, {}, 1.0).status, SlewStatus::kNotSettled);
  EXPECT_EQ(slew_from_step({0.0}, {0.0}, 1.0).rate, 0.0);
}

/// Fixed mismatch sample j of an n-parameter statistical vector: entries
/// at -2..2 sigma (30 mV global Vth, 4% global gain factor, 3 mV local
/// Vth).
linalg::Vector mismatch_sample(std::size_t n, int j) {
  linalg::Vector s(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(j);
    const double z =
        static_cast<double>(static_cast<int>((11 * u + 5 * i + 3 * i * u) % 9) -
                            4) /
        2.0;
    const double sigma = i < 2 ? 0.03 : i < 4 ? 0.04 : 0.003;
    s[i] = sigma * z;
  }
  return s;
}

/// SR [V/us] at the nominal point (first entry) and at mismatch_sample
/// 0..7, recorded with the full-window measurement whose levels came from
/// the last sample of a 120 ns (FC) / 1.2 us (Miller) transient.
constexpr double kFcSrFullWindow[] = {
    31.325584995997492, 28.84361313501298,  30.993570073420198,
    33.88212509314927,  31.406302808457173, 31.372078735740786,
    29.088469353199937, 33.269648800405541, 31.277340695079737};
constexpr double kMillerSrFullWindow[] = {
    2.569122680958333,  2.5443454688890648, 2.5276875178137566,
    2.6051130869513841, 2.5909802480504389, 2.5754527500830715,
    2.5727098569291202, 2.5812188358182944, 2.5660856416158371};

template <typename Opamp, std::size_t N>
void expect_full_window_sr(Opamp& opamp, std::size_t num_stats,
                           const double (&reference)[N]) {
  const linalg::Vector theta{300.15, 5.0};
  for (std::size_t k = 0; k < N; ++k) {
    const linalg::Vector s =
        k == 0 ? linalg::Vector(num_stats)
               : mismatch_sample(num_stats, static_cast<int>(k) - 1);
    const OpampMeasurements m =
        opamp.measure(Opamp::initial_design(), s, theta);
    ASSERT_TRUE(m.valid) << k;
    EXPECT_TRUE(m.sr_settled) << k;
    EXPECT_NEAR(m.sr_v_per_us, reference[k], 1e-8 * reference[k]) << k;
  }
}

TEST(SlewBench, EarlyStopMatchesTheFullWindow) {
  // Stopping at the 90% crossing with levels from the final-input DC
  // point reproduces the full-window SR to 1e-8 relative.
  FoldedCascode fc;
  expect_full_window_sr(fc, FoldedCascodeStats::kCount, kFcSrFullWindow);
  Miller miller;
  expect_full_window_sr(miller, MillerStats::kCount, kMillerSrFullWindow);
}

TEST(SlewBench, TooShortWindowReportsNotSettled) {
  // A cap below the 90% crossing time (~13 ns at nominal): SR is 0 and
  // flagged, while the measurement itself stays valid, so only the SR
  // spec fails.
  FoldedCascode::Options options;
  options.sr_t_stop = 4e-9;
  FoldedCascode fc(options);
  const OpampMeasurements m =
      fc.measure(FoldedCascode::initial_design(),
                 linalg::Vector(FoldedCascodeStats::kCount), {300.15, 5.0});
  ASSERT_TRUE(m.valid);
  EXPECT_FALSE(m.sr_settled);
  EXPECT_EQ(m.sr_v_per_us, 0.0);
  EXPECT_GT(m.a0_db, 0.0);
}

TEST(SlewBench, FollowerThatDoesNotFollowReportsNoSlew) {
  // bench/table3_no_constraints' 2nd-iteration design, far outside the
  // feasibility region (A0 below 1 dB): for the 0.5 V input step the
  // settled output moves a few mV, and it is not the equilibrium the step
  // response heads for.  No slew is measured there: SR 0, not settled,
  // while the measurement stays valid so only the SR spec fails.
  const linalg::Vector d{7.9995249933915885e-05, 0.00010306464734827884,
                         4.1082913616000111e-05, 4.0000000000000003e-05,
                         4.0000000000000003e-05, 4.0000000000000003e-05,
                         5.0000000000000002e-05};
  const core::YieldProblem problem = FoldedCascode::make_problem();
  FoldedCascode fc;
  for (const double temp :
       {problem.operating.lower[0], problem.operating.upper[0]}) {
    for (const double vdd :
         {problem.operating.lower[1], problem.operating.upper[1]}) {
      SCOPED_TRACE(::testing::Message() << temp << " K, " << vdd << " V");
      const OpampMeasurements m = fc.measure(
          d, linalg::Vector(FoldedCascodeStats::kCount), {temp, vdd});
      ASSERT_TRUE(m.valid);
      EXPECT_FALSE(m.sr_settled);
      EXPECT_EQ(m.sr_v_per_us, 0.0);
      EXPECT_LT(m.a0_db, 1.0);
    }
  }
}

/// Nominal SR at the production dt and three successive halvings.
template <typename Opamp>
std::vector<double> sr_over_halvings(std::size_t num_stats) {
  std::vector<double> sr;
  typename Opamp::Options options;
  for (int level = 0; level < 4; ++level, options.sr_dt *= 0.5) {
    Opamp opamp(options);
    sr.push_back(opamp
                     .measure(Opamp::initial_design(),
                              linalg::Vector(num_stats), {300.15, 5.0})
                     .sr_v_per_us);
  }
  return sr;
}

void expect_first_order(const std::vector<double>& sr) {
  // Backward Euler: each halving of dt halves the error, so successive
  // differences shrink by ~2.
  for (std::size_t k = 0; k + 2 < sr.size(); ++k) {
    const double ratio = (sr[k + 1] - sr[k]) / (sr[k + 2] - sr[k + 1]);
    EXPECT_GE(ratio, 1.7) << k;
    EXPECT_LE(ratio, 2.3) << k;
  }
}

TEST(SlewBench, SrConvergesFirstOrderInDt) {
  // EXPERIMENTS.md, "SR discretization error": at the production step
  // the FC reads ~2.1% and Miller ~1.8% below the dt -> 0 limit.
  expect_first_order(
      sr_over_halvings<FoldedCascode>(FoldedCascodeStats::kCount));
  expect_first_order(sr_over_halvings<Miller>(MillerStats::kCount));
}

TEST(OpampHarness, ThirdPerformanceFollowsTheTopology) {
  FoldedCascode fc;
  const linalg::Vector theta{300.15, 5.0};
  const OpampMeasurements fm =
      fc.measure(FoldedCascode::initial_design(),
                 linalg::Vector(FoldedCascodeStats::kCount), theta);
  ASSERT_TRUE(fm.valid);
  EXPECT_GT(fm.cmrr_db, 0.0);

  // Miller packs the phase margin and never pays for the common-mode
  // stamp: its CMRR field stays unmeasured.
  Miller miller;
  const OpampMeasurements mm = miller.measure(
      Miller::initial_design(), linalg::Vector(MillerStats::kCount), theta);
  ASSERT_TRUE(mm.valid);
  EXPECT_EQ(mm.cmrr_db, 0.0);
  EXPECT_GT(mm.pm_deg, 0.0);
  const linalg::PerfVec f = miller.evaluate(
      linalg::DesignVec(Miller::initial_design()),
      linalg::StatPhysVec(linalg::Vector(MillerStats::kCount)),
      linalg::OperatingVec(theta));
  EXPECT_EQ(f[2], mm.pm_deg);
  EXPECT_EQ(f[3], mm.sr_v_per_us);
}

}  // namespace
}  // namespace mayo::circuits
