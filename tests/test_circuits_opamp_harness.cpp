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
  EXPECT_NEAR(slew_from_step(grid(), ramp(1.0, 3.0)), 0.5, 1e-12);
}

TEST(SlewFromStep, FallingEdgeReportsMagnitude) {
  EXPECT_NEAR(slew_from_step(grid(), ramp(3.0, 1.0)), 0.5, 1e-12);
}

TEST(SlewFromStep, NegligibleStepIsZero) {
  EXPECT_EQ(slew_from_step(grid(), ramp(1.0, 1.0 + 5e-7)), 0.0);
  EXPECT_EQ(slew_from_step(grid(), ramp(1.0, 1.0 - 5e-7)), 0.0);
}

TEST(SlewFromStep, MissingCrossingIsZero) {
  // A gap of unusable samples: no pair of samples straddles the levels.
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v = {0.0, NAN, NAN, 1.0};
  EXPECT_EQ(slew_from_step(t, v), 0.0);
}

TEST(SlewFromStep, FewerThanThreePointsIsZero) {
  EXPECT_EQ(slew_from_step({}, {}), 0.0);
  EXPECT_EQ(slew_from_step({0.0, 1.0}, {0.0, 1.0}), 0.0);
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
