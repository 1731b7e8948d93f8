#include "sim/transient.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/dc.hpp"

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;
using linalg::Vector;

TEST(Transient, RcStepResponse) {
  // R = 1k, C = 1n, tau = 1 us; step 0 -> 1 V at t = 0.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);

  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);

  vin.set_dc_value(1.0);  // step at t = 0+
  TranOptions options;
  options.t_stop = 5e-6;
  options.dt = 5e-9;  // tau/200 keeps BE's first-order error ~ 0.25%
  const TranResult result = solve_transient(nl, op.solution, cond, options);
  ASSERT_TRUE(result.converged);

  const std::vector<double> v = result.node_voltage(out);
  // Compare with 1 - exp(-t/tau) at a few times.
  for (std::size_t k = 0; k < result.time.size(); k += 100) {
    const double expected = 1.0 - std::exp(-result.time[k] / 1e-6);
    EXPECT_NEAR(v[k], expected, 0.01) << "t=" << result.time[k];
  }
  // Fully settled at 5 tau.
  EXPECT_NEAR(v.back(), 1.0, 0.01);
}

TEST(Transient, InitialStateIsFirstSample) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add<VoltageSource>("V1", a, kGround, 2.0);
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);
  TranOptions options;
  options.t_stop = 1e-8;
  options.dt = 1e-9;
  const TranResult result = solve_transient(nl, op.solution, cond, options);
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.time.front(), 0.0);
  EXPECT_NEAR(result.node_voltage(a).front(), 2.0, 1e-9);
}

TEST(Transient, ValidatesArguments) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  nl.add<Resistor>("R1", a, kGround, 1.0);
  Vector wrong(5);
  TranOptions options;
  EXPECT_THROW(solve_transient(nl, wrong, Conditions{}, options),
               std::invalid_argument);
  Vector ok(nl.system_size());
  options.dt = 0.0;
  EXPECT_THROW(solve_transient(nl, ok, Conditions{}, options),
               std::invalid_argument);
}

TEST(Transient, RcDischargeConservesMonotonicity) {
  // Start charged via DC, then source drops to 0: v decays monotonically.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 1.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);
  vin.set_dc_value(0.0);
  TranOptions options;
  options.t_stop = 3e-6;
  options.dt = 10e-9;
  const TranResult result = solve_transient(nl, op.solution, cond, options);
  ASSERT_TRUE(result.converged);
  const std::vector<double> v = result.node_voltage(out);
  for (std::size_t k = 1; k < v.size(); ++k) EXPECT_LE(v[k], v[k - 1] + 1e-12);
}

TEST(Transient, GoodSeedTrajectoryLeavesSolutionUnchanged) {
  // A delta-seeded warm start from the run's own trajectory must not
  // change a single bit: the seed only moves the Newton starting point.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);
  const DcResult op = solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  vin.set_dc_value(1.0);  // step at t = 0+
  TranOptions options;
  options.t_stop = 1e-6;
  options.dt = 10e-9;
  const TranResult reference =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(reference.converged);

  options.seed_trajectory = &reference.solutions;
  const TranResult seeded =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(seeded.converged);
  ASSERT_EQ(seeded.solutions.size(), reference.solutions.size());
  for (std::size_t k = 0; k < reference.solutions.size(); ++k)
    for (std::size_t i = 0; i < reference.solutions[k].size(); ++i)
      EXPECT_EQ(seeded.solutions[k][i], reference.solutions[k][i]);
}

TEST(Transient, BadSeedTrajectoryIsDroppedAfterFirstFailure) {
  // Regression: a seed trajectory whose increments throw Newton far off
  // course used to be re-applied at *every* step -- each one burned
  // max_iterations and fell into the half-step retry, so the "warm
  // started" run integrated a different (half-stepped) trajectory than
  // the unseeded run, or died outright.  A seed that bad once stays bad:
  // the fix drops it at the first seeded non-convergence and re-runs the
  // step cold, which makes the whole run bitwise identical to a
  // never-seeded one.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);
  const DcResult op = solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  vin.set_dc_value(1.0);  // step at t = 0+

  TranOptions options;
  options.t_stop = 1e-6;
  options.dt = 10e-9;
  // Few Newton iterations: the damping clamp (max_step_v per iteration)
  // then cannot walk back a grossly wrong start within one step.
  options.newton.max_iterations = 8;
  const TranResult reference =
      solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(reference.converged);

  // Poisonous seed: +100 V increment per step on every unknown.
  std::vector<Vector> bad_seed(reference.solutions.size());
  for (std::size_t k = 0; k < bad_seed.size(); ++k) {
    bad_seed[k] = Vector(nl.system_size());
    bad_seed[k].fill(100.0 * static_cast<double>(k));
  }
  options.seed_trajectory = &bad_seed;
  const TranResult seeded =
      solve_transient(nl, op.solution, Conditions{}, options);

  // The run recovers and reproduces the unseeded trajectory exactly.
  ASSERT_TRUE(seeded.converged);
  ASSERT_EQ(seeded.solutions.size(), reference.solutions.size());
  for (std::size_t k = 0; k < reference.solutions.size(); ++k)
    for (std::size_t i = 0; i < reference.solutions[k].size(); ++i)
      EXPECT_EQ(seeded.solutions[k][i], reference.solutions[k][i])
          << "step " << k << " unknown " << i;
  // Exactly one seeded attempt was wasted (it burned max_iterations)
  // before the seed was dropped; every later step ran cold.
  EXPECT_EQ(seeded.newton_iterations,
            reference.newton_iterations + options.newton.max_iterations);
}

/// RC step response (tau = 1 us, 0 -> 1 V) of the stop-condition tests.
struct RcStep {
  Netlist nl;
  NodeId out = kGround;
  Vector op;

  RcStep() {
    const NodeId in = nl.add_node("in");
    out = nl.add_node("out");
    auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    nl.add<Resistor>("R1", in, out, 1e3);
    nl.add<Capacitor>("C1", out, kGround, 1e-9);
    op = solve_dc(nl, Conditions{}).solution;
    vin.set_dc_value(1.0);  // step at t = 0+
  }
};

TEST(TransientStop, StoppedRunIsABitwisePrefixOfTheFullRun) {
  RcStep rc;
  TranOptions options;
  options.t_stop = 3e-6;
  options.dt = 10e-9;
  const TranResult full = solve_transient(rc.nl, rc.op, Conditions{}, options);
  ASSERT_TRUE(full.converged);

  const double level = 0.9;  // reached near t = tau ln 10 = 2.3 us
  options.stop = TranStop{static_cast<std::size_t>(rc.out - 1), level};
  const TranResult stopped =
      solve_transient(rc.nl, rc.op, Conditions{}, options);
  ASSERT_TRUE(stopped.converged);
  ASSERT_LT(stopped.time.size(), full.time.size());
  for (std::size_t k = 0; k < stopped.time.size(); ++k) {
    EXPECT_EQ(stopped.time[k], full.time[k]) << k;
    ASSERT_EQ(stopped.solutions[k].size(), full.solutions[k].size());
    for (std::size_t i = 0; i < full.solutions[k].size(); ++i)
      EXPECT_EQ(stopped.solutions[k][i], full.solutions[k][i]) << k;
  }
  // The run ends at the first step at or past the level.
  const std::vector<double> v = stopped.node_voltage(rc.out);
  EXPECT_GE(v.back(), level);
  for (std::size_t k = 0; k + 1 < v.size(); ++k) EXPECT_LT(v[k], level) << k;
}

TEST(TransientStop, GuardBandAndFallingLevel) {
  RcStep rc;
  TranOptions options;
  options.t_stop = 3e-6;
  options.dt = 10e-9;
  const auto unknown = static_cast<std::size_t>(rc.out - 1);
  options.stop = TranStop{unknown, 0.5};
  const TranResult at_level =
      solve_transient(rc.nl, rc.op, Conditions{}, options);
  const double t_reach = at_level.time.back();
  // Guard 2: runs on to the first step at or past 2 t_reach.
  options.stop->guard = 2.0;
  const TranResult guarded =
      solve_transient(rc.nl, rc.op, Conditions{}, options);
  EXPECT_GE(guarded.time.back(), 2.0 * t_reach);
  EXPECT_LT(guarded.time[guarded.time.size() - 2], 2.0 * t_reach);
  // A level below the initial value waits for a falling crossing, which
  // this rising response never makes: the run goes to t_stop.
  options.stop = TranStop{unknown, -0.1};
  const TranResult never =
      solve_transient(rc.nl, rc.op, Conditions{}, options);
  ASSERT_TRUE(never.converged);
  EXPECT_DOUBLE_EQ(never.time.back(), options.t_stop);
}

TEST(TransientStop, ValidatesTheCondition) {
  RcStep rc;
  TranOptions options;
  options.stop = TranStop{rc.nl.system_size(), 0.5};
  EXPECT_THROW(solve_transient(rc.nl, rc.op, Conditions{}, options),
               std::invalid_argument);
  options.stop = TranStop{0, 0.5, 0.5};
  EXPECT_THROW(solve_transient(rc.nl, rc.op, Conditions{}, options),
               std::invalid_argument);
}

TEST(SlopeHelpers, MaxSlope) {
  const std::vector<double> t = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> v = {0.0, 2.0, 3.0, 2.5};
  EXPECT_DOUBLE_EQ(max_slope(t, v), 2.0);
}

TEST(SlopeHelpers, SizeMismatchThrows) {
  EXPECT_THROW(max_slope({0.0, 1.0}, {0.0}), std::invalid_argument);
}

TEST(SlopeHelpers, EmptyIsZero) {
  EXPECT_EQ(max_slope({}, {}), 0.0);
}

}  // namespace
}  // namespace mayo::sim

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::kGround;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::VoltageSource;

/// Max |v(t) - analytic| over an RC step response for a given step.
double rc_step_error(double dt) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Capacitor>("C1", out, kGround, 1e-9);  // tau = 1 us
  const DcResult op = solve_dc(nl, Conditions{});
  vin.set_dc_value(1.0);  // step at t = 0+
  TranOptions options;
  options.t_stop = 3e-6;
  options.dt = dt;
  const TranResult result = solve_transient(nl, op.solution, Conditions{}, options);
  if (!result.converged) return 1e9;
  const auto v = result.node_voltage(out);
  double worst = 0.0;
  // Skip the first few samples: the startup BE step dominates there.
  for (std::size_t k = 5; k < v.size(); ++k) {
    const double expected = 1.0 - std::exp(-result.time[k] / 1e-6);
    worst = std::max(worst, std::abs(v[k] - expected));
  }
  return worst;
}

TEST(TransientBackwardEuler, FirstOrderConvergence) {
  // Halving dt should cut the backward-Euler error by ~2 (1st order).
  const double coarse = rc_step_error(40e-9);
  const double fine = rc_step_error(20e-9);
  EXPECT_GT(coarse / fine, 1.6);
  EXPECT_LT(coarse / fine, 2.6);
}

TEST(TransientBackwardEuler, InductorRlMatchesAnalytic) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<circuit::Inductor>("L1", mid, kGround, 1e-3);  // tau = 1 us
  const auto op = solve_dc(nl, Conditions{});
  v.set_dc_value(1.0);  // step at t = 0+
  TranOptions options;
  options.t_stop = 4e-6;
  options.dt = 10e-9;  // BE error ~ dt/(2 tau) * max(t e^{-t}) ~ 2e-3
  const auto result = solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(result.converged);
  const auto v_mid = result.node_voltage(mid);
  for (std::size_t k = 20; k < v_mid.size(); k += 80) {
    const double expected = std::exp(-result.time[k] / 1e-6);
    EXPECT_NEAR(v_mid[k], expected, 5e-3) << result.time[k];
  }
}

}  // namespace
}  // namespace mayo::sim
