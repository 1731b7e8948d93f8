// AcSession contract tests: the stamped state is a pure function of
// (netlist state, operating point, conditions), so a session reused across
// stamps/solves must reproduce a fresh session bit for bit — workspace
// reuse may only ever change cost, never a result.  The free sweep_ac
// helper is a thin wrapper over a session and must agree the same way.
#include "sim/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>

#include "sim/dc.hpp"
#include "sim/measure.hpp"

namespace mayo::sim {
namespace {

using circuit::Capacitor;
using circuit::Conditions;
using circuit::kGround;
using circuit::MosGeometry;
using circuit::Mosfet;
using circuit::MosProcess;
using circuit::MosType;
using circuit::Netlist;
using circuit::NodeId;
using circuit::Resistor;
using circuit::Vcvs;
using circuit::VoltageSource;
using linalg::Vector;
using linalg::VectorC;

/// Ideal single-pole amplifier: Vcvs gain A into an RC pole.  Analytic
/// transfer H(f) = A / (1 + j f / fc), so A0, the unity crossing and the
/// phase there are all known in closed form.
struct SinglePoleAmp {
  SinglePoleAmp(double gain, double r, double c) : fc(1.0 / (2.0 * std::numbers::pi * r * c)) {
    in = nl.add_node("in");
    mid = nl.add_node("mid");
    out = nl.add_node("out");
    auto& v = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
    v.set_ac_value({1.0, 0.0});
    nl.add<Vcvs>("E1", mid, kGround, in, kGround, gain);
    nl.add<Resistor>("R1", mid, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);
    op = Vector(nl.system_size());
  }
  Netlist nl;
  NodeId in{};
  NodeId mid{};
  NodeId out{};
  Vector op;
  double fc;
};

/// Common-source stage whose small-signal matrices depend on the operating
/// point, exercising the (operating point, conditions) axis of the stamp.
struct CommonSource {
  CommonSource() {
    const NodeId vdd = nl.add_node("vdd");
    const NodeId in = nl.add_node("in");
    out = nl.add_node("out");
    nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
    vin = &nl.add<VoltageSource>("Vin", in, kGround, 1.0);
    vin->set_ac_value({1.0, 0.0});
    nl.add<Resistor>("RL", vdd, out, 10e3);
    nl.add<Capacitor>("CL", out, kGround, 1e-12);
    nl.add<Mosfet>("M1", MosType::kNmos, out, in, kGround, kGround,
                   MosProcess{}, MosGeometry{20e-6, 1e-6});
  }
  Netlist nl;
  VoltageSource* vin = nullptr;
  NodeId out{};
};

TEST(AcSession, ReusedSessionBitwiseMatchesFreshAcrossFrequencies) {
  SinglePoleAmp amp(100.0, 1e3, 1e-9);
  const Conditions cond;
  AcSession reused(amp.nl, amp.op, cond);
  for (double f : {1.0, 10.0, 1e3, amp.fc, 3.7 * amp.fc, 1e8}) {
    AcSession fresh(amp.nl, amp.op, cond);
    const VectorC& x_fresh = fresh.solve(f);
    const VectorC& x_reused = reused.solve(f);
    ASSERT_EQ(x_fresh.size(), x_reused.size());
    for (std::size_t i = 0; i < x_fresh.size(); ++i)
      EXPECT_EQ(x_fresh[i], x_reused[i]) << "f=" << f << " i=" << i;
  }
}

TEST(AcSession, RestampAcrossOperatingPointsMatchesFreshSession) {
  CommonSource ckt;
  const Conditions cond;
  AcSession reused;
  // Sweep the gate bias: every operating point changes gm/gds and hence
  // the stamped matrices; the re-stamped session must still match a fresh
  // one bit for bit at every point.
  for (double vg : {0.9, 1.0, 1.1, 1.3}) {
    ckt.vin->set_dc_value(vg);
    const DcResult dc = solve_dc(ckt.nl, cond);
    ASSERT_TRUE(dc.converged) << "vg=" << vg;
    reused.stamp(ckt.nl, dc.solution, cond);
    AcSession fresh(ckt.nl, dc.solution, cond);
    for (double f : {10.0, 1e5, 1e8}) {
      const std::complex<double> h_fresh = fresh.node_voltage(f, ckt.out);
      const std::complex<double> h_reused = reused.node_voltage(f, ckt.out);
      EXPECT_EQ(h_fresh, h_reused) << "vg=" << vg << " f=" << f;
    }
  }
}

TEST(AcSession, FreeFunctionsAreSessionBackedBitwise) {
  SinglePoleAmp amp(50.0, 2e3, 0.5e-9);
  const Conditions cond;
  AcSession session(amp.nl, amp.op, cond);
  const FrequencyResponse fr =
      sweep_ac(amp.nl, amp.op, cond, amp.out, 10.0, 1e7, 5);
  for (std::size_t i = 0; i < fr.frequency_hz.size(); ++i) {
    const double f = fr.frequency_hz[i];
    EXPECT_EQ(fr.response[i], session.node_voltage(f, amp.out)) << "f=" << f;
  }
}

TEST(AcSession, StampValidatesOperatingPointSize) {
  SinglePoleAmp amp(10.0, 1e3, 1e-9);
  AcSession session;
  EXPECT_FALSE(session.stamped());
  EXPECT_THROW(session.stamp(amp.nl, Vector(1), Conditions{}),
               std::invalid_argument);
  EXPECT_THROW(session.solve(1e3), std::logic_error);
  session.stamp(amp.nl, amp.op, Conditions{});
  EXPECT_TRUE(session.stamped());
  EXPECT_EQ(session.size(), amp.nl.system_size());
  EXPECT_EQ(session.node_voltage(1e3, kGround), std::complex<double>(0.0, 0.0));
}

TEST(MeasureGainBandwidth, PinsSinglePoleAnalyticValues) {
  // H(f) = A / (1 + j f/fc): A0 = 20 log10 A, |H| = 1 at
  // f = fc sqrt(A^2 - 1), phase there is -atan(f/fc).
  const double gain = 100.0;
  SinglePoleAmp amp(gain, 1e3, 1e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  const GainBandwidth gb =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9);
  ASSERT_TRUE(gb.ft_found);
  EXPECT_NEAR(gb.a0_db, 20.0 * std::log10(gain), 1e-6);
  const double ft_exact = amp.fc * std::sqrt(gain * gain - 1.0);
  // The refinement terminates at a 0.05% bracket, so 0.1% is a real bound.
  EXPECT_NEAR(gb.ft_hz, ft_exact, 1e-3 * ft_exact);
  const double pm_exact =
      180.0 - std::atan(gb.ft_hz / amp.fc) * 180.0 / std::numbers::pi;
  EXPECT_NEAR(gb.phase_margin_deg, pm_exact, 0.05);
}

TEST(MeasureGainBandwidth, SeededBracketAgreesWithColdScan) {
  const double gain = 320.0;
  SinglePoleAmp amp(gain, 5e3, 0.2e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  const GainBandwidth cold =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9);
  ASSERT_TRUE(cold.ft_found);
  FtBracket bracket{cold.ft_hz / 1.6, cold.ft_hz * 1.6};
  const GainBandwidth seeded =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9, &bracket);
  ASSERT_TRUE(seeded.ft_found);
  // Different bracketing paths: both land within the refinement tolerance.
  EXPECT_NEAR(seeded.ft_hz, cold.ft_hz, 2e-3 * cold.ft_hz);
  EXPECT_EQ(seeded.a0_db, cold.a0_db);
  EXPECT_NEAR(seeded.phase_margin_deg, cold.phase_margin_deg, 0.1);
}

TEST(MeasureGainBandwidth, StaleSeedFallsBackToScan) {
  const double gain = 100.0;
  SinglePoleAmp amp(gain, 1e3, 1e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  // A bracket that no longer contains the crossing (both ends below it).
  FtBracket stale{10.0, 100.0};
  const GainBandwidth gb =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9, &stale);
  ASSERT_TRUE(gb.ft_found);
  const double ft_exact = amp.fc * std::sqrt(gain * gain - 1.0);
  EXPECT_NEAR(gb.ft_hz, ft_exact, 1e-3 * ft_exact);
}

TEST(MeasureGainBandwidth, NetlistOverloadMatchesSessionBitwise) {
  CommonSource ckt;
  const Conditions cond;
  const DcResult dc = solve_dc(ckt.nl, cond);
  ASSERT_TRUE(dc.converged);
  AcSession session(ckt.nl, dc.solution, cond);
  const GainBandwidth via_session =
      measure_gain_bandwidth(session, ckt.out, 1.0, 10e9);
  const GainBandwidth via_netlist =
      measure_gain_bandwidth(ckt.nl, dc.solution, cond, ckt.out, 1.0, 10e9);
  EXPECT_EQ(via_session.a0_db, via_netlist.a0_db);
  EXPECT_EQ(via_session.ft_found, via_netlist.ft_found);
  EXPECT_EQ(via_session.ft_hz, via_netlist.ft_hz);
  EXPECT_EQ(via_session.phase_margin_deg, via_netlist.phase_margin_deg);
}

TEST(MeasureGainBandwidth, BelowUnityGainReportsNoCrossing) {
  SinglePoleAmp amp(0.5, 1e3, 1e-9);
  AcSession session(amp.nl, amp.op, Conditions{});
  const GainBandwidth gb =
      measure_gain_bandwidth(session, amp.out, 1.0, 10e9);
  EXPECT_FALSE(gb.ft_found);
  EXPECT_EQ(gb.ft_hz, 0.0);
  EXPECT_NEAR(gb.a0_db, 20.0 * std::log10(0.5), 1e-6);
}

}  // namespace
}  // namespace mayo::sim
