#include "sim/ac.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sim/dc.hpp"

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

/// RC low-pass driven by a unit AC source.
struct RcLowPass {
  RcLowPass(double r, double c) {
    in = nl.add_node("in");
    out = nl.add_node("out");
    auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
    v.set_ac_value({1.0, 0.0});
    nl.add<Resistor>("R1", in, out, r);
    nl.add<Capacitor>("C1", out, kGround, c);
    op = Vector(nl.system_size());
  }
  Netlist nl;
  NodeId in{};
  NodeId out{};
  Vector op;
};

TEST(AcSolver, RcLowPassMagnitudeAndPhase) {
  RcLowPass ckt(1e3, 1e-9);  // f_c = 1/(2 pi RC) ~ 159 kHz
  const double fc = 1.0 / (2.0 * std::numbers::pi * 1e3 * 1e-9);
  Conditions cond;
  // Well below the corner: |H| ~ 1, phase ~ 0.
  auto h_low = ac_node_voltage(ckt.nl, ckt.op, cond, fc / 100.0, ckt.out);
  EXPECT_NEAR(std::abs(h_low), 1.0, 1e-3);
  // At the corner: |H| = 1/sqrt(2), phase = -45 deg.
  auto h_c = ac_node_voltage(ckt.nl, ckt.op, cond, fc, ckt.out);
  EXPECT_NEAR(std::abs(h_c), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(std::arg(h_c) * 180.0 / std::numbers::pi, -45.0, 0.5);
  // A decade above: |H| ~ 0.0995, slope -20 dB/dec.
  auto h_high = ac_node_voltage(ckt.nl, ckt.op, cond, fc * 10.0, ckt.out);
  EXPECT_NEAR(std::abs(h_high), 1.0 / std::sqrt(101.0), 1e-3);
}

TEST(AcSolver, SweepIsLogSpacedAndMonotone) {
  RcLowPass ckt(1e3, 1e-9);
  const FrequencyResponse fr =
      sweep_ac(ckt.nl, ckt.op, Conditions{}, ckt.out, 1e3, 1e8, 5);
  ASSERT_GE(fr.frequency_hz.size(), 10u);
  EXPECT_NEAR(fr.frequency_hz.front(), 1e3, 1.0);
  EXPECT_NEAR(fr.frequency_hz.back(), 1e8, 1e3);
  for (std::size_t i = 1; i < fr.frequency_hz.size(); ++i) {
    EXPECT_GT(fr.frequency_hz[i], fr.frequency_hz[i - 1]);
    EXPECT_LE(std::abs(fr.response[i]), std::abs(fr.response[i - 1]) + 1e-12);
  }
}

TEST(AcSolver, SweepValidation) {
  RcLowPass ckt(1e3, 1e-9);
  EXPECT_THROW(sweep_ac(ckt.nl, ckt.op, Conditions{}, ckt.out, 0.0, 1e3, 5),
               std::invalid_argument);
  EXPECT_THROW(sweep_ac(ckt.nl, ckt.op, Conditions{}, ckt.out, 1e3, 1e2, 5),
               std::invalid_argument);
  EXPECT_THROW(sweep_ac(ckt.nl, ckt.op, Conditions{}, ckt.out, 1e2, 1e3, 0),
               std::invalid_argument);
}

TEST(AcSolver, OperatingPointSizeMismatchThrows) {
  RcLowPass ckt(1e3, 1e-9);
  Vector bad_op(1);
  EXPECT_THROW(AcSession(ckt.nl, bad_op, Conditions{}), std::invalid_argument);
}

TEST(AcSolver, GroundNodeIsZero) {
  RcLowPass ckt(1e3, 1e-9);
  EXPECT_EQ(ac_node_voltage(ckt.nl, ckt.op, Conditions{}, 1e3, kGround),
            std::complex<double>(0.0, 0.0));
}

TEST(AcSolver, CommonSourceAmplifierGain) {
  // NMOS common-source with resistive load: |A| = gm * (RL || ro).
  Netlist nl;
  const NodeId vdd = nl.add_node("vdd");
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  nl.add<VoltageSource>("Vdd", vdd, kGround, 5.0);
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 1.0);
  vin.set_ac_value({1.0, 0.0});
  nl.add<Resistor>("RL", vdd, out, 10e3);
  MosProcess proc;
  Mosfet& m = nl.add<Mosfet>("M1", MosType::kNmos, out, in, kGround, kGround,
                             proc, MosGeometry{20e-6, 1e-6});
  Conditions cond;
  const DcResult op = solve_dc(nl, cond);
  ASSERT_TRUE(op.converged);

  const circuit::MosEval eval =
      m.evaluate_at(op.solution[out - 1], 1.0, 0.0, 0.0, cond.temperature_k);
  ASSERT_EQ(eval.region, circuit::MosRegion::kSaturation);
  const double expected =
      eval.gm * (10e3 * (1.0 / eval.gds) / (10e3 + 1.0 / eval.gds));

  const auto h = ac_node_voltage(nl, op.solution, cond, 10.0, out);
  EXPECT_NEAR(std::abs(h), expected, expected * 0.01);
  // Inverting stage: phase ~ 180 deg at low frequency.
  EXPECT_NEAR(std::abs(std::arg(h)) * 180.0 / std::numbers::pi, 180.0, 1.0);
}

TEST(AcSolver, VcvsIdealGain) {
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& vin = nl.add<VoltageSource>("Vin", in, kGround, 0.0);
  vin.set_ac_value({1.0, 0.0});
  nl.add<Vcvs>("E1", out, kGround, in, kGround, 42.0);
  Vector op(nl.system_size());
  const auto h = ac_node_voltage(nl, op, Conditions{}, 100.0, out);
  EXPECT_NEAR(h.real(), 42.0, 1e-9);
  EXPECT_NEAR(h.imag(), 0.0, 1e-9);
}

}  // namespace
}  // namespace mayo::sim
