#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "circuit/netlist.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/transient.hpp"
#include "spice/parser.hpp"

namespace mayo::circuit {
namespace {

TEST(Inductor, RejectsNonPositive) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  EXPECT_THROW(nl.add<Inductor>("L1", a, kGround, 0.0), std::invalid_argument);
  Inductor& l = nl.add<Inductor>("L2", a, kGround, 1e-3);
  EXPECT_THROW(l.set_inductance(-1.0), std::invalid_argument);
  EXPECT_EQ(l.inductance(), 1e-3);
}

TEST(Inductor, DcShortCircuit) {
  // V -> R -> L to ground: at DC the inductor is a short, the full source
  // current flows and the inductor node sits at 0.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  nl.add<VoltageSource>("V1", in, kGround, 2.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<Inductor>("L1", mid, kGround, 1e-3);
  const auto result = sim::solve_dc(nl, Conditions{});
  ASSERT_TRUE(result.converged);
  EXPECT_NEAR(result.solution[mid - 1], 0.0, 1e-9);
  // Inductor branch current = 2 mA.
  const std::size_t branch_base = nl.num_nodes() - 1;
  const auto& l = dynamic_cast<const Inductor&>(nl.device("L1"));
  EXPECT_NEAR(result.solution[branch_base + l.first_branch()], 2e-3, 1e-9);
}

TEST(Inductor, AcImpedanceRisesWithFrequency) {
  // Voltage divider R / L: |v_L| = wL / sqrt(R^2 + (wL)^2).
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId out = nl.add_node("out");
  auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
  v.set_ac_value({1.0, 0.0});
  nl.add<Resistor>("R1", in, out, 1e3);
  nl.add<Inductor>("L1", out, kGround, 1e-3);
  linalg::Vector op(nl.system_size());
  for (double f : {1e3, 1.59e5, 1e7}) {
    const double w = 2.0 * std::numbers::pi * f;
    const double expected = w * 1e-3 / std::hypot(1e3, w * 1e-3);
    const auto h = sim::ac_node_voltage(nl, op, Conditions{}, f, out);
    EXPECT_NEAR(std::abs(h), expected, expected * 1e-3) << f;
  }
}

TEST(Inductor, SeriesRlcResonance) {
  // Series RLC from an AC source; the current peaks at f0 = 1/(2 pi
  // sqrt(LC)) where the voltage across R peaks at ~1.
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId a = nl.add_node("a");
  const NodeId b = nl.add_node("b");
  auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
  v.set_ac_value({1.0, 0.0});
  nl.add<Inductor>("L1", in, a, 1e-3);        // 1 mH
  nl.add<Capacitor>("C1", a, b, 1e-9);        // 1 nF -> f0 ~ 159 kHz
  nl.add<Resistor>("R1", b, kGround, 100.0);
  linalg::Vector op(nl.system_size());
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(1e-3 * 1e-9));
  const auto at = [&](double f) {
    return std::abs(sim::ac_node_voltage(nl, op, Conditions{}, f, b));
  };
  EXPECT_NEAR(at(f0), 1.0, 1e-3);          // impedances cancel at resonance
  EXPECT_LT(at(f0 / 10.0), 0.1);           // capacitive blocking below
  EXPECT_LT(at(f0 * 10.0), 0.1);           // inductive blocking above
}

TEST(Inductor, TransientRlRise) {
  // V step into R-L: i(t) = V/R (1 - exp(-t R/L)), v_L = V exp(-t R/L).
  Netlist nl;
  const NodeId in = nl.add_node("in");
  const NodeId mid = nl.add_node("mid");
  auto& v = nl.add<VoltageSource>("V1", in, kGround, 0.0);
  nl.add<Resistor>("R1", in, mid, 1e3);
  nl.add<Inductor>("L1", mid, kGround, 1e-3);  // tau = L/R = 1 us
  const auto op = sim::solve_dc(nl, Conditions{});
  ASSERT_TRUE(op.converged);
  v.set_dc_value(1.0);  // step at t = 0+
  sim::TranOptions options;
  options.t_stop = 5e-6;
  options.dt = 5e-9;
  const auto result = sim::solve_transient(nl, op.solution, Conditions{}, options);
  ASSERT_TRUE(result.converged);
  const auto v_mid = result.node_voltage(mid);
  for (std::size_t k = 50; k < result.time.size(); k += 200) {
    const double expected = std::exp(-result.time[k] / 1e-6);
    EXPECT_NEAR(v_mid[k], expected, 0.012) << "t=" << result.time[k];
  }
}

TEST(Inductor, ParsedFromSpice) {
  const auto parsed = spice::parse_netlist("L1 a b 10u\nR1 b 0 1k\n");
  const auto* l =
      dynamic_cast<const Inductor*>(&parsed.netlist->device("L1"));
  ASSERT_NE(l, nullptr);
  EXPECT_DOUBLE_EQ(l->inductance(), 10e-6);
  EXPECT_EQ(parsed.netlist->num_branches(), 1u);
}

}  // namespace
}  // namespace mayo::circuit
