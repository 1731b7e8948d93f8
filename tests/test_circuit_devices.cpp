#include "circuit/devices.hpp"

#include <gtest/gtest.h>

#include "circuit/netlist.hpp"
#include "linalg/matrix.hpp"
#include "linalg/system_matrix.hpp"
#include "linalg/vector.hpp"

namespace mayo::circuit {
namespace {

using linalg::Matrixc;
using linalg::Matrixd;
using linalg::Vector;
using linalg::VectorC;

struct StampFixture {
  explicit StampFixture(std::size_t num_nodes, std::size_t branches = 0)
      : n(num_nodes - 1 + branches),
        nodes(num_nodes),
        x(n),
        jacobian(n, n),
        residual(n) {
    system.bind_dense(jacobian);
  }

  DcStamp dc() { return DcStamp(x, system, residual, nodes, conditions); }

  std::size_t n;
  std::size_t nodes;
  Conditions conditions{};
  Vector x;
  Matrixd jacobian;
  linalg::SystemMatrix system;
  Vector residual;
};

TEST(Resistor, DcStamp) {
  StampFixture fx(3);  // nodes 0(gnd), 1, 2
  fx.x[0] = 2.0;       // v1
  fx.x[1] = 0.5;       // v2
  Resistor r("R1", 1, 2, 100.0);
  DcStamp stamp = fx.dc();
  r.stamp_dc(stamp);
  const double i = (2.0 - 0.5) / 100.0;
  EXPECT_NEAR(fx.residual[0], i, 1e-15);
  EXPECT_NEAR(fx.residual[1], -i, 1e-15);
  EXPECT_NEAR(fx.jacobian(0, 0), 0.01, 1e-15);
  EXPECT_NEAR(fx.jacobian(0, 1), -0.01, 1e-15);
  EXPECT_NEAR(fx.jacobian(1, 1), 0.01, 1e-15);
}

TEST(Resistor, GroundedStampSkipsGroundRow) {
  StampFixture fx(2);
  fx.x[0] = 3.0;
  Resistor r("R1", 1, kGround, 1000.0);
  DcStamp stamp = fx.dc();
  r.stamp_dc(stamp);
  EXPECT_NEAR(fx.residual[0], 3e-3, 1e-15);
  EXPECT_NEAR(fx.jacobian(0, 0), 1e-3, 1e-15);
}

TEST(Resistor, RejectsNonPositive) {
  EXPECT_THROW(Resistor("R", 1, 0, 0.0), std::invalid_argument);
  Resistor r("R", 1, 0, 1.0);
  EXPECT_THROW(r.set_resistance(-5.0), std::invalid_argument);
}

TEST(Resistor, AcStampIsConductance) {
  Matrixd g(1, 1);
  Matrixd c(1, 1);
  VectorC rhs(1);
  Vector op(1);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(g, &c);
  AcStamp stamp(op, system, rhs, 2, cond);
  Resistor r("R", 1, kGround, 50.0);
  r.stamp_ac(stamp);
  EXPECT_NEAR(g(0, 0), 0.02, 1e-15);
  EXPECT_EQ(c(0, 0), 0.0);
}

TEST(Capacitor, OpenAtDc) {
  StampFixture fx(2);
  fx.x[0] = 5.0;
  Capacitor c("C1", 1, kGround, 1e-9);
  DcStamp stamp = fx.dc();
  c.stamp_dc(stamp);
  EXPECT_EQ(fx.residual[0], 0.0);
  EXPECT_EQ(fx.jacobian(0, 0), 0.0);
}

TEST(Capacitor, AcAdmittance) {
  Matrixd g(1, 1);
  Matrixd c(1, 1);
  VectorC rhs(1);
  Vector op(1);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(g, &c);
  AcStamp stamp(op, system, rhs, 2, cond);
  Capacitor cap("C1", 1, kGround, 1e-9);
  cap.stamp_ac(stamp);
  EXPECT_EQ(g(0, 0), 0.0);
  EXPECT_NEAR(c(0, 0), 1e-9, 1e-24);
}

TEST(Capacitor, TransientCompanion) {
  // BE step: i = C/h * (v - v_prev).
  const std::size_t nodes = 2;
  Vector x(1);
  x[0] = 2.0;
  Vector x_prev(1);
  x_prev[0] = 1.0;
  Matrixd jac(1, 1);
  Vector res(1);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  TranStamp stamp(x, system, res, nodes, cond, x_prev, 1e-6);
  Capacitor c("C1", 1, kGround, 1e-9);
  c.stamp_tran(stamp);
  EXPECT_NEAR(res[0], 1e-9 / 1e-6 * 1.0, 1e-15);
  EXPECT_NEAR(jac(0, 0), 1e-3, 1e-15);
}

TEST(VoltageSource, DcStampEquations) {
  // Nodes 1, 2 + one branch variable.
  StampFixture fx(3, 1);
  fx.x[0] = 4.0;  // v1
  fx.x[1] = 1.0;  // v2
  fx.x[2] = 0.1;  // branch current
  VoltageSource v("V1", 1, 2, 2.5);
  v.set_first_branch(0);
  DcStamp stamp = fx.dc();
  v.stamp_dc(stamp);
  // KCL rows get the branch current.
  EXPECT_NEAR(fx.residual[0], 0.1, 1e-15);
  EXPECT_NEAR(fx.residual[1], -0.1, 1e-15);
  // Branch equation: v1 - v2 - V = 4 - 1 - 2.5 = 0.5.
  EXPECT_NEAR(fx.residual[2], 0.5, 1e-15);
  EXPECT_EQ(fx.jacobian(0, 2), 1.0);
  EXPECT_EQ(fx.jacobian(1, 2), -1.0);
  EXPECT_EQ(fx.jacobian(2, 0), 1.0);
  EXPECT_EQ(fx.jacobian(2, 1), -1.0);
}

TEST(VoltageSource, TransientHoldsTheDcValue) {
  Vector x(2);
  Vector x_prev(2);
  Matrixd jac(2, 2);
  Vector res(2);
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  TranStamp stamp(x, system, res, 2, cond, x_prev, 1e-9);
  VoltageSource v("V1", 1, kGround, 1.0);
  v.set_first_branch(0);
  v.set_dc_value(3.0);  // a step applied after the initial operating point
  v.stamp_tran(stamp);
  // Branch residual: v1 - V = 0 - 3.
  EXPECT_NEAR(res[1], -3.0, 1e-15);
  EXPECT_EQ(jac(1, 0), 1.0);
}

TEST(CurrentSource, DcStampSpiceConvention) {
  StampFixture fx(3);
  CurrentSource i("I1", 1, 2, 1e-3);
  DcStamp stamp = fx.dc();
  i.stamp_dc(stamp);
  // Current leaves node 1 (through the source) and enters node 2.
  EXPECT_NEAR(fx.residual[0], 1e-3, 1e-18);
  EXPECT_NEAR(fx.residual[1], -1e-3, 1e-18);
  EXPECT_EQ(fx.jacobian.max_abs(), 0.0);
}

TEST(Vcvs, DcStampRelations) {
  // v(1) - 0 = 2 * (v(2) - 0).
  StampFixture fx(3, 1);
  fx.x[0] = 4.0;  // v1
  fx.x[1] = 1.0;  // v2
  Vcvs e("E1", 1, kGround, 2, kGround, 2.0);
  e.set_first_branch(0);
  DcStamp stamp = fx.dc();
  e.stamp_dc(stamp);
  // Branch residual: v1 - gain*v2 = 4 - 2 = 2.
  EXPECT_NEAR(fx.residual[2], 2.0, 1e-15);
  EXPECT_EQ(fx.jacobian(2, 0), 1.0);
  EXPECT_EQ(fx.jacobian(2, 1), -2.0);
}

TEST(Mosfet, DcStampKclConsistency) {
  // Residual contributions at drain and source must be opposite.
  Netlist nl;
  const NodeId d = nl.add_node("d");
  const NodeId g = nl.add_node("g");
  const NodeId s = nl.add_node("s");
  MosProcess proc;
  Mosfet& m = nl.add<Mosfet>("M1", MosType::kNmos, d, g, s, kGround, proc,
                             MosGeometry{10e-6, 1e-6});
  Vector x(nl.system_size());
  x[d - 1] = 2.0;
  x[g - 1] = 1.5;
  x[s - 1] = 0.2;
  Matrixd jac(nl.system_size(), nl.system_size());
  Vector res(nl.system_size());
  Conditions cond;
  linalg::SystemMatrix system;
  system.bind_dense(jac);
  DcStamp stamp(x, system, res, nl.num_nodes(), cond);
  m.stamp_dc(stamp);
  EXPECT_NEAR(res[d - 1], -res[s - 1], 1e-18);
  EXPECT_GT(res[d - 1], 0.0);  // NMOS conducting
  // Jacobian rows are opposite as well.
  for (std::size_t c = 0; c < nl.system_size(); ++c)
    EXPECT_NEAR(jac(d - 1, c), -jac(s - 1, c), 1e-18);
}

TEST(Mosfet, PmosCurrentDirection) {
  Netlist nl;
  const NodeId d = nl.add_node("d");
  const NodeId g = nl.add_node("g");
  const NodeId s = nl.add_node("s");
  MosProcess proc;
  proc.vth0 = 0.8;
  Mosfet& m = nl.add<Mosfet>("M1", MosType::kPmos, d, g, s, s, proc,
                             MosGeometry{10e-6, 1e-6});
  // Source at 5 V, gate at 3.5 V (vsg = 1.5), drain at 2 V.
  const MosEval e = m.evaluate_at(2.0, 3.5, 5.0, 5.0, 300.15);
  // Current flows INTO the source and OUT of the drain terminal: id < 0 in
  // polarity frame is mapped; the physical current into the drain is
  // p * id = -id_frame... For a conducting PMOS the drain current is
  // negative (conventional current flows out of the drain into the node).
  EXPECT_GT(e.id, 0.0);  // polarity-frame current is positive
  EXPECT_EQ(e.region, MosRegion::kSaturation);
}

TEST(Mosfet, GeometryValidation) {
  Netlist nl;
  const NodeId a = nl.add_node("a");
  MosProcess proc;
  EXPECT_THROW(nl.add<Mosfet>("M1", MosType::kNmos, a, a, kGround, kGround,
                              proc, MosGeometry{0.0, 1e-6}),
               std::invalid_argument);
  Mosfet& m = nl.add<Mosfet>("M2", MosType::kNmos, a, a, kGround, kGround,
                             proc, MosGeometry{1e-6, 1e-6});
  EXPECT_THROW(m.set_width(-1.0), std::invalid_argument);
  m.set_width(5e-6);
  EXPECT_EQ(m.geometry().w, 5e-6);
  m.set_length(2e-6);
  EXPECT_EQ(m.geometry().l, 2e-6);
}

}  // namespace
}  // namespace mayo::circuit
