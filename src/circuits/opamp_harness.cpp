#include "circuits/opamp_harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/probe_cache.hpp"
#include "obs/obs.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/transient.hpp"

namespace mayo::circuits {

using circuit::Conditions;
using circuit::Mosfet;
using circuit::MosType;
using circuit::NodeId;
using linalg::Vector;

// Per-(d, theta) reusable results.  Everything in here is computed at the
// NOMINAL statistical point with cold solves, i.e. it is a pure function
// of (d, theta): evaluation results can depend on the context only through
// warm-start seeds, never on the history of earlier calls.
struct OpampHarness::DesignContext {
  std::vector<std::uint64_t> key;  ///< raw bits of (d, theta)

  bool ac_done = false;
  bool ac_converged = false;
  Vector op_ac;  ///< nominal DC operating point of the AC bench

  bool ft_done = false;
  bool ft_valid = false;
  sim::FtBracket ft_bracket;  ///< nominal unity-gain crossing, widened

  bool sr_done = false;
  bool sr_converged = false;
  Vector op_sr;  ///< nominal DC operating point of the unity-gain bench
  bool traj_valid = false;
  std::vector<Vector> sr_traj;  ///< nominal step-response trajectory
};

namespace {
/// Lower bound of the ft sweep (shared by the nominal sweep in the
/// context and the per-sample seeded measurement).
constexpr double kFtLow = 1.0;
/// Headroom factor applied to the nominal crossing on both sides; mismatch
/// rarely moves ft by more than tens of percent, and an escaped crossing
/// just falls back to the full sweep.
constexpr double kFtWiden = 1.6;
/// Bounded FIFO of design contexts (coordinate searches revisit a handful
/// of designs; old entries can always be rebuilt).
constexpr std::size_t kContextCapacity = 16;
/// The nominal seed trajectory runs to this multiple of its own 90%
/// crossing time.
constexpr double kSeedGuard = 2.0;

/// Level at `fraction` of the way from v_start to v_end.  The slew bench's
/// early stop and slew_from_step share it, so the stop level is bitwise
/// the 90% level the measurement looks for.
double step_level(double v_start, double v_end, double fraction) {
  return v_start + fraction * (v_end - v_start);
}
}  // namespace

SlewResult slew_from_step(const std::vector<double>& time,
                          const std::vector<double>& v, double v_end) {
  if (v.empty()) return {};
  const double v_start = v.front();
  const double delta = v_end - v_start;
  if (std::abs(delta) < 1e-6) return {0.0, SlewStatus::kNoStep};
  const auto crossing = [&](double level) {
    for (std::size_t k = 1; k < v.size(); ++k) {
      const bool crossed = delta > 0.0 ? (v[k - 1] < level && v[k] >= level)
                                       : (v[k - 1] > level && v[k] <= level);
      if (crossed) {
        const double f = (level - v[k - 1]) / (v[k] - v[k - 1]);
        return time[k - 1] + f * (time[k] - time[k - 1]);
      }
    }
    return -1.0;
  };
  const double t10 = crossing(step_level(v_start, v_end, 0.1));
  const double t90 = crossing(step_level(v_start, v_end, 0.9));
  if (t10 < 0.0 || t90 < 0.0 || t90 <= t10) return {};
  return {0.8 * std::abs(delta) / (t90 - t10), SlewStatus::kMeasured};
}

OpampHarness::OpampHarness(const BenchOptions& bench,
                           const Topology& topology,
                           std::unique_ptr<OpampBench> ac_bench,
                           std::unique_ptr<OpampBench> sr_bench)
    : bench_(bench),
      topology_(topology),
      ac_bench_(std::move(ac_bench)),
      sr_bench_(std::move(sr_bench)) {
  ac_session_.set_solver(bench_.solver);
}

OpampHarness::~OpampHarness() = default;

// --------------------------------------------------------------- contexts --

OpampHarness::DesignContext& OpampHarness::design_context(
    const Vector& d, const Vector& theta) {
  context_key_.clear();
  core::ProbeCache::append_bits(context_key_, d);
  core::ProbeCache::append_bits(context_key_, theta);
  obs::CacheCounters& stats = obs::registry().counters.design_context;
  for (auto& ctx : contexts_) {
    if (ctx->key == context_key_) {
      stats.hits.add();
      return *ctx;
    }
  }
  stats.misses.add();
  if (contexts_.size() >= kContextCapacity) {
    contexts_.erase(contexts_.begin());
    stats.evictions.add();
  }
  contexts_.push_back(std::make_unique<DesignContext>());
  contexts_.back()->key = context_key_;
  return *contexts_.back();
}

void OpampHarness::ensure_ac_section(DesignContext& ctx, const Vector& d,
                                     const Vector& theta) {
  if (ctx.ac_done) return;
  ctx.ac_done = true;
  OpampBench& ac = *ac_bench_;
  const Vector s0(topology_.num_statistical);
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  // Cold solve: no warm start, so the context stays a pure function of
  // (d, theta) regardless of what was evaluated before.
  sim::DcOptions dc;
  dc.solver = bench_.solver;
  dc.workspace = &newton_ac_;
  const sim::DcResult op = sim::solve_dc(ac.netlist, conditions, dc);
  ctx.ac_converged = op.converged;
  if (op.converged) ctx.op_ac = op.solution;
}

void OpampHarness::ensure_ft_section(DesignContext& ctx, const Vector& d,
                                     const Vector& theta) {
  if (ctx.ft_done) return;
  ensure_ac_section(ctx, d, theta);
  ctx.ft_done = true;
  if (!ctx.ac_converged) return;  // ft_valid stays false
  OpampBench& ac = *ac_bench_;
  const Vector s0(topology_.num_statistical);
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  ac.vinp->set_ac_value({0.5, 0.0});
  ac.vinn->set_ac_value({-0.5, 0.0});
  ac_session_.stamp(ac.netlist, ctx.op_ac, conditions);
  const sim::GainBandwidth gb = sim::measure_gain_bandwidth(
      ac_session_, ac.out, kFtLow, topology_.ft_high_hz);
  if (!gb.ft_found) return;
  ctx.ft_bracket.f_lo = std::max(kFtLow, gb.ft_hz / kFtWiden);
  ctx.ft_bracket.f_hi = std::min(topology_.ft_high_hz, gb.ft_hz * kFtWiden);
  ctx.ft_valid = ctx.ft_bracket.f_hi > ctx.ft_bracket.f_lo;
}

void OpampHarness::ensure_sr_section(DesignContext& ctx, const Vector& d,
                                     const Vector& theta) {
  if (ctx.sr_done) return;
  ctx.sr_done = true;
  OpampBench& sr = *sr_bench_;
  const Vector s0(topology_.num_statistical);
  apply(sr, d, s0, theta);
  const double vcm = 0.5 * theta[1];
  sr.vinp->set_dc_value(vcm);
  const Conditions conditions{theta[0]};
  sim::DcOptions dc;
  dc.solver = bench_.solver;
  dc.workspace = &newton_sr_;
  const sim::DcResult op = sim::solve_dc(sr.netlist, conditions, dc);
  ctx.sr_converged = op.converged;
  if (!op.converged) return;
  ctx.op_sr = op.solution;
  // Nominal step response: its trajectory seeds every sample's per-step
  // Newton iteration.  It runs a guard band past its own 90% crossing so
  // that samples slower than nominal stay seeded; a sample that still
  // outruns it continues unseeded.
  StepResponse nominal =
      step_response(op.solution, conditions, vcm, kSeedGuard, nullptr);
  if (nominal.tran.converged) {
    ctx.sr_traj = std::move(nominal.tran.solutions);
    ctx.traj_valid = true;
  }
}

OpampHarness::StepResponse OpampHarness::step_response(
    const Vector& op, const Conditions& conditions, double vcm, double guard,
    const std::vector<Vector>* seed) {
  StepResponse response;
  OpampBench& sr = *sr_bench_;
  // The input steps from vcm to vcm + sr_step at t = 0+: a transient holds
  // every source at its DC value for t > 0, so setting the final value is
  // the step, and the same setting gives the settled point.
  sr.vinp->set_dc_value(vcm + bench_.sr_step);
  sim::DcOptions dc;
  dc.solver = bench_.solver;
  dc.workspace = &newton_sr_;
  const sim::DcResult settled = sim::solve_dc(sr.netlist, conditions, dc, &op);
  if (!settled.converged) return response;
  const std::size_t out = sr.out - 1;
  response.v_end = settled.solution[out];
  // A unity-gain follower must follow its step.  Far outside the
  // feasibility region the bench can have several equilibria at the final
  // input, and the settled solve may land next to the initial point while
  // the response heads for another: its 10%/90% levels would be wrong.
  if (std::abs(response.v_end - op[out]) < 0.5 * std::abs(bench_.sr_step)) {
    response.followed = false;
    return response;
  }

  sim::TranOptions tran;
  tran.t_stop = bench_.sr_t_stop;
  tran.dt = bench_.sr_dt;
  tran.newton.solver = bench_.solver;
  tran.newton.workspace = &newton_sr_;
  tran.seed_trajectory = seed;
  tran.stop =
      sim::TranStop{out, step_level(op[out], response.v_end, 0.9), guard};
  response.tran = sim::solve_transient(sr.netlist, op, conditions, tran);
  return response;
}

// ----------------------------------------------------------- measurements --

OpampMeasurements OpampHarness::measure_with_context(DesignContext& ctx,
                                                     const Vector& d,
                                                     const Vector& s,
                                                     const Vector& theta) {
  OpampMeasurements out;
  Conditions conditions{theta[0]};

  // --- open-loop AC bench: A0, ft, PM, CMRR, power ----------------------
  OpampBench& ac = *ac_bench_;
  apply(ac, d, s, theta);
  sim::DcOptions ac_dc;
  ac_dc.solver = bench_.solver;
  ac_dc.workspace = &newton_ac_;
  sim::DcResult op = sim::solve_dc(
      ac.netlist, conditions, ac_dc, ctx.ac_converged ? &ctx.op_ac : nullptr);
  if (!op.converged) return out;  // valid stays false

  out.power_mw =
      1e3 * sim::measure_supply_power(ac.netlist, op.solution, {ac.vdd});

  // Differential excitation; the nominal crossing seeds the ft search.
  // One session stamp serves the whole A0/ft/PM measurement.
  ac.vinp->set_ac_value({0.5, 0.0});
  ac.vinn->set_ac_value({-0.5, 0.0});
  ac_session_.stamp(ac.netlist, op.solution, conditions);
  const sim::GainBandwidth gb = sim::measure_gain_bandwidth(
      ac_session_, ac.out, kFtLow, topology_.ft_high_hz,
      ctx.ft_valid ? &ctx.ft_bracket : nullptr);
  out.a0_db = gb.a0_db;
  out.ft_mhz = gb.ft_found ? gb.ft_hz / 1e6 : 0.0;
  out.pm_deg = gb.ft_found ? gb.phase_margin_deg : 0.0;

  if (topology_.measure_cmrr) {
    // Common-mode excitation for CMRR: only the excitation vector changed,
    // but a re-stamp is one device sweep -- far cheaper than a solve.
    ac.vinp->set_ac_value({1.0, 0.0});
    ac.vinn->set_ac_value({1.0, 0.0});
    ac_session_.stamp(ac.netlist, op.solution, conditions);
    const double acm_db = sim::to_db(ac_session_.node_voltage(1.0, ac.out));
    out.cmrr_db = out.a0_db - acm_db;
  }

  // --- unity-gain transient bench: positive slew rate -------------------
  OpampBench& sr = *sr_bench_;
  apply(sr, d, s, theta);
  const double vcm = 0.5 * theta[1];
  sr.vinp->set_dc_value(vcm);
  sim::DcOptions sr_dc;
  sr_dc.solver = bench_.solver;
  sr_dc.workspace = &newton_sr_;
  sim::DcResult sr_op = sim::solve_dc(
      sr.netlist, conditions, sr_dc, ctx.sr_converged ? &ctx.op_sr : nullptr);
  if (!sr_op.converged) return out;

  const StepResponse response =
      step_response(sr_op.solution, conditions, vcm, 1.0,
                    ctx.traj_valid ? &ctx.sr_traj : nullptr);
  SlewResult slew{0.0, SlewStatus::kNotFollowed};
  if (response.followed) {
    if (!response.tran.converged) return out;
    slew = slew_from_step(response.tran.time,
                          response.tran.node_voltage(sr.out), response.v_end);
  }
  out.sr_v_per_us = 1e-6 * slew.rate;
  out.sr_settled = slew.status == SlewStatus::kMeasured ||
                   slew.status == SlewStatus::kNoStep;

  out.valid = true;
  return out;
}

OpampMeasurements OpampHarness::measure(const Vector& d, const Vector& s,
                                        const Vector& theta) {
  DesignContext& ctx = design_context(d, theta);
  ensure_ft_section(ctx, d, theta);  // builds the AC section too
  ensure_sr_section(ctx, d, theta);
  return measure_with_context(ctx, d, s, theta);
}

void OpampHarness::pack_performances(const OpampMeasurements& m,
                                     double* out) const {
  if (!m.valid) {
    // Penalty values: fail every specification decisively but finitely.
    out[0] = -20.0;  // A0 [dB]
    out[1] = 0.0;    // ft [MHz]
    out[2] = 0.0;    // CMRR [dB] / PM [deg]
    out[3] = 0.0;    // SR [V/us]
    out[4] = 10.0;   // Power [mW]
    return;
  }
  out[0] = m.a0_db;
  out[1] = m.ft_mhz;
  out[2] = topology_.measure_cmrr ? m.cmrr_db : m.pm_deg;
  out[3] = m.sr_v_per_us;
  out[4] = m.power_mw;
}

linalg::PerfVec OpampHarness::evaluate(const linalg::DesignVec& d,
                                       const linalg::StatPhysVec& s,
                                       const linalg::OperatingVec& theta) {
  linalg::PerfVec out(5);
  // Unwrap once: bench internals are untyped numeric code.
  pack_performances(
      measure(d.raw(), s.raw(), theta.raw()),  // space-ok: model boundary
      &out[0]);
  return out;
}

void OpampHarness::evaluate_batch(const linalg::DesignVec& d_tagged,
                                  linalg::StatPhysBlock s_tagged,
                                  const linalg::OperatingVec& theta_tagged,
                                  linalg::PerfBlockView out_tagged) {
  // Unwrap once at the model boundary; internals are untyped.
  const Vector& d = d_tagged.raw();                // space-ok: model boundary
  const Vector& theta = theta_tagged.raw();        // space-ok: model boundary
  linalg::ConstMatrixView s_block = s_tagged.raw();  // space-ok: model boundary
  linalg::MatrixView out = out_tagged.raw();         // space-ok: model boundary
  if (out.rows() != s_block.rows() || out.cols() != num_performances())
    throw std::invalid_argument(
        "OpampHarness::evaluate_batch: out shape mismatch");
  // Hoist the nominal solves (bias point, ft bracket, slew trajectory) out
  // of the sample loop; every row then runs the same per-sample code as
  // evaluate(), so the results are bitwise-identical to the scalar path.
  DesignContext& ctx = design_context(d, theta);
  ensure_ft_section(ctx, d, theta);
  ensure_sr_section(ctx, d, theta);
  if (batch_s_.size() != s_block.cols()) batch_s_ = Vector(s_block.cols());
  for (std::size_t j = 0; j < s_block.rows(); ++j) {
    const double* row = s_block.row(j);
    for (std::size_t i = 0; i < batch_s_.size(); ++i) batch_s_[i] = row[i];
    pack_performances(measure_with_context(ctx, d, batch_s_, theta),
                      out.row(j));
  }
}

// ------------------------------------------------------------ constraints --

Vector OpampHarness::saturation_margins(const Vector& d) {
  const Vector s0(topology_.num_statistical);
  Vector theta{topology_.temp_nom_k, topology_.vdd_nom};
  DesignContext& ctx = design_context(d, theta);
  ensure_ac_section(ctx, d, theta);
  const std::size_t count = ac_bench_->signal.size();
  Vector margins(count);
  if (!ctx.ac_converged) {
    margins.fill(-1.0);
    return margins;
  }
  // The constraint point IS the context's nominal operating point: only
  // the device state needs re-binding, no extra DC solve.
  OpampBench& ac = *ac_bench_;
  apply(ac, d, s0, theta);
  const Conditions conditions{theta[0]};
  const auto voltage = [&](NodeId n) {
    return n == circuit::kGround ? 0.0 : ctx.op_ac[n - 1];
  };
  for (std::size_t i = 0; i < count; ++i) {
    const Mosfet* mos = ac.signal[i];
    const circuit::MosEval eval = mos->evaluate_at(
        voltage(mos->drain()), voltage(mos->gate()), voltage(mos->source()),
        voltage(mos->bulk()), conditions.temperature_k);
    const double p = mos->type() == MosType::kNmos ? 1.0 : -1.0;
    const double vds = p * (voltage(mos->drain()) - voltage(mos->source()));
    margins[i] = vds - eval.vdsat - bench_.sat_margin;
  }
  return margins;
}

Vector OpampHarness::constraints(const linalg::DesignVec& d) {
  return saturation_margins(d.raw());  // space-ok: untyped bench internals
}

}  // namespace mayo::circuits
