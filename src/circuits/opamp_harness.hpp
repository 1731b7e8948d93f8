// mayo/circuits -- the shared testbench harness of the opamp models.
//
// Both opamps of the paper (Fig. 7 folded cascode, Fig. 8 Miller) are
// measured with the same two testbench netlists sharing one sizing:
//   * an open-loop AC bench with a DC-only feedback path (1 GOhm / 1 F:
//     closes the loop at DC so the operating point is biased, transparent
//     to every AC frequency of interest) measuring A0, f_t, the phase
//     margin, optionally CMRR, and the supply power;
//   * a unity-gain transient bench measuring the positive slew rate from a
//     step on the non-inverting input.  The step's 10%/90% levels come from
//     the DC point at the final input, and the transient stops at the 90%
//     crossing (DESIGN.md, "Slew rate").
//
// OpampHarness owns everything except the netlists: the per-(d, theta)
// cache of nominal solves, the per-sample measurement chain, the scalar
// and batch PerformanceModel paths and the saturation-margin constraints.
// A topology derives from it and supplies its two bench netlists, apply()
// (binding d, s and theta to the devices), its constants (Topology), its
// names and its yield problem; its Options extend BenchOptions.
//
// Performances (spec order): A0 [dB], f_t [MHz], CMRR [dB] or PM [deg]
// (Topology::measure_cmrr), SR+ [V/us], Power [mW].
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/devices.hpp"
#include "circuit/netlist.hpp"
#include "core/problem.hpp"
#include "linalg/system_matrix.hpp"
#include "sim/ac.hpp"
#include "sim/solver.hpp"
#include "sim/transient.hpp"

namespace mayo::circuits {

/// One testbench netlist plus the device handles that apply() binds and
/// the harness drives.
struct OpampBench {
  circuit::Netlist netlist;
  /// Signal-path transistors in constraint order (saturation margins).
  std::vector<circuit::Mosfet*> signal;
  /// Bias-generation transistors (global process variation only).
  std::vector<circuit::Mosfet*> bias;
  circuit::VoltageSource* vdd = nullptr;
  circuit::VoltageSource* vinp = nullptr;
  circuit::VoltageSource* vinn = nullptr;  ///< null in the unity-gain bench
  circuit::CurrentSource* iref = nullptr;
  circuit::Capacitor* cc = nullptr;  ///< sized compensation cap, if any
  circuit::NodeId out = circuit::kGround;
};

/// Everything the harness measures at one (d, s, theta).  `cmrr_db` is
/// only measured when the harness is configured for it (0 otherwise).
struct OpampMeasurements {
  double a0_db = 0.0;
  double ft_mhz = 0.0;
  double cmrr_db = 0.0;
  double pm_deg = 0.0;
  double sr_v_per_us = 0.0;
  double power_mw = 0.0;
  bool valid = false;  ///< false when a DC or transient solve failed
  /// False when the slew output did not reach its 90% level before
  /// sr_t_stop, or when the settled output did not follow the input step
  /// (SlewStatus::kNotFollowed); sr_v_per_us is then 0, which fails only
  /// the SR spec.
  bool sr_settled = false;
};

/// Outcome of a slew measurement.
enum class SlewStatus {
  kMeasured,    ///< both crossings found
  kNoStep,      ///< |v_end - v_start| below 1e-6: nothing to measure
  kNotSettled,  ///< the waveform ends before its 10% or 90% crossing
  /// The settled output moved less than half the input step: a unity-gain
  /// follower that does not follow its input has no slew to measure, and
  /// its settled DC point may be another equilibrium than the one the
  /// step response heads for.  The transient is not run.
  kNotFollowed,
};

struct SlewResult {
  double rate = 0.0;  ///< [unit/s]; 0 unless kMeasured
  SlewStatus status = SlewStatus::kNotSettled;
};

/// 10%-90% slew rate [unit/s] of a step response from v.front() towards
/// the settled value `v_end`: 0.8 |v_end - v_start| over the time between
/// the first 10% and the first 90% crossings (linear interpolation between
/// samples), for rising and falling edges.  The waveform only needs to
/// run up to its 90% crossing.
SlewResult slew_from_step(const std::vector<double>& time,
                          const std::vector<double>& v, double v_end);

class OpampHarness : public core::PerformanceModel {
 public:
  /// Settings of the shared testbenches.  Each topology's Options derives
  /// from this, choosing the slew bench's transient window.
  struct BenchOptions {
    BenchOptions(double t_stop, double dt) : sr_t_stop(t_stop), sr_dt(dt) {}

    double sat_margin = 0.05;  ///< required saturation margin [V]
    double sr_step = 0.5;      ///< input step of the slew bench [V]
    double sr_t_stop;          ///< cap on the transient duration [s]
    double sr_dt;              ///< transient step [s]
    /// Linear-solver backend selection for every bench solve (kAuto keeps
    /// the opamp-scale netlists on the dense fast path; tests force
    /// kSparse to pin dense/sparse equivalence).
    linalg::SolverOptions solver;
  };

  ~OpampHarness() override;

  // -- PerformanceModel ----------------------------------------------------
  std::size_t num_performances() const override { return 5; }
  std::size_t num_constraints() const override {
    return ac_bench_->signal.size();
  }
  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override;
  /// Native batch path: the per-(d, theta) nominal solves (bias point, ft
  /// bracket, slew trajectory) are built once and every sample row reuses
  /// them as warm starts.  Row results are bitwise-identical to evaluate()
  /// because both run the same per-sample code against the same context.
  void evaluate_batch(const linalg::DesignVec& d, linalg::StatPhysBlock s_block,
                      const linalg::OperatingVec& theta,
                      linalg::PerfBlockView out) override;
  linalg::Vector constraints(const linalg::DesignVec& d) override;

  /// Detailed measurement access for sweeps and figures.  Deliberately
  /// untyped (raw vectors): callers sweep arbitrary ad-hoc points.
  OpampMeasurements measure(const linalg::Vector& d, const linalg::Vector& s,
                            const linalg::Vector& theta);

  /// Saturation margins (vds - vdsat - sat_margin) of the signal-path
  /// transistors at nominal statistics and operating conditions.
  linalg::Vector saturation_margins(const linalg::Vector& d);

 protected:
  /// Per-topology constants of the shared testbenches.
  struct Topology {
    double ft_high_hz = 1e9;  ///< upper bound of the f_t sweep
    /// Third performance: CMRR (one extra common-mode AC stamp per
    /// sample) when true, else the phase margin.
    bool measure_cmrr = false;
    std::size_t num_statistical = 0;
    double temp_nom_k = 300.15;  ///< constraint operating point
    double vdd_nom = 5.0;
  };

  OpampHarness(const BenchOptions& bench, const Topology& topology,
               std::unique_ptr<OpampBench> ac_bench,
               std::unique_ptr<OpampBench> sr_bench);

  /// Binds design, statistical and operating values to one bench.
  virtual void apply(OpampBench& bench, const linalg::Vector& d,
                     const linalg::Vector& s,
                     const linalg::Vector& theta) const = 0;

 private:
  struct DesignContext;  // per-(d, theta) nominal solves shared by samples

  /// Context for (d, theta), created empty on first use (FIFO-bounded
  /// cache).  Sections are filled lazily by the ensure_* helpers; all
  /// content is a pure function of (d, theta), so eviction can never
  /// change a result, only its cost.
  DesignContext& design_context(const linalg::Vector& d,
                                const linalg::Vector& theta);
  void ensure_ac_section(DesignContext& ctx, const linalg::Vector& d,
                         const linalg::Vector& theta);
  void ensure_ft_section(DesignContext& ctx, const linalg::Vector& d,
                         const linalg::Vector& theta);
  void ensure_sr_section(DesignContext& ctx, const linalg::Vector& d,
                         const linalg::Vector& theta);
  struct StepResponse {
    double v_end = 0.0;    ///< settled output voltage
    bool followed = true;  ///< false: kNotFollowed, no transient was run
    sim::TranResult tran;  ///< not converged if the settled DC failed too
  };
  /// Step response of the slew bench from its operating point `op` (input
  /// at vcm): solves the settled point at vcm + sr_step, warm-started from
  /// `op`, then -- unless the output moved less than half the step --
  /// integrates until the output reaches 90% of the way to it (TranStop
  /// with `guard`), capped at sr_t_stop.
  StepResponse step_response(const linalg::Vector& op,
                             const circuit::Conditions& conditions, double vcm,
                             double guard,
                             const std::vector<linalg::Vector>* seed);
  OpampMeasurements measure_with_context(DesignContext& ctx,
                                         const linalg::Vector& d,
                                         const linalg::Vector& s,
                                         const linalg::Vector& theta);
  void pack_performances(const OpampMeasurements& m, double* out) const;

  BenchOptions bench_;
  Topology topology_;
  std::unique_ptr<OpampBench> ac_bench_;  ///< open-loop AC testbench
  std::unique_ptr<OpampBench> sr_bench_;  ///< unity-gain transient testbench
  std::vector<std::unique_ptr<DesignContext>> contexts_;  ///< FIFO cache
  std::vector<std::uint64_t> context_key_;  ///< key-building scratch
  linalg::Vector batch_s_;                  ///< row scratch for batches
  /// Reusable small-signal workspace.  Every use fully re-stamps it, so it
  /// carries cost (buffers, factors) but never results between calls.
  sim::AcSession ac_session_;
  /// Newton linear-system workspaces, one per bench (the benches differ
  /// in size; sharing one would thrash the sparse pattern and symbolic
  /// analysis on every alternation).  Like the session, they carry only
  /// cost between calls; clone() gives each parallel worker fresh ones.
  sim::LinearSystem newton_ac_;
  sim::LinearSystem newton_sr_;
};

}  // namespace mayo::circuits
