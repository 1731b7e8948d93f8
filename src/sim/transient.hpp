// mayo/sim -- transient analysis (backward Euler).
//
// Fixed-step backward-Euler integration; each step is a damped Newton solve
// of the companion-model system.  BE is L-stable, which matters here: the
// slew-rate testbenches are stiff (nanosecond device poles under
// microsecond ramps).  Used for the slew-rate performance of the opamp
// testbenches.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "circuit/netlist.hpp"
#include "linalg/vector.hpp"
#include "sim/dc.hpp"

namespace mayo::sim {

/// Early-stop condition of a transient run: the run ends after the first
/// accepted step at which `unknown` has reached `level` in the step's
/// direction (x >= level when the level lies at or above the unknown's
/// initial value, x <= level when it lies below), or, with a guard band,
/// after the first step with t >= guard * t_reach, where t_reach is the
/// time of that first step.
struct TranStop {
  std::size_t unknown = 0;  ///< MNA unknown index (node id - 1 for a node)
  double level = 0.0;
  double guard = 1.0;  ///< >= 1; 1 stops at the reaching step itself
};

/// Transient run controls.
struct TranOptions {
  double t_stop = 1e-6;    ///< end time [s]
  double dt = 1e-9;        ///< fixed step size [s]
  DcOptions newton;        ///< per-step Newton controls
  /// Optional Newton warm start: solutions of a previous run of the same
  /// testbench on the same time grid (e.g. the nominal-design trajectory
  /// while sweeping mismatch samples).  When entry k exists and matches
  /// the system size, the step-k Newton iteration starts from it instead
  /// of the previous time point; the integration history (x_prev,
  /// half-step retries) is unaffected, so the seed only changes
  /// the iteration count, not the method.  The pointee must outlive the
  /// solve_transient call.
  const std::vector<linalg::Vector>* seed_trajectory = nullptr;
  /// Optional early stop; t_stop stays the cap.  The condition only ends
  /// the step loop, so a stopped run is a bitwise prefix of the full run.
  std::optional<TranStop> stop;
};

/// Result of a transient run: the solution vector at every accepted time
/// point (including t = 0, which is the provided initial operating point).
struct TranResult {
  std::vector<double> time;
  std::vector<linalg::Vector> solutions;
  bool converged = false;
  int newton_iterations = 0;

  /// Voltage waveform of one node.
  std::vector<double> node_voltage(circuit::NodeId node) const;
};

/// Integrates from the DC state `initial`.  Sources hold their current DC
/// values for all t > 0, so a source changed after `initial` was solved
/// is a step at t = 0+.
TranResult solve_transient(circuit::Netlist& netlist,
                           const linalg::Vector& initial,
                           const circuit::Conditions& conditions,
                           const TranOptions& options);

/// Maximum signed slope max_t dV/dt of a waveform [unit/s]; takes the
/// maximum of (v[k+1]-v[k])/dt.  Returns 0 for fewer than two points.
double max_slope(const std::vector<double>& time,
                 const std::vector<double>& values);

}  // namespace mayo::sim
