#include "core/wc_distance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/normal.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

namespace {

struct SearchOutcome {
  StatUnitVec s;
  double margin = 0.0;
  StatUnitVec gradient;
  bool converged = false;
  int iterations = 0;
};

/// One sequential-linearization run from a given start point.
SearchOutcome run_search(Evaluator& evaluator, std::size_t spec,
                         const DesignVec& d, const OperatingVec& theta_wc,
                         const StatUnitVec& start, double scale,
                         const WcDistanceOptions& options) {
  SearchOutcome out;
  out.s = start;
  double damping = options.damping;
  double prev_abs_margin = std::numeric_limits<double>::infinity();

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++out.iterations;
    // The base point and its finite-difference stencil are one batch; the
    // margin is then a cache hit.
    out.gradient = evaluator.margin_gradient_s(spec, d, out.s, theta_wc,
                                               options.gradient_step);
    out.margin = evaluator.margin(spec, d, out.s, theta_wc);
    const double g2 = out.gradient.norm2();
    if (g2 < 1e-20) return out;  // flat -- this start is hopeless

    // Min-norm point of the linearized level set {s | m + g^T(s - s_k) = 0}.
    const double rhs = linalg::dot(out.gradient, out.s) - out.margin;
    StatUnitVec target = out.gradient * (rhs / g2);
    StatUnitVec step = target - out.s;

    // Adaptive damping: back off when the margin residual grew.
    if (std::abs(out.margin) > prev_abs_margin)
      damping = std::max(0.25, 0.5 * damping);
    else
      damping = std::min(1.0, 1.3 * damping);
    prev_abs_margin = std::abs(out.margin);

    StatUnitVec s_new = out.s + step * damping;
    const double radius = s_new.norm();
    if (radius > options.max_radius) s_new *= options.max_radius / radius;

    const double moved = linalg::distance(s_new, out.s);
    if (std::abs(out.margin) < options.margin_tolerance * scale &&
        moved < options.step_tolerance) {
      out.converged = true;
      return out;
    }
    out.s = std::move(s_new);
  }
  // Final residual check: the last accepted iterate may be good enough.
  out.margin = evaluator.margin(spec, d, out.s, theta_wc);
  out.converged = std::abs(out.margin) < options.margin_tolerance * scale * 10.0;
  return out;
}

}  // namespace

WorstCasePoint find_worst_case_point(Evaluator& evaluator, std::size_t spec,
                                     const DesignVec& d,
                                     const OperatingVec& theta_wc,
                                     const WcDistanceOptions& options) {
  const std::size_t n = evaluator.num_statistical();
  const double scale = evaluator.problem().specs.at(spec).scale;
  const StatUnitVec origin(n);

  WorstCasePoint result;
  result.spec = spec;
  result.margin_nominal = evaluator.margin(spec, d, origin, theta_wc);

  // Collect start points: the nominal point plus curvature-seeded starts
  // along quadratic (mismatch-type) axes.
  std::vector<StatUnitVec> starts;
  starts.push_back(origin);

  if (options.curvature_starts && result.margin_nominal > 0.0) {
    const double h = options.gradient_step;
    struct Axis {
      std::size_t index;
      double curvature;
      double radius;
    };
    std::vector<Axis> axes;
    // All 2n central-difference probes (+h, -h along every axis) form one
    // batch.
    std::vector<StatUnitVec> probes(2 * n, StatUnitVec(n));
    std::vector<EvalPoint> points(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      probes[2 * i][i] = h;
      probes[2 * i + 1][i] = -h;
      points[2 * i] = {&d, &probes[2 * i], &theta_wc};
      points[2 * i + 1] = {&d, &probes[2 * i + 1], &theta_wc};
    }
    const linalg::Matrixd margins = evaluator.margins_at(points);
    for (std::size_t i = 0; i < n; ++i) {
      const double m_plus = margins(2 * i, spec);
      const double m_minus = margins(2 * i + 1, spec);
      const double curvature =
          (m_plus - 2.0 * result.margin_nominal + m_minus) / (h * h);
      // A mismatch axis hurts on both sides and with meaningful strength.
      if (m_plus < result.margin_nominal && m_minus < result.margin_nominal &&
          -curvature * 0.5 > options.curvature_threshold * scale) {
        const double radius = std::clamp(
            std::sqrt(2.0 * std::max(result.margin_nominal, 0.1 * scale) /
                      (-curvature)),
            0.5, options.max_radius);
        axes.push_back({i, curvature, radius});
      }
    }
    std::sort(axes.begin(), axes.end(), [](const Axis& a, const Axis& b) {
      return a.curvature < b.curvature;  // most negative first
    });
    int budget = options.max_extra_starts;
    for (const Axis& axis : axes) {
      if (budget <= 0) break;
      StatUnitVec plus(n);
      plus[axis.index] = axis.radius;
      starts.push_back(plus);
      --budget;
      if (budget <= 0) break;
      StatUnitVec minus(n);
      minus[axis.index] = -axis.radius;
      starts.push_back(minus);
      --budget;
    }
  }

  // Run all starts; keep the minimum-norm converged solution.
  SearchOutcome best;
  bool have_best = false;
  SearchOutcome fallback;
  bool have_fallback = false;
  for (const StatUnitVec& start : starts) {
    SearchOutcome outcome =
        run_search(evaluator, spec, d, theta_wc, start, scale, options);
    result.iterations += outcome.iterations;
    if (outcome.converged) {
      if (!have_best || outcome.s.norm2() < best.s.norm2()) {
        best = std::move(outcome);
        have_best = true;
      }
    } else if (!have_fallback ||
               std::abs(outcome.margin) < std::abs(fallback.margin)) {
      fallback = std::move(outcome);
      have_fallback = true;
    }
  }
  const SearchOutcome& chosen = have_best ? best : fallback;
  result.s_wc = chosen.s;
  result.margin_at_wc = chosen.margin;
  result.gradient = chosen.gradient.empty()
                        ? evaluator.margin_gradient_s(spec, d, chosen.s, theta_wc,
                                                      options.gradient_step)
                        : chosen.gradient;
  result.converged = chosen.converged;
  const double sign = result.margin_nominal >= 0.0 ? 1.0 : -1.0;
  result.beta = sign * result.s_wc.norm();

  // Mirror detection (eq. 21): one extra evaluation at -s_wc.  A linear
  // performance would have margin ~ 2*m0 there; a symmetric quadratic one
  // collapses back to ~0.
  if (result.margin_nominal > 0.0 && result.s_wc.norm() > 1e-9) {
    result.margin_at_mirror = evaluator.margin(spec, d, -result.s_wc, theta_wc);
    result.mirrored =
        result.margin_at_mirror <
        0.25 * result.margin_nominal + options.margin_tolerance * scale;
  }
  return result;
}

double worst_case_yield(const WorstCasePoint& wc) {
  return stats::yield_from_beta(wc.beta);
}

}  // namespace mayo::core
