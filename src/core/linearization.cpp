#include "core/linearization.hpp"

#include "core/verification.hpp"
#include "obs/obs.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

double SpecLinearization::value(const DesignVec& d,
                                const StatUnitVec& s_hat) const {
  return margin_wc + linalg::dot(grad_s, s_hat - s_wc) +
         linalg::dot(grad_d, d - d_f);
}

namespace {

/// Appends the primary model for one spec -- and, when `enable_mirror` and
/// the worst-case search detected a quadratic performance, the mirrored
/// model (eq. 21-22) -- to `out.models`.
void append_spec_models(std::size_t spec, const OperatingVec& theta_wc,
                        const DesignVec& d_f, const WorstCasePoint& wc,
                        DesignVec grad_d, bool enable_mirror,
                        LinearizedModels& out) {
  SpecLinearization model;
  model.spec = spec;
  model.theta_wc = theta_wc;
  model.s_wc = wc.s_wc;
  model.d_f = d_f;
  model.margin_wc = wc.margin_at_wc;
  model.grad_s = wc.gradient;
  model.grad_d = std::move(grad_d);
  model.beta = wc.beta;
  out.models.push_back(model);

  if (enable_mirror && wc.mirrored) {
    // Mirrored model (eq. 21-22): expansion at -s_wc with negated
    // statistical gradient; margin there was measured during detection.
    SpecLinearization mirror = model;
    mirror.is_mirror = true;
    mirror.s_wc = -wc.s_wc;
    mirror.margin_wc = wc.margin_at_mirror;
    mirror.grad_s = -wc.gradient;
    out.models.push_back(std::move(mirror));
  }
}

/// Ablation: pretend every worst case sits at the nominal point.  The
/// finite-difference block is shared across specs: one margin_gradients_s
/// batch per distinct operating corner instead of a per-spec gradient
/// loop (probes the identical point set, so budget charges are unchanged;
/// each row is bitwise the scalar gradient).
void linearize_at_nominal(Evaluator& evaluator, const DesignVec& d_f,
                          const LinearizationOptions& options,
                          LinearizedModels& out) {
  const CornerGrouping grouping = group_corners(out.operating.theta_wc);
  const StatUnitVec s_nominal = evaluator.nominal_s_hat();
  std::vector<linalg::Matrixd> nominal_grads;
  nominal_grads.reserve(grouping.distinct.size());
  for (const OperatingVec& theta : grouping.distinct)
    nominal_grads.push_back(evaluator.margin_gradients_s(
        d_f, s_nominal, theta, options.wc.gradient_step));

  for (std::size_t i = 0; i < evaluator.num_specs(); ++i) {
    const OperatingVec& theta_wc = out.operating.theta_wc[i];
    WorstCasePoint wc;
    wc.spec = i;
    wc.s_wc = s_nominal;
    wc.margin_nominal = evaluator.margin(i, d_f, wc.s_wc, theta_wc);
    wc.margin_at_wc = wc.margin_nominal;
    const linalg::Matrixd& grads = nominal_grads[grouping.group_of_spec[i]];
    wc.gradient = StatUnitVec(evaluator.num_statistical());
    for (std::size_t k = 0; k < wc.gradient.size(); ++k)
      wc.gradient[k] = grads(i, k);
    wc.beta = 0.0;
    wc.converged = true;
    append_spec_models(i, theta_wc, d_f, wc,
                       evaluator.margin_gradient_d(
                           i, d_f, wc.s_wc, theta_wc,
                           options.design_step_fraction),
                       /*enable_mirror=*/false, out);
    out.worst_cases.push_back(std::move(wc));
  }
}

}  // namespace

LinearizedModels build_linearizations(Evaluator& evaluator,
                                      const DesignVec& d_f,
                                      const LinearizationOptions& options) {
  // Phase accounting: the worst-case searches (operating corners, then the
  // per-spec statistical distance searches and design gradients) and the
  // model building proper record into disjoint spans, so
  // worst_case_search + linearization partition this function's wall time.
  LinearizedModels out;
  std::vector<DesignVec> grad_d;
  {
    const obs::Span span(obs::registry().phases.worst_case_search);
    out.operating = find_worst_case_operating(evaluator, d_f, options.operating);
    if (!options.linearize_at_nominal) {
      for (std::size_t i = 0; i < evaluator.num_specs(); ++i) {
        const OperatingVec& theta_wc = out.operating.theta_wc[i];
        out.worst_cases.push_back(
            find_worst_case_point(evaluator, i, d_f, theta_wc, options.wc));
        grad_d.push_back(evaluator.margin_gradient_d(
            i, d_f, out.worst_cases.back().s_wc, theta_wc,
            options.design_step_fraction));
      }
    }
  }

  const obs::Span span(obs::registry().phases.linearization);
  if (options.linearize_at_nominal) {
    linearize_at_nominal(evaluator, d_f, options, out);
    return out;
  }
  for (std::size_t i = 0; i < out.worst_cases.size(); ++i)
    append_spec_models(i, out.operating.theta_wc[i], d_f, out.worst_cases[i],
                       std::move(grad_d[i]), options.enable_mirror, out);
  return out;
}

}  // namespace mayo::core
