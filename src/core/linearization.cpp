#include "core/linearization.hpp"

#include "core/verification.hpp"
#include "core/worker_pool.hpp"
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

/// One spec's worst-case distance search result plus the design gradient
/// at that worst-case point.
struct SpecTask {
  WorstCasePoint wc;
  DesignVec grad_d;
};

/// Runs the worst-case distance search and the design gradient of specs
/// first, first + stride, ... on `evaluator`, writing only their slots of
/// `tasks`.  The single-threaded run is (0, 1) on the caller's evaluator;
/// worker t of the fan-out is (t, threads) on its own cloned evaluator.
/// Each spec's evaluator calls are the same in both, so the results are
/// too.
void linearize_specs(Evaluator& evaluator, const DesignVec& d_f,
                     const WcOperatingResult& operating,
                     const LinearizationOptions& options, std::size_t first,
                     std::size_t stride, std::vector<SpecTask>& tasks) {
  for (std::size_t i = first; i < tasks.size(); i += stride) {
    SpecTask& task = tasks[i];
    task.wc = find_worst_case_point(evaluator, i, d_f, operating.theta_wc[i],
                                    options.wc);
    task.grad_d = evaluator.margin_gradient_d(i, d_f, task.wc.s_wc,
                                              operating.theta_wc[i],
                                              options.design_step_fraction);
  }
}

/// Runs linearize_specs on `threads` workers, each with its own cloned
/// model and evaluator, and charges the workers' evaluations to
/// `evaluator`'s optimization budget.  The spec -> worker assignment is a
/// pure function of the spec index, so re-runs with the same thread count
/// exercise identical per-worker evaluation sequences.
void fan_out_specs(Evaluator& evaluator, const DesignVec& d_f,
                   const WcOperatingResult& operating,
                   const LinearizationOptions& options, unsigned threads,
                   std::vector<SpecTask>& tasks) {
  const YieldProblem& problem = evaluator.problem();
  std::vector<std::size_t> worker_evals(threads, 0);
  run_workers(threads, [&](unsigned t) {  // parallel-entry
    // Thread-local copy of the problem with a cloned model.
    YieldProblem local = problem;
    local.model = std::shared_ptr<PerformanceModel>(problem.model->clone());
    Evaluator local_evaluator(local);
    linearize_specs(local_evaluator, d_f, operating, options, t, threads,
                    tasks);
    worker_evals[t] = local_evaluator.counts().optimization;
  });
  std::size_t total = 0;
  for (const std::size_t evals : worker_evals) total += evals;
  evaluator.charge_optimization(total);
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
                                      const LinearizationOptions& options,
                                      unsigned threads) {
  const std::size_t num_specs = evaluator.num_specs();

  // Phase accounting: the worst-case searches (operating corners, then the
  // per-spec statistical distance searches and design gradients) and the
  // model building proper record into disjoint spans, so
  // worst_case_search + linearization partition this function's wall time.
  LinearizedModels out;
  std::vector<SpecTask> tasks(num_specs);
  {
    const obs::Span span(obs::registry().phases.worst_case_search);
    out.operating = find_worst_case_operating(evaluator, d_f, options.operating);
    if (!options.linearize_at_nominal) {
      threads = resolve_threads(threads, std::max<std::size_t>(num_specs, 1));
      if (threads > 1 && evaluator.problem().model->clone() != nullptr)
        fan_out_specs(evaluator, d_f, out.operating, options, threads, tasks);
      else
        linearize_specs(evaluator, d_f, out.operating, options, 0, 1, tasks);
    }
  }

  const obs::Span span(obs::registry().phases.linearization);
  if (options.linearize_at_nominal) {
    linearize_at_nominal(evaluator, d_f, options, out);
    return out;
  }
  for (std::size_t i = 0; i < num_specs; ++i) {
    append_spec_models(i, out.operating.theta_wc[i], d_f, tasks[i].wc,
                       std::move(tasks[i].grad_d), options.enable_mirror, out);
    out.worst_cases.push_back(std::move(tasks[i].wc));
  }
  return out;
}

}  // namespace mayo::core
