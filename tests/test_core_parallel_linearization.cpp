// Determinism contract of the evaluation pool for the linearization and
// the whole optimizer: for every thread count, build_linearizations
// returns models, worst-case points and operating corners that are
// BITWISE identical to the single-threaded run, and the evaluation
// counters are equal too -- the pool only simulates the misses of each
// batch, while the caller's evaluator probes and charges them in row
// order against its one cache.
#include "core/linearization.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/optimizer.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;

LinearizedModels run_serial() {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  return build_linearizations(ev, DesignVec(problem.design.nominal));
}

LinearizedModels run_parallel(unsigned threads,
                              bool linearize_at_nominal = false) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  ev.set_threads(threads);
  LinearizationOptions opts;
  opts.linearize_at_nominal = linearize_at_nominal;
  return build_linearizations(ev, DesignVec(problem.design.nominal), opts);
}

void expect_identical(const LinearizedModels& serial,
                      const LinearizedModels& parallel) {
  ASSERT_EQ(parallel.models.size(), serial.models.size());
  for (std::size_t m = 0; m < serial.models.size(); ++m) {
    SCOPED_TRACE(m);
    const SpecLinearization& a = serial.models[m];
    const SpecLinearization& b = parallel.models[m];
    EXPECT_EQ(b.spec, a.spec);
    EXPECT_EQ(b.is_mirror, a.is_mirror);
    EXPECT_EQ(b.theta_wc, a.theta_wc);
    EXPECT_EQ(b.s_wc, a.s_wc);
    EXPECT_EQ(b.d_f, a.d_f);
    EXPECT_EQ(b.margin_wc, a.margin_wc);
    EXPECT_EQ(b.grad_s, a.grad_s);
    EXPECT_EQ(b.grad_d, a.grad_d);
    EXPECT_EQ(b.beta, a.beta);
  }
  ASSERT_EQ(parallel.worst_cases.size(), serial.worst_cases.size());
  for (std::size_t i = 0; i < serial.worst_cases.size(); ++i) {
    SCOPED_TRACE(i);
    const WorstCasePoint& a = serial.worst_cases[i];
    const WorstCasePoint& b = parallel.worst_cases[i];
    EXPECT_EQ(b.spec, a.spec);
    EXPECT_EQ(b.s_wc, a.s_wc);
    EXPECT_EQ(b.beta, a.beta);
    EXPECT_EQ(b.margin_nominal, a.margin_nominal);
    EXPECT_EQ(b.margin_at_wc, a.margin_at_wc);
    EXPECT_EQ(b.gradient, a.gradient);
    EXPECT_EQ(b.converged, a.converged);
    EXPECT_EQ(b.mirrored, a.mirrored);
    EXPECT_EQ(b.margin_at_mirror, a.margin_at_mirror);
    EXPECT_EQ(b.iterations, a.iterations);
  }
  ASSERT_EQ(parallel.operating.theta_wc.size(),
            serial.operating.theta_wc.size());
  for (std::size_t i = 0; i < serial.operating.theta_wc.size(); ++i)
    EXPECT_EQ(parallel.operating.theta_wc[i],
              serial.operating.theta_wc[i]);
}

TEST(ParallelLinearization, ThreadCountSweep) {
  const LinearizedModels serial = run_serial();
  // The synthetic problem has a quadratic mirror spec, so the sweep also
  // proves mirror detection survives the fan-out.
  ASSERT_GT(serial.models.size(), serial.worst_cases.size());
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    expect_identical(serial, run_parallel(threads));
  }
}

TEST(ParallelLinearization, MoreThreadsThanBatchRows) {
  // Wider than any batch of the synthetic problem (4-row stencils, 3-row
  // corner sets): idle workers must not disturb anything.
  expect_identical(run_serial(), run_parallel(16));
}

TEST(ParallelLinearization, NominalAblationMatchesSerial) {
  // The ablation's shared finite-difference batch is one evaluation
  // block; on the pool it must give the serial models bit for bit.
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  LinearizationOptions serial_opts;
  serial_opts.linearize_at_nominal = true;
  const LinearizedModels serial =
      build_linearizations(ev, DesignVec(problem.design.nominal), serial_opts);
  expect_identical(serial, run_parallel(8, /*linearize_at_nominal=*/true));
}

TEST(ParallelLinearization, WorkerEvaluationsChargedToOptimizer) {
  auto problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator ev(problem);
  ev.set_threads(2);
  (void)build_linearizations(ev, DesignVec(problem.design.nominal));
  // Every pool evaluation is charged to the optimization budget, and the
  // shared cache makes the count the serial one exactly.
  auto serial_problem = testing::make_synthetic_problem(2.0, 1.0);
  Evaluator serial_ev(serial_problem);
  (void)build_linearizations(serial_ev,
                             DesignVec(serial_problem.design.nominal));
  EXPECT_EQ(ev.counts().optimization, serial_ev.counts().optimization);
  EXPECT_EQ(ev.counts().cache_hits, serial_ev.counts().cache_hits);
  EXPECT_EQ(ev.counts().verification, 0u);
}

TEST(ParallelLinearization, OptimizerRouteMatchesSerial) {
  // The full Fig. 6 loop, plain-MC and IS verification included, at
  // threads 1-4: same trace, designs, linearizations, IS bracket and
  // evaluation counts, bit for bit.
  YieldOptimizerOptions base;
  base.max_iterations = 2;
  base.linear_samples = 400;
  base.verification.num_samples = 50;
  base.run_is_verification = true;
  base.is_verification.initial_samples = 32;
  base.is_verification.round_samples = 16;
  base.is_verification.max_rounds = 2;
  base.is_verification.block_size = 8;

  std::vector<YieldOptimizationResult> results;
  for (unsigned threads : {1u, 2u, 3u, 4u}) {
    YieldOptimizerOptions options = base;
    options.linearization_threads = threads;
    auto problem = testing::make_synthetic_problem(2.0, 1.0);
    Evaluator ev(problem);
    results.push_back(optimize_yield(ev, options));
    EXPECT_EQ(ev.threads(), threads);
  }
  const YieldOptimizationResult& serial = results.front();
  ASSERT_TRUE(serial.is_verification_run);
  for (std::size_t k = 1; k < results.size(); ++k) {
    SCOPED_TRACE(k + 1);
    const YieldOptimizationResult& parallel = results[k];
    ASSERT_EQ(parallel.trace.size(), serial.trace.size());
    for (std::size_t i = 0; i < serial.trace.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(parallel.trace[i].d, serial.trace[i].d);
      EXPECT_EQ(parallel.trace[i].linear_yield, serial.trace[i].linear_yield);
      EXPECT_EQ(parallel.trace[i].verified_yield,
                serial.trace[i].verified_yield);
      EXPECT_EQ(parallel.trace[i].verification.performance_mean,
                serial.trace[i].verification.performance_mean);
    }
    EXPECT_EQ(parallel.final_d, serial.final_d);
    ASSERT_EQ(parallel.linearizations.size(), serial.linearizations.size());
    for (std::size_t i = 0; i < serial.linearizations.size(); ++i)
      expect_identical(serial.linearizations[i], parallel.linearizations[i]);
    EXPECT_EQ(parallel.is_verification.yield, serial.is_verification.yield);
    EXPECT_EQ(parallel.is_verification.confidence.lower,
              serial.is_verification.confidence.lower);
    EXPECT_EQ(parallel.is_verification.confidence.upper,
              serial.is_verification.confidence.upper);
    EXPECT_EQ(parallel.counts.optimization, serial.counts.optimization);
    EXPECT_EQ(parallel.counts.verification, serial.counts.verification);
    EXPECT_EQ(parallel.counts.constraint, serial.counts.constraint);
    EXPECT_EQ(parallel.counts.cache_hits, serial.counts.cache_hits);
  }
}

}  // namespace
}  // namespace mayo::core
