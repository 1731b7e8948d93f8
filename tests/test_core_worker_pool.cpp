// The evaluation pool (core/worker_pool.hpp) and the request shape the
// Evaluator gives the model at each thread count.
#include "core/worker_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/optimizer.hpp"
#include "synthetic_problem.hpp"

namespace mayo::core {
namespace {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::StatUnitVec;

/// One performance, f = s[0]; throws when s[0] is listed in `throw_at`.
class RowModel final : public PerformanceModel {
 public:
  explicit RowModel(std::vector<double> throw_at)
      : throw_at_(std::move(throw_at)) {}
  std::size_t num_performances() const override { return 1; }
  std::size_t num_constraints() const override { return 1; }
  linalg::PerfVec evaluate(const DesignVec&, const linalg::StatPhysVec& s,
                           const OperatingVec&) override {
    for (const double x : throw_at_)
      if (s[0] == x)
        throw std::runtime_error("row " + std::to_string(static_cast<int>(x)));
    return linalg::PerfVec{s[0]};
  }
  linalg::Vector constraints(const DesignVec&) override {
    return linalg::Vector(1, 1.0);
  }
  std::unique_ptr<PerformanceModel> clone() const override {
    return std::make_unique<RowModel>(throw_at_);
  }

 private:
  std::vector<double> throw_at_;
};

/// Runs rows 0 .. rows-1 (s row r = r) through `pool` as requests of
/// `group` rows (scalar requests when group is 1); returns f per row.
std::vector<double> run_rows(EvaluationPool& pool, std::size_t rows,
                             std::size_t group = 1) {
  const DesignVec d{0.0};
  const OperatingVec theta{0.0};
  Matrixd s(rows, 1);
  Matrixd values(rows, 1);
  for (std::size_t r = 0; r < rows; ++r) s(r, 0) = static_cast<double>(r);
  std::vector<ModelRequest> requests;
  for (std::size_t first = 0; first < rows; first += group)
    requests.push_back({&d, &theta, first, std::min(group, rows - first),
                        group == 1});
  pool.run(requests, linalg::StatPhysBlock(linalg::ConstMatrixView(s)),
           linalg::PerfBlockView(MatrixView(values)));
  std::vector<double> out(rows);
  for (std::size_t r = 0; r < rows; ++r) out[r] = values(r, 0);
  return out;
}

std::unique_ptr<EvaluationPool> make_pool(unsigned threads,
                                          std::vector<double> throw_at) {
  std::vector<std::unique_ptr<PerformanceModel>> models;
  for (unsigned t = 0; t < threads; ++t)
    models.push_back(std::make_unique<RowModel>(throw_at));
  return std::make_unique<EvaluationPool>(std::move(models));
}

TEST(EvaluationPool, EvaluatesEveryRow) {
  const auto pool = make_pool(3, {});
  EXPECT_EQ(pool->size(), 3u);
  for (const std::size_t rows : {std::size_t{1}, std::size_t{2},
                                 std::size_t{7}, std::size_t{100}}) {
    for (const std::size_t group : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<double> out = run_rows(*pool, rows, group);
      for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(out[r], static_cast<double>(r));
    }
  }
  EXPECT_TRUE(run_rows(*pool, 0).empty());
}

TEST(EvaluationPool, RethrowsLowestFailingRowAndStaysUsable) {
  // Rows 37 and 73 throw; whichever worker hits which first, the caller
  // sees the error of the lowest failing request (row 37's).
  const auto pool = make_pool(4, {37.0, 73.0});
  for (int attempt = 0; attempt < 5; ++attempt) {
    for (const std::size_t group : {std::size_t{1}, std::size_t{4}}) {
      try {
        (void)run_rows(*pool, 100, group);
        ADD_FAILURE() << "no exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "row 37");
      }
    }
  }
  // The pool survives: a batch without failing rows completes.
  const std::vector<double> out = run_rows(*pool, 30);
  for (std::size_t r = 0; r < out.size(); ++r)
    EXPECT_EQ(out[r], static_cast<double>(r));
}

TEST(EvaluationPool, EvaluatorBatchErrorLeavesCacheAndCountsAlone) {
  YieldProblem problem;
  problem.model = std::make_shared<RowModel>(std::vector<double>{5.0});
  problem.specs = {{"f", SpecKind::kLowerBound, 0.0, "u", 1.0}};
  problem.design.names = {"d"};
  problem.design.lower = linalg::Vector{0.0};
  problem.design.upper = linalg::Vector{1.0};
  problem.design.nominal = linalg::Vector{0.5};
  problem.operating.names = {"t"};
  problem.operating.lower = linalg::Vector{0.0};
  problem.operating.upper = linalg::Vector{1.0};
  problem.operating.nominal = linalg::Vector{0.5};
  problem.statistical.add(stats::StatParam::global("s", 0.0, 1.0));
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    Evaluator ev(problem);
    ev.set_threads(threads);
    const DesignVec d{0.5};
    const OperatingVec theta{0.5};
    std::vector<StatUnitVec> s;
    for (int r = 0; r < 8; ++r) s.push_back(StatUnitVec{static_cast<double>(r)});
    std::vector<EvalPoint> points;
    for (const StatUnitVec& x : s) points.push_back({&d, &x, &theta});
    EXPECT_THROW((void)ev.margins_at(points), std::runtime_error);
    EXPECT_EQ(ev.counts().optimization, 0u);
    EXPECT_EQ(ev.cache_size(), 0u);
    points.erase(points.begin() + 5);  // drop the failing row
    const Matrixd m = ev.margins_at(points);
    EXPECT_EQ(m(6, 0), 7.0);
    EXPECT_EQ(ev.counts().optimization, 7u);
  }
}

TEST(EvaluationPool, ThreadCountZeroFollowsTheAffinityMask) {
  EXPECT_GE(available_cpus(), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
  EXPECT_EQ(resolve_threads(0), available_cpus());
#if defined(__linux__)
  // Narrow this thread's mask to one CPU; hardware_concurrency() would
  // still report every CPU of the machine.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  int first = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE && first < 0; ++cpu)
    if (CPU_ISSET(cpu, &saved)) first = cpu;
  ASSERT_GE(first, 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const unsigned narrowed = resolve_threads(0);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(narrowed, 1u);
  EXPECT_EQ(resolve_threads(0), static_cast<unsigned>(CPU_COUNT(&saved)));
#endif
}

/// Model requests as the model sees them, across all of its clones.
struct RequestLog {
  std::mutex mutex;
  std::size_t scalar = 0;       ///< evaluate() calls
  std::size_t batch = 0;        ///< evaluate_batch() calls
  std::size_t batch_rows = 0;   ///< rows over all evaluate_batch() calls
  std::size_t on_original = 0;  ///< performance requests on the caller's model
};

class CountingModel final : public PerformanceModel {
 public:
  CountingModel(std::shared_ptr<RequestLog> log, bool original)
      : log_(std::move(log)), original_(original) {}
  std::size_t num_performances() const override { return 2; }
  std::size_t num_constraints() const override { return 2; }
  linalg::PerfVec evaluate(const DesignVec& d, const linalg::StatPhysVec& s,
                           const OperatingVec& theta) override {
    {
      const std::lock_guard<std::mutex> lock(log_->mutex);
      ++log_->scalar;
      log_->on_original += original_ ? 1 : 0;
    }
    return inner_.evaluate(d, s, theta);
  }
  void evaluate_batch(const DesignVec& d, linalg::StatPhysBlock s,
                      const OperatingVec& theta,
                      linalg::PerfBlockView out) override {
    {
      const std::lock_guard<std::mutex> lock(log_->mutex);
      ++log_->batch;
      log_->batch_rows += s.rows();
      log_->on_original += original_ ? 1 : 0;
    }
    inner_.evaluate_batch(d, s, theta, out);
  }
  linalg::Vector constraints(const DesignVec& d) override {
    return inner_.constraints(d);
  }
  std::unique_ptr<PerformanceModel> clone() const override {
    return std::make_unique<CountingModel>(log_, false);
  }

 private:
  std::shared_ptr<RequestLog> log_;
  bool original_;
  testing::SyntheticModel inner_;
};

YieldOptimizerOptions shape_options(unsigned threads) {
  YieldOptimizerOptions options;
  options.max_iterations = 2;
  options.linear_samples = 400;
  options.verification.num_samples = 50;
  options.verification.block_size = 16;
  options.run_is_verification = true;
  options.is_verification.initial_samples = 32;
  options.is_verification.round_samples = 16;
  options.is_verification.max_rounds = 2;
  options.is_verification.block_size = 8;
  options.linearization_threads = threads;
  return options;
}

TEST(RequestShape, EveryThreadCountIssuesTheSerialRequests) {
  // One scalar evaluate() per optimization evaluation, one evaluate_batch
  // per MC or IS block -- the requests the serial loops issued before the
  // pool existed (their numbers are pinned below).  At more than one
  // thread the same requests go to the pool's clones, and the caller's
  // model sees none.
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    auto problem = testing::make_synthetic_problem(2.0, 1.0);
    const auto log = std::make_shared<RequestLog>();
    problem.model = std::make_shared<CountingModel>(log, true);
    Evaluator ev(problem);
    const YieldOptimizationResult result =
        optimize_yield(ev, shape_options(threads));
    EXPECT_EQ(log->scalar, 379u);
    EXPECT_EQ(log->batch, 36u);
    EXPECT_EQ(log->batch_rows, 396u);
    EXPECT_EQ(log->scalar, result.counts.optimization);
    EXPECT_EQ(log->batch_rows, result.counts.verification);
    EXPECT_EQ(log->on_original,
              threads == 1 ? log->scalar + log->batch : 0u);
  }
}

}  // namespace
}  // namespace mayo::core
