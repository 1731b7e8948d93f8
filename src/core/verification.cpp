#include "core/verification.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/check.hpp"
#include "core/worker_pool.hpp"
#include "obs/obs.hpp"
#include "stats/sampler.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::Vector;

namespace detail {

BlockVerifier::BlockVerifier(Evaluator& evaluator,
                             const CornerGrouping& grouping,
                             std::size_t block_size)
    : evaluator_(evaluator), grouping_(grouping) {
  const std::size_t num_specs = evaluator.num_specs();
  corner_values_.reserve(grouping.distinct.size());
  for (std::size_t g = 0; g < grouping.distinct.size(); ++g)
    corner_values_.emplace_back(std::max<std::size_t>(block_size, 1),
                                num_specs);
  fails_per_spec_.assign(num_specs, 0);
  perf_stats_.resize(num_specs);
}

void BlockVerifier::run_block(const DesignVec& d,
                              const stats::SampleSet& samples,
                              std::size_t first, std::size_t count,
                              std::vector<std::uint8_t>* sample_pass) {
  if (count == 0) return;
  const std::size_t num_specs = evaluator_.num_specs();
  const linalg::StatUnitBlock block = samples.block(first, count);
  // Corner-major evaluation: one batch call per distinct operating corner
  // (eq. 6-7; evaluations shared between specs of a corner group).
  for (std::size_t g = 0; g < grouping_.distinct.size(); ++g) {
    Matrixd& values = corner_values_[g];
    if (values.rows() < count)
      values = Matrixd(count, num_specs);  // hot-ok: grow-only, reused
    evaluator_.performances_batch(
        d, block, grouping_.distinct[g],
        linalg::PerfBlockView(MatrixView(values).middle_rows(0, count)), ws_,
        Budget::kVerification);
  }
  // Accumulation stays sample-major in ascending order so the running
  // statistics fold values in exactly the scalar loop's sequence.
  const auto& specs = evaluator_.problem().specs;
  for (std::size_t r = 0; r < count; ++r) {
    bool pass = true;
    for (std::size_t i = 0; i < num_specs; ++i) {
      const double value = corner_values_[grouping_.group_of_spec[i]](r, i);
      MAYO_CHECK_FINITE(value, "monte_carlo_verify: performance sample");
      perf_stats_[i].add(value);
      if (specs[i].margin(value) < 0.0) {
        ++fails_per_spec_[i];
        pass = false;
      }
    }
    passing_ += pass ? 1 : 0;
    if (sample_pass != nullptr) (*sample_pass)[first + r] = pass ? 1 : 0;
  }
  obs::Counters& tallies = obs::registry().counters;
  tallies.mc_blocks.add();
  tallies.mc_samples.add(count);
}

}  // namespace detail

CornerGrouping group_corners(const std::vector<OperatingVec>& theta_wc) {
  CornerGrouping grouping;
  grouping.group_of_spec.resize(theta_wc.size());
  for (std::size_t i = 0; i < theta_wc.size(); ++i) {
    bool found = false;
    for (std::size_t g = 0; g < grouping.distinct.size(); ++g) {
      if (grouping.distinct[g] == theta_wc[i]) {
        grouping.group_of_spec[i] = g;
        found = true;
        break;
      }
    }
    if (!found) {
      grouping.group_of_spec[i] = grouping.distinct.size();
      grouping.distinct.push_back(theta_wc[i]);
    }
  }
  return grouping;
}

namespace {

/// One worker's share of a verification run; merged in worker order.
struct WorkerResult {
  std::size_t passing = 0;
  std::vector<std::size_t> fails_per_spec;
  std::vector<stats::RunningStats> perf_stats;
  std::size_t evaluations = 0;  ///< spent on the worker's evaluator
};

/// Runs sample blocks t, t + stride, ... through a BlockVerifier on
/// `evaluator` (the caller's, or a worker's own).
WorkerResult verify_blocks(Evaluator& evaluator, const DesignVec& d,
                           const stats::SampleSet& samples,
                           const CornerGrouping& grouping,
                           std::size_t block_size, unsigned t, unsigned stride,
                           std::vector<std::uint8_t>* decisions) {
  const std::size_t evals_before = evaluator.counts().verification;
  detail::BlockVerifier verifier(evaluator, grouping, block_size);
  for (std::size_t b = t; b * block_size < samples.count(); b += stride) {
    const std::size_t first = b * block_size;
    const std::size_t count = std::min(block_size, samples.count() - first);
    verifier.run_block(d, samples, first, count, decisions);
  }
  WorkerResult out;
  out.passing = verifier.passing();
  out.fails_per_spec = verifier.fails_per_spec();
  out.perf_stats = verifier.perf_stats();
  out.evaluations = evaluator.counts().verification - evals_before;
  return out;
}

}  // namespace

VerificationResult monte_carlo_verify(
    Evaluator& evaluator, const DesignVec& d,
    const std::vector<OperatingVec>& theta_wc,
    const VerificationOptions& options) {
  const YieldProblem& problem = evaluator.problem();
  const std::size_t num_specs = evaluator.num_specs();
  if (theta_wc.size() != num_specs)
    throw std::invalid_argument("monte_carlo_verify: theta_wc size mismatch");
  if (options.num_samples == 0)
    throw std::invalid_argument(
        "monte_carlo_verify: num_samples must be positive (a zero-sample "
        "run has no yield estimate and would divide by zero)");
  const obs::Span span(obs::registry().phases.verification);

  const CornerGrouping grouping = group_corners(theta_wc);
  const stats::SampleSet samples(options.num_samples,
                                 evaluator.num_statistical(), options.seed);
  const std::size_t block_size = std::max<std::size_t>(options.block_size, 1);

  VerificationResult result;
  // Per-sample decisions: workers own disjoint strided blocks, so writing
  // directly into the shared vector is race-free (distinct memory
  // locations; verified under TSan by test_core_parallel_determinism).
  if (options.record_decisions) result.sample_pass.assign(samples.count(), 0);
  std::vector<std::uint8_t>* decisions =
      options.record_decisions ? &result.sample_pass : nullptr;

  const unsigned threads = resolve_threads(options.threads, samples.count());
  const bool threaded = threads > 1 && problem.model->clone() != nullptr;
  std::vector<WorkerResult> worker_results(threaded ? threads : 1);
  if (!threaded) {
    // One worker on the caller's evaluator: its counters and probe cache
    // see every evaluation directly.
    worker_results[0] = verify_blocks(evaluator, d, samples, grouping,
                                      block_size, 0, 1, decisions);
  } else {
    run_workers(threads, [&](unsigned t) {  // parallel-entry
      // Thread-local copy of the problem with a cloned model.
      YieldProblem local = problem;
      local.model = std::shared_ptr<PerformanceModel>(problem.model->clone());
      Evaluator local_evaluator(local);
      worker_results[t] = verify_blocks(local_evaluator, d, samples, grouping,
                                        block_size, t, threads, decisions);
    });
    std::size_t worker_evaluations = 0;
    for (const WorkerResult& wr : worker_results)
      worker_evaluations += wr.evaluations;
    evaluator.charge_verification(worker_evaluations);
  }

  // Deterministic merge (worker order is fixed; merging one worker into
  // empty accumulators copies it exactly).
  result.fails_per_spec.assign(num_specs, 0);
  std::vector<stats::RunningStats> merged(num_specs);
  std::size_t passing = 0;
  for (const WorkerResult& wr : worker_results) {
    passing += wr.passing;
    result.evaluations += wr.evaluations;
    for (std::size_t i = 0; i < num_specs; ++i) {
      result.fails_per_spec[i] += wr.fails_per_spec[i];
      merged[i].merge(wr.perf_stats[i]);
    }
  }
  result.yield = static_cast<double>(passing) / samples.count();
  result.confidence = stats::yield_confidence(passing, samples.count());
  result.performance_mean.resize(num_specs);
  result.performance_stddev.resize(num_specs);
  for (std::size_t i = 0; i < num_specs; ++i) {
    result.performance_mean[i] = merged[i].mean();
    result.performance_stddev[i] = merged[i].stddev();
  }
  return result;
}

}  // namespace mayo::core
