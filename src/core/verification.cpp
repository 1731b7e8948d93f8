#include "core/verification.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/check.hpp"
#include "obs/obs.hpp"
#include "stats/sampler.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::Vector;

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

VerificationResult monte_carlo_verify(
    Evaluator& evaluator, const DesignVec& d,
    const std::vector<OperatingVec>& theta_wc,
    const VerificationOptions& options) {
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
  const std::size_t block_size = std::min(
      std::max<std::size_t>(options.block_size, 1), samples.count());
  const std::size_t evals_before = evaluator.counts().verification;
  const auto& specs = evaluator.problem().specs;
  obs::Counters& tallies = obs::registry().counters;

  VerificationResult result;
  if (options.record_decisions) result.sample_pass.assign(samples.count(), 0);
  result.fails_per_spec.assign(num_specs, 0);

  // Performance values at every distinct corner (row = sample), the
  // blocks evaluated kBatchBlocks at a time as one batch: block-major, one
  // batch block per distinct operating corner (eq. 6-7; evaluations
  // shared between specs of a corner group).  A batch gives the pool
  // enough requests to keep every thread busy while memory stays bounded
  // whatever num_samples is.
  constexpr std::size_t kBatchBlocks = 64;
  const std::size_t batch_rows =
      std::min(kBatchBlocks * block_size, samples.count());
  std::vector<Matrixd> corner_values(grouping.distinct.size(),
                                     Matrixd(batch_rows, num_specs));
  std::vector<EvalBlock> blocks;
  EvalWorkspace ws;
  // Accumulation is sample-major in ascending order, so the running
  // statistics fold values in exactly the scalar loop's sequence.
  std::vector<stats::RunningStats> perf_stats(num_specs);
  std::size_t passing = 0;
  for (std::size_t base = 0; base < samples.count(); base += batch_rows) {
    const std::size_t rows = std::min(batch_rows, samples.count() - base);
    blocks.clear();
    for (std::size_t first = 0; first < rows; first += block_size) {
      const std::size_t count = std::min(block_size, rows - first);
      for (std::size_t g = 0; g < grouping.distinct.size(); ++g)
        blocks.push_back(
            {&d, samples.block(base + first, count), &grouping.distinct[g],
             linalg::PerfBlockView(
                 MatrixView(corner_values[g]).middle_rows(first, count))});
      tallies.mc_blocks.add();
      tallies.mc_samples.add(count);
    }
    evaluator.performances_blocks(blocks, ws, Budget::kVerification);

    for (std::size_t r = 0; r < rows; ++r) {
      bool pass = true;
      for (std::size_t i = 0; i < num_specs; ++i) {
        const double value = corner_values[grouping.group_of_spec[i]](r, i);
        MAYO_CHECK_FINITE(value, "monte_carlo_verify: performance sample");
        perf_stats[i].add(value);
        if (specs[i].margin(value) < 0.0) {
          ++result.fails_per_spec[i];
          pass = false;
        }
      }
      passing += pass ? 1 : 0;
      if (options.record_decisions) result.sample_pass[base + r] = pass;
    }
  }

  result.evaluations = evaluator.counts().verification - evals_before;
  result.yield = static_cast<double>(passing) / samples.count();
  result.confidence = stats::yield_confidence(passing, samples.count());
  result.performance_mean.resize(num_specs);
  result.performance_stddev.resize(num_specs);
  for (std::size_t i = 0; i < num_specs; ++i) {
    result.performance_mean[i] = perf_stats[i].mean();
    result.performance_stddev[i] = perf_stats[i].stddev();
  }
  return result;
}

}  // namespace mayo::core
