// mayo/core -- simulation-based Monte-Carlo yield verification
// (paper eq. 6-7).
//
// The true parametric operational yield estimate: N standard-normal
// samples, each evaluated with real model evaluations at the respective
// worst-case operating point of every specification.  Evaluations are
// shared between specifications with the same theta_wc, which implements
// the paper's N* <= N * min(n_spec, 2^dim(Theta)) bound.
//
// The paper ran its experiments "on a network (100 Mbit/sec) of 5
// computers in parallel" (Table 7).  The verification is embarrassingly
// parallel over samples: up to 64 sample blocks, each once per corner
// group, form one Evaluator batch (performances_blocks), so with an
// evaluator thread count above 1 the blocks run concurrently on the
// evaluator's pool
// (core/worker_pool.hpp).  Pass/fail decisions and moments are folded on
// the caller in ascending sample order, so every result is bitwise
// identical for every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "stats/summary.hpp"

namespace mayo::core {

struct VerificationOptions {
  std::size_t num_samples = 300;
  std::uint64_t seed = 0xC0FFEE;
  /// Record the pass/fail decision of every sample in
  /// VerificationResult::sample_pass (index = sample).  Off by default:
  /// only aggregate counts are kept.
  bool record_decisions = false;
  /// Samples per batch evaluation.  Purely a throughput knob: results are
  /// bitwise-identical for every block size (the batch path evaluates each
  /// row exactly like a scalar probe, and per-sample statistics are always
  /// accumulated in ascending sample order).
  std::size_t block_size = 32;
};

struct VerificationResult {
  double yield = 0.0;                     ///< fraction of passing samples
  stats::YieldInterval confidence{};      ///< Wilson 95% interval
  std::vector<std::size_t> fails_per_spec;///< samples failing each spec
  /// Per-spec sample mean of the performance value (at theta_wc of the spec).
  std::vector<double> performance_mean;
  /// Per-spec sample standard deviation of the performance value.
  std::vector<double> performance_stddev;
  std::size_t evaluations = 0;            ///< model evaluations spent
  /// Per-sample pass decision (only with record_decisions; else empty).
  std::vector<std::uint8_t> sample_pass;
};

/// Groups specifications by identical worst-case operating point so one
/// evaluation serves all specs of a group (the paper's N* discussion).
struct CornerGrouping {
  std::vector<linalg::OperatingVec> distinct;  ///< unique operating points
  std::vector<std::size_t> group_of_spec;      ///< spec -> index into distinct
};
CornerGrouping group_corners(const std::vector<linalg::OperatingVec>& theta_wc);

/// Runs the verification at design d with the given per-spec worst-case
/// operating points (index = spec).
VerificationResult monte_carlo_verify(
    Evaluator& evaluator, const linalg::DesignVec& d,
    const std::vector<linalg::OperatingVec>& theta_wc,
    const VerificationOptions& options = {});

}  // namespace mayo::core
