// mayo/stats -- mean-shifted proposal sampler for importance-sampled
// yield verification (ISLE-style worst-case mean shift; see
// core/is_verification.hpp for the estimator built on top).
//
// Draws s_j = z_j + mu with z ~ N(0, I) and carries the exact
// standard-normal likelihood ratio of every draw,
//
//   w(s) = phi(s) / phi_mu(s) = exp(mu^T mu / 2 - mu^T s) .
//
// The two-lobe variant (for performances that fail on both sides of the
// nominal point, eq. 21-22) alternates the draws between the lobes,
// s_j = z_j + mu for even j and z_j - mu for odd j, i.e. it samples the
// mixture q = a+ N(mu, I) + a- N(-mu, I) with a+/a- the lobe shares of
// the count (1/2 each for an even count), and carries the exact mixture
// ratio
//
//   w(s) = phi(s) / q(s) = exp(mu^T mu / 2) / (a+ e^{t} + a- e^{-t}) ,
//   t = mu^T s .
//
// Both are computed in log form alongside the block, so the estimator layer never
// re-derives densities from sample coordinates.  Reuses the SampleSet
// spine: the draws are tagged StatUnit because they live in the s_hat
// coordinate frame of eq. (11); only their *distribution* is shifted,
// which is exactly what the weights correct for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/spaces.hpp"
#include "stats/sampler.hpp"

namespace mayo::stats {

class ShiftedSampler {
 public:
  /// `count` draws from N(mu, I) -- or, with `two_lobe`, alternately
  /// from N(mu, I) and N(-mu, I) -- with the given seed (count > 0, mu
  /// non-empty; throws std::invalid_argument otherwise).  The base
  /// N(0, I) stream is the one SampleSet(count, mu.size(), seed) draws.
  ShiftedSampler(std::size_t count, const linalg::StatUnitVec& mu,
                 std::uint64_t seed, bool two_lobe = false);

  std::size_t count() const { return samples_.count(); }
  std::size_t dim() const { return samples_.dim(); }
  const linalg::StatUnitVec& shift() const { return mu_; }

  /// The shifted draws; block() feeds the batched evaluation spine
  /// exactly like a plain SampleSet.
  const SampleSet& samples() const { return samples_; }

  /// Exact log-likelihood ratio log w(s_j) of draw j (see above).
  double log_weight(std::size_t j) const { return log_weights_[j]; }

  /// w(s_j) = exp(log_weight(j)).  Underflows to 0 for draws far on the
  /// shifted side; the low-ESS diagnostic of the estimator layer flags the
  /// resulting weight degeneration.
  double weight(std::size_t j) const;

 private:
  linalg::StatUnitVec mu_;
  SampleSet samples_;
  std::vector<double> log_weights_;
};

}  // namespace mayo::stats
