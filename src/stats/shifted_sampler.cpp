#include "stats/shifted_sampler.hpp"

#include <cmath>
#include <stdexcept>

namespace mayo::stats {

ShiftedSampler::ShiftedSampler(std::size_t count, const linalg::StatUnitVec& mu,
                               std::uint64_t seed, bool two_lobe)
    : mu_(mu), samples_(count, seed, mu, two_lobe), log_weights_(count) {
  // (SampleSet's shifted constructor already rejects count == 0 and an
  // empty mu via its count/dim contract.)
  const double half_mu2 = 0.5 * dot(mu_, mu_);
  if (!two_lobe) {
    for (std::size_t j = 0; j < count; ++j)
      log_weights_[j] = half_mu2 - samples_.dot(j, mu_);
    return;
  }
  // Lobe shares of the alternating draws: even indices (+mu) get the
  // extra draw of an odd count.
  const double n = static_cast<double>(count);
  const double a_plus = static_cast<double>((count + 1) / 2) / n;
  const double a_minus = static_cast<double>(count / 2) / n;
  for (std::size_t j = 0; j < count; ++j) {
    // log(a+ e^t + a- e^-t), factoring out the larger exponential so
    // neither term overflows.
    const double t = samples_.dot(j, mu_);
    const double log_mix =
        t >= 0.0 ? t + std::log(a_plus + a_minus * std::exp(-2.0 * t))
                 : -t + std::log(a_minus + a_plus * std::exp(2.0 * t));
    log_weights_[j] = half_mu2 - log_mix;
  }
}

double ShiftedSampler::weight(std::size_t j) const {
  return std::exp(log_weights_[j]);
}

}  // namespace mayo::stats
