#include "stats/sampler.hpp"

#include <stdexcept>

#include "stats/rng.hpp"

// Whitelisted space crossing (see linalg/spaces.hpp): this file mints
// StatUnit values -- the samples are N(0, I) by construction.

namespace mayo::stats {

SampleSet::SampleSet(std::size_t count, std::size_t dim, std::uint64_t seed)
    : samples_(count, dim) {
  if (count == 0 || dim == 0)
    throw std::invalid_argument("SampleSet: count and dim must be positive");
  Rng rng(seed);
  for (std::size_t j = 0; j < count; ++j) {
    double* row = samples_.row(j);
    for (std::size_t i = 0; i < dim; ++i) row[i] = rng.normal();
  }
}

SampleSet::SampleSet(std::size_t count, std::uint64_t seed,
                     const linalg::StatUnitVec& shift, bool alternate)
    : SampleSet(count, shift.size(), seed) {
  for (std::size_t j = 0; j < count; ++j) {
    double* row = samples_.row(j);
    if (alternate && j % 2 == 1) {
      for (std::size_t i = 0; i < shift.size(); ++i) row[i] -= shift[i];
    } else {
      for (std::size_t i = 0; i < shift.size(); ++i) row[i] += shift[i];
    }
  }
}

linalg::StatUnitVec SampleSet::sample_vector(std::size_t j) const {
  linalg::StatUnitVec v(dim());
  const double* row = sample(j);
  for (std::size_t i = 0; i < dim(); ++i) v[i] = row[i];
  return v;
}

linalg::StatUnitBlock SampleSet::block(std::size_t first,
                                       std::size_t count) const {
  if (first + count > this->count())
    throw std::out_of_range("SampleSet::block: range out of bounds");
  return linalg::StatUnitBlock(
      linalg::ConstMatrixView(samples_).middle_rows(first, count));
}

double SampleSet::dot(std::size_t j, const linalg::StatUnitVec& g) const {
  if (g.size() != dim()) throw std::invalid_argument("SampleSet::dot: size mismatch");
  const double* row = sample(j);
  double acc = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) acc += row[i] * g[i];
  return acc;
}

}  // namespace mayo::stats
