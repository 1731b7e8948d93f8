// mayo/stats -- fixed Monte-Carlo sample sets (common random numbers).
//
// The yield-improvement loop (paper Sec. 5.3) evaluates a *predefined*
// number N of Monte-Carlo samples on the linearized performance models and
// keeps those samples fixed while the design d moves.  This makes the yield
// estimate a deterministic function of d (differences between designs are
// not polluted by resampling noise) and enables the O(1) incremental
// update per coordinate move (eq. 20).
#pragma once

#include <cstddef>
#include <cstdint>

#include "linalg/block.hpp"
#include "linalg/matrix.hpp"
#include "linalg/spaces.hpp"
#include "linalg/vector.hpp"

namespace mayo::stats {

/// An immutable block of N standard-normal sample vectors of dimension n.
/// Space discipline: this is one of the two places that may MINT StatUnit
/// values (the other being Evaluator::nominal_s_hat) -- the StatUnit tag
/// asserts the unit-sigma uncorrelated *coordinate frame* of eq. (11),
/// which holds for the plain N(0, I) draws and equally for the
/// mean-shifted proposal draws of the importance-sampling verifier (the
/// likelihood ratios of stats::ShiftedSampler correct the distribution;
/// the coordinates never leave the frame).
class SampleSet {
 public:
  /// Draws `count` samples of dimension `dim` from N(0, I) with the given seed.
  SampleSet(std::size_t count, std::size_t dim, std::uint64_t seed);

  /// Draws `count` samples of dimension shift.size() from N(shift, I):
  /// the same N(0, I) stream as the unshifted constructor with the same
  /// seed, translated row-wise by `shift` (the importance-sampling
  /// proposal of stats::ShiftedSampler).  With `alternate`, odd rows are
  /// translated by -shift instead (the two-lobe proposal).
  SampleSet(std::size_t count, std::uint64_t seed,
            const linalg::StatUnitVec& shift, bool alternate = false);

  std::size_t count() const { return samples_.rows(); }
  std::size_t dim() const { return samples_.cols(); }

  /// Row pointer for sample j (length dim()).
  const double* sample(std::size_t j) const { return samples_.row(j); }
  /// Copy of sample j as a unit-normal vector.
  linalg::StatUnitVec sample_vector(std::size_t j) const;

  /// Inner product of sample j with `g` (g.size() == dim()).
  double dot(std::size_t j, const linalg::StatUnitVec& g) const;

  /// The whole sample matrix (count x dim, row = sample), untyped for
  /// linalg interop (gemv in the yield model).
  const linalg::Matrixd& matrix() const { return samples_; }

  /// Zero-copy view of `count` consecutive samples starting at `first`
  /// (the block fill API of the batched evaluation spine).
  linalg::StatUnitBlock block(std::size_t first, std::size_t count) const;

 private:
  linalg::Matrixd samples_;
};

}  // namespace mayo::stats
