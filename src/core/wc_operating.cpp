#include "core/wc_operating.hpp"

#include <limits>
#include <stdexcept>

namespace mayo::core {

using linalg::DesignVec;
using linalg::OperatingVec;
using linalg::StatUnitVec;

namespace {
/// Enumerates the vertices of the operating box (2^dim of them).
std::vector<OperatingVec> operating_corners(const ParameterSpace& space) {
  const std::size_t dim = space.dimension();
  if (dim > 16)
    throw std::invalid_argument(
        "find_worst_case_operating: operating dimension too large for corner "
        "enumeration");
  std::vector<OperatingVec> corners;
  const std::size_t count = static_cast<std::size_t>(1) << dim;
  corners.reserve(count);
  for (std::size_t mask = 0; mask < count; ++mask) {
    OperatingVec corner(dim);
    for (std::size_t i = 0; i < dim; ++i)
      corner[i] = (mask >> i) & 1 ? space.upper[i] : space.lower[i];
    corners.push_back(std::move(corner));
  }
  return corners;
}
}  // namespace

WcOperatingResult find_worst_case_operating(Evaluator& evaluator,
                                            const DesignVec& d,
                                            const WcOperatingOptions& options) {
  const auto& operating = evaluator.problem().operating;
  const std::size_t num_specs = evaluator.num_specs();
  const StatUnitVec s0 = evaluator.nominal_s_hat();

  std::vector<OperatingVec> candidates = operating_corners(operating);
  candidates.push_back(evaluator.nominal_theta());

  WcOperatingResult result;
  result.theta_wc.assign(num_specs, evaluator.nominal_theta());
  result.worst_margin.assign(num_specs,
                             std::numeric_limits<double>::infinity());

  const auto consider = [&](const OperatingVec& theta, const double* m) {
    for (std::size_t i = 0; i < num_specs; ++i) {
      if (m[i] < result.worst_margin[i]) {
        result.worst_margin[i] = m[i];
        result.theta_wc[i] = theta;
      }
    }
  };

  // Every candidate corner is one point of a single batch.
  std::vector<EvalPoint> points;
  points.reserve(candidates.size());
  for (const OperatingVec& corner : candidates)
    points.push_back({&d, &s0, &corner});
  const linalg::Matrixd corner_margins = evaluator.margins_at(points);
  for (std::size_t c = 0; c < candidates.size(); ++c)
    consider(candidates[c], corner_margins.row(c));

  if (options.coordinate_refinement) {
    // One coordinate sweep per spec winner: probe the midpoint of each
    // operating coordinate while holding the others at the current worst
    // case.  Catches interior minimizers of weakly non-monotonic specs.
    for (std::size_t i = 0; i < num_specs; ++i) {
      OperatingVec theta = result.theta_wc[i];
      for (std::size_t k = 0; k < operating.dimension(); ++k) {
        OperatingVec probe = theta;
        probe[k] = 0.5 * (operating.lower[k] + operating.upper[k]);
        consider(probe, evaluator.margins(d, s0, probe).data());
      }
    }
  }

  return result;
}

}  // namespace mayo::core
