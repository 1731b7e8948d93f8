#include "core/is_verification.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"
#include "obs/obs.hpp"
#include "stats/rng.hpp"

namespace mayo::core {

using linalg::DesignVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;

namespace detail {

void IsAccumulator::add(bool fail, double w) {
  MAYO_CHECK_FINITE(w, "importance_sample_verify: likelihood ratio");
  ++count;
  if (fail) {
    ++fails;
    sum_fw += w;
    sum_fw2 += w * w;
  }
}

void IsAccumulator::merge(const IsAccumulator& other) {
  count += other.count;
  fails += other.fails;
  sum_fw += other.sum_fw;
  sum_fw2 += other.sum_fw2;
}

double IsAccumulator::ess() const {
  return sum_fw2 > 0.0 ? sum_fw * sum_fw / sum_fw2 : 0.0;
}

SpecIsEstimate finalize_estimate(std::size_t spec, const IsAccumulator& acc,
                                 double shift_norm, double lobe_share,
                                 const IsVerificationOptions& options) {
  SpecIsEstimate estimate;
  estimate.spec = spec;
  estimate.samples = acc.count;
  estimate.fails = acc.fails;
  estimate.shift_norm = shift_norm;
  estimate.ess = acc.ess();
  if (acc.count == 0) {
    // No draws: no information.  Vacuous interval.
    estimate.lower = 0.0;
    estimate.upper = 1.0;
    return estimate;
  }
  const double n = static_cast<double>(acc.count);
  if (!(estimate.ess > 0.0)) {
    // No failing draw (or every failing weight underflowed).  The Wilson
    // upper bound at the raw count caps the proposal-mass a miss could
    // hide, but each missed failure enters p_hat with its likelihood
    // ratio, and over the linearized failure region the ratio is bounded.
    // A single shift (mu = s_wc) covers the half-space {mu . s >= beta^2}:
    //   w(s) = exp(|mu|^2/2 - mu . s) <= exp(-|mu|^2 / 2).
    // The two-lobe mixture covers {t >= beta^2} and {t <= -beta^2}
    // (t = mu . s), where
    //   w(s) = exp(|mu|^2/2) / (a+ e^t + a- e^-t)
    //       <= exp(-|mu|^2 / 2) / min(a+, a-).
    // Scaling the Wilson bound by that cap keeps a far-out spec (beta
    // large, zero observed failures) from dominating the yield bracket --
    // the one model-assisted step in the CI; see DESIGN.md section 13.  A
    // zero shift degrades the cap to 1, i.e. back to the assumption-free
    // plain Wilson bound, and so does a lobe no draw was centred on.
    estimate.fail_probability = 0.0;
    const stats::YieldInterval ci =
        stats::weighted_yield_confidence(0.0, n, options.z);
    const double weight_cap =
        lobe_share > 0.0
            ? std::min(1.0, std::exp(-0.5 * shift_norm * shift_norm) /
                                lobe_share)
            : 1.0;
    estimate.lower = ci.lower;
    estimate.upper = std::min(1.0, ci.upper * weight_cap);
    return estimate;
  }

  // Degeneracy diagnostic: weight-effective count of FAILING draws.  (The
  // all-draws ESS decays like n e^{-beta^2} even for a healthy shift --
  // the big weights live where f = 0 and never touch p_hat -- so it
  // would misfire exactly in the high-beta regime.)  Even the failing
  // draws' weights spread with beta: a healthy shift of a linear spec has
  // ESS_f / n_f -> 4 phi(0) / beta ~ 1.6 / beta (DESIGN.md section 13),
  // so the threshold is a share of that healthy value, not of n_f.
  const double healthy_share = shift_norm > 1.6 ? 1.6 / shift_norm : 1.0;
  estimate.low_ess = estimate.ess < kLowEssFraction * healthy_share *
                                        static_cast<double>(acc.fails);

  // Unbiased likelihood-ratio estimate and the variance of its mean,
  // (1/n) * sample variance of the terms f w.
  const double p_unbiased = acc.sum_fw / n;
  estimate.fail_probability = std::clamp(p_unbiased, 0.0, 1.0);
  const double var_mean =
      std::max(acc.sum_fw2 / n - p_unbiased * p_unbiased, 0.0) / n;

  // Wilson-analogue interval at the variance-matched effective count
  // n_eff = p (1 - p) / Var(p_hat); for unit weights this recovers the
  // plain Wilson interval at n exactly.  Degenerate variance (all terms
  // equal) or a clamped endpoint fall back to the raw count.
  const double p = estimate.fail_probability;
  double n_eff = n;
  if (var_mean > 0.0 && p > 0.0 && p < 1.0) n_eff = p * (1.0 - p) / var_mean;
  const stats::YieldInterval ci =
      stats::weighted_yield_confidence(p, n_eff, options.z);
  estimate.lower = std::min(ci.lower, p);
  estimate.upper = std::max(ci.upper, p);
  return estimate;
}

}  // namespace detail

namespace {

/// One (spec, round) allocation: its sub-stream's draws and their
/// performance values (row = draw).
struct Round {
  Round(std::size_t spec, std::uint64_t round_id, std::size_t count,
        const WorstCasePoint& wc, std::size_t num_specs,
        const IsVerificationOptions& options)
      : spec(spec),
        sampler(count, wc.s_wc,
                stats::substream_seed(options.seed, spec, round_id),
                wc.mirrored),
        values(count, num_specs) {}

  std::size_t spec;
  stats::ShiftedSampler sampler;
  Matrixd values;
};

/// Evaluates the rounds' draws as one batch -- one block of block_size
/// draws at a time, each at its spec's own worst-case corner -- then
/// folds every round into totals[spec]: each block's (fail, weight) pairs
/// into a block accumulator in ascending draw order, the blocks in
/// ascending order.
void run_rounds(Evaluator& evaluator, const DesignVec& d,
                std::vector<Round>& rounds,
                const std::vector<OperatingVec>& theta_wc,
                const IsVerificationOptions& options, EvalWorkspace& ws,
                std::vector<detail::IsAccumulator>& totals) {
  const std::size_t block_size = std::max<std::size_t>(options.block_size, 1);
  std::vector<EvalBlock> blocks;
  for (Round& round : rounds) {
    const std::size_t count = round.sampler.count();
    for (std::size_t first = 0; first < count;
         first += std::min(block_size, count - first)) {
      const std::size_t n = std::min(block_size, count - first);
      blocks.push_back(
          {&d, round.sampler.samples().block(first, n),
           &theta_wc[round.spec],
           linalg::PerfBlockView(MatrixView(round.values).middle_rows(first, n))});
    }
  }
  evaluator.performances_blocks(blocks, ws, Budget::kVerification);

  obs::Counters& tallies = obs::registry().counters;
  for (const Round& round : rounds) {
    const Specification& spec_def = evaluator.problem().specs[round.spec];
    const std::size_t count = round.sampler.count();
    for (std::size_t first = 0; first < count;
         first += std::min(block_size, count - first)) {
      const std::size_t n = std::min(block_size, count - first);
      detail::IsAccumulator block;
      for (std::size_t r = first; r < first + n; ++r) {
        const double value = round.values(r, round.spec);
        MAYO_CHECK_FINITE(value,
                          "importance_sample_verify: performance sample");
        block.add(spec_def.margin(value) < 0.0, round.sampler.weight(r));
      }
      totals[round.spec].merge(block);
      tallies.mc_is_blocks.add();
      tallies.mc_is_samples.add(n);
    }
  }
}

/// The smallest share of a round's draws centred on one failure lobe of
/// the spec (finalize_estimate's `lobe_share`): 1 for a single shift; the
/// two-lobe sampler puts draw j on -mu for odd j, i.e. floor(n / 2) of a
/// round's n draws, so the smallest share over the round sizes in use.
double lobe_share(const WorstCasePoint& wc,
                  const IsVerificationOptions& options) {
  if (!wc.mirrored) return 1.0;
  const auto share = [](std::size_t n) {
    return static_cast<double>(n / 2) / static_cast<double>(n);
  };
  double smallest = share(options.initial_samples);
  if (options.max_rounds > 0)
    smallest = std::min(smallest, share(options.round_samples));
  return smallest;
}

}  // namespace

IsVerificationResult importance_sample_verify(
    Evaluator& evaluator, const DesignVec& d,
    const std::vector<OperatingVec>& theta_wc,
    const std::vector<WorstCasePoint>& worst_cases,
    const IsVerificationOptions& options) {
  const std::size_t num_specs = evaluator.num_specs();
  if (theta_wc.size() != num_specs)
    throw std::invalid_argument(
        "importance_sample_verify: theta_wc size mismatch");
  if (worst_cases.size() != num_specs)
    throw std::invalid_argument(
        "importance_sample_verify: worst_cases size mismatch");
  if (options.initial_samples == 0)
    throw std::invalid_argument(
        "importance_sample_verify: initial_samples must be positive (an "
        "empty round carries no estimate for the allocator to refine)");
  if (options.max_rounds > 0 && options.round_samples == 0)
    throw std::invalid_argument(
        "importance_sample_verify: round_samples must be positive when "
        "adaptive rounds are enabled");
  for (const WorstCasePoint& wc : worst_cases)
    if (wc.s_wc.size() != evaluator.num_statistical())
      throw std::invalid_argument(
          "importance_sample_verify: s_wc dimension mismatch");
  const obs::Span span(obs::registry().phases.is_verification);

  const std::size_t evals_before = evaluator.counts().verification;
  EvalWorkspace ws;

  std::vector<detail::IsAccumulator> totals(num_specs);
  std::vector<SpecIsEstimate> estimates(num_specs);
  obs::Counters& tallies = obs::registry().counters;

  // Round 0: every spec gets its initial allocation (sub-stream
  // (spec, 0)); the specs' rounds are independent, so they form one batch.
  std::vector<Round> batch;
  batch.reserve(num_specs);
  for (std::size_t i = 0; i < num_specs; ++i)
    batch.emplace_back(i, 0, options.initial_samples, worst_cases[i],
                       num_specs, options);
  run_rounds(evaluator, d, batch, theta_wc, options, ws, totals);
  for (std::size_t i = 0; i < num_specs; ++i)
    estimates[i] = detail::finalize_estimate(
        i, totals[i], worst_cases[i].s_wc.norm(),
        lobe_share(worst_cases[i], options), options);

  // Adaptive rounds: spend each round's budget on the spec with the
  // widest failure CI (ties -> lowest index; sub-stream (spec, r)).
  std::size_t rounds = 0;
  for (std::size_t r = 1; r <= options.max_rounds; ++r) {
    std::size_t widest = 0;
    for (std::size_t i = 1; i < num_specs; ++i)
      if (estimates[i].half_width() > estimates[widest].half_width())
        widest = i;
    if (options.target_half_width > 0.0 &&
        estimates[widest].half_width() <= options.target_half_width)
      break;
    batch.clear();
    batch.emplace_back(widest, r, options.round_samples, worst_cases[widest],
                       num_specs, options);
    run_rounds(evaluator, d, batch, theta_wc, options, ws, totals);
    estimates[widest] = detail::finalize_estimate(
        widest, totals[widest], worst_cases[widest].s_wc.norm(),
        lobe_share(worst_cases[widest], options), options);
    ++rounds;
    tallies.mc_is_rounds.add();
  }

  IsVerificationResult result;
  result.rounds = rounds;
  result.per_spec = std::move(estimates);
  double sum_p = 0.0;
  double sum_upper = 0.0;
  double max_lower = 0.0;
  for (const SpecIsEstimate& estimate : result.per_spec) {
    sum_p += estimate.fail_probability;
    sum_upper += estimate.upper;
    max_lower = std::max(max_lower, estimate.lower);
    if (estimate.low_ess) tallies.mc_is_low_ess.add();
  }
  result.yield = std::clamp(1.0 - sum_p, 0.0, 1.0);
  result.confidence = {result.yield, std::clamp(1.0 - sum_upper, 0.0, 1.0),
                       std::clamp(1.0 - max_lower, 0.0, 1.0)};
  result.evaluations = evaluator.counts().verification - evals_before;
  return result;
}

}  // namespace mayo::core
