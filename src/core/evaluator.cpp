#include "core/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/check.hpp"
#include "core/worker_pool.hpp"
#include "obs/obs.hpp"

// Whitelisted space crossing (see linalg/spaces.hpp): the evaluator owns
// the s = G(d) s_hat + s0 application and the Performance -> Margin
// transform, and builds bitwise cache keys from the underlying storage,
// so it legitimately unwraps tagged vectors via .raw().

namespace mayo::core {

using linalg::ConstMatrixView;
using linalg::DesignVec;
using linalg::MarginVec;
using linalg::Matrixd;
using linalg::MatrixView;
using linalg::OperatingVec;
using linalg::PerfVec;
using linalg::StatPhysVec;
using linalg::StatUnitVec;
using linalg::Vector;

Evaluator::Evaluator(YieldProblem& problem) : Evaluator(problem, CacheOptions{}) {}

Evaluator::Evaluator(YieldProblem& problem, const CacheOptions& cache)
    : problem_(problem),
      cache_(cache.capacity, cache.hash),
      // The c(d) cache reports into its own obs group: constraint reuse
      // and performance-probe reuse are different signals when reading a
      // run report.
      constraint_cache_(0, cache.hash,
                        &obs::registry().counters.constraint_cache) {
  problem.validate();
}

Evaluator::~Evaluator() = default;

void Evaluator::set_threads(unsigned threads) {
  const unsigned resolved = resolve_threads(threads);
  if (resolved == threads_) return;
  pool_.reset();
  threads_ = resolved;
}

EvaluationPool* Evaluator::pool() {
  if (threads_ <= 1 || !clonable_) return nullptr;
  if (pool_ == nullptr) {
    std::vector<std::unique_ptr<PerformanceModel>> models;
    models.reserve(threads_);
    for (unsigned t = 0; t < threads_; ++t) {
      models.push_back(problem_.model->clone());
      if (models.back() == nullptr) {
        clonable_ = false;  // simulate on the caller's model from now on
        return nullptr;
      }
    }
    pool_ = std::make_unique<EvaluationPool>(std::move(models));
  }
  return pool_.get();
}

void Evaluator::clear_cache() {
  cache_.clear();
  constraint_cache_.clear();
}

void Evaluator::validate_point(const DesignVec& d, const OperatingVec& theta,
                               std::size_t s_hat_size) const {
  if (d.size() != num_design())
    throw std::invalid_argument("Evaluator: design vector size mismatch");
  if (s_hat_size != num_statistical())
    throw std::invalid_argument("Evaluator: statistical vector size mismatch");
  if (theta.size() != num_operating())
    throw std::invalid_argument("Evaluator: operating vector size mismatch");
}

namespace {

/// Pass 1 of every batch: probes each row's key (key_of(j, key) appends
/// its words) against the cache in row order.  Hits are copied to
/// ws.row_out[j].  A row equal to an earlier unresolved row of the same
/// batch is a duplicate: evaluated one by one, the first occurrence would
/// have been cached before the second was probed, so it counts as a cache
/// hit and shares the single simulation.  Duplicates are found through a
/// linear-probing hash index of the batch's misses (at most half full),
/// so the pass stays linear in the batch size.  Distinct misses land in
/// ws.miss_keys / ws.miss_rows; ws.row_source maps each row to its miss
/// (-1 = served).
template <class KeyOf>
void probe_rows(ProbeCache& cache, std::size_t& cache_hits, std::size_t rows,
                const KeyOf& key_of, EvalWorkspace& ws) {
  ws.miss_keys.clear();
  ws.miss_rows.clear();
  ws.row_source.assign(rows, -1);
  const std::size_t mask = std::bit_ceil(2 * rows) - 1;
  ws.miss_slots.assign(mask + 1, -1);
  for (std::size_t j = 0; j < rows; ++j) {
    ws.key.clear();
    key_of(j, ws.key);
    if (const Vector* hit = cache.find(ws.key)) {
      ++cache_hits;
      for (std::size_t i = 0; i < hit->size(); ++i) ws.row_out[j][i] = (*hit)[i];
      continue;
    }
    std::size_t slot = cache.hash(ws.key) & mask;
    while (ws.miss_slots[slot] >= 0 &&
           ws.miss_keys[static_cast<std::size_t>(ws.miss_slots[slot])] !=
               ws.key)
      slot = (slot + 1) & mask;
    if (ws.miss_slots[slot] >= 0) {
      ++cache_hits;
      ws.row_source[j] = ws.miss_slots[slot];
      continue;
    }
    ws.miss_slots[slot] = static_cast<std::ptrdiff_t>(ws.miss_keys.size());
    ws.row_source[j] = ws.miss_slots[slot];
    ws.miss_keys.push_back(ws.key);
    ws.miss_rows.push_back(j);
  }
}

/// Grows the workspace's miss buffers to `misses` rows (no allocation once
/// warm).
void reserve_misses(EvalWorkspace& ws, std::size_t misses, std::size_t n_s,
                    std::size_t n_f) {
  if (ws.s_hat_miss.rows() < misses || ws.s_hat_miss.cols() != n_s)
    ws.s_hat_miss = Matrixd(std::max(misses, ws.s_hat_miss.rows()), n_s);
  if (ws.physical.rows() < misses || ws.physical.cols() != n_s)
    ws.physical = Matrixd(std::max(misses, ws.physical.rows()), n_s);
  if (ws.values.rows() < misses || ws.values.cols() != n_f)
    ws.values = Matrixd(std::max(misses, ws.values.rows()), n_f);
}

}  // namespace

void Evaluator::run_requests(EvalWorkspace& ws, std::size_t misses) {
  const linalg::StatPhysBlock s(
      ConstMatrixView(ws.physical).middle_rows(0, misses));
  const linalg::PerfBlockView values(
      MatrixView(ws.values).middle_rows(0, misses));
  if (EvaluationPool* const pool = this->pool()) {
    pool->run(ws.requests, s, values);
    return;
  }
  for (const ModelRequest& request : ws.requests)
    serve(*problem_.model, request, s, values);
}

void Evaluator::commit_misses(EvalWorkspace& ws, Budget budget) {
  const std::size_t n_f = num_specs();
  for (std::size_t m = 0; m < ws.miss_keys.size(); ++m) {
    const double* row = ws.values.row(m);
    // Every downstream consumer (worst-case search, linearization, yield
    // accumulation) assumes finite performances; catch a silent NaN at the
    // single point where model output enters the system.
    MAYO_CHECK_FINITE((std::span<const double>(row, n_f)),
                      "Evaluator: model performance values");
    if (budget == Budget::kVerification) {
      ++counts_.verification;
      continue;  // a fresh random draw: no later probe repeats it
    }
    ++counts_.optimization;
    Vector stored(n_f);  // hot-ok: ownership moves into the cache
    for (std::size_t i = 0; i < n_f; ++i) stored[i] = row[i];
    cache_.insert(std::move(ws.miss_keys[m]), std::move(stored));
  }
  // Fill the rows that were not served directly from the cache.
  for (std::size_t j = 0; j < ws.row_source.size(); ++j) {
    if (ws.row_source[j] < 0) continue;
    const double* src =
        ws.values.row(static_cast<std::size_t>(ws.row_source[j]));
    for (std::size_t i = 0; i < n_f; ++i) ws.row_out[j][i] = src[i];
  }
}

void Evaluator::performances_at(std::span<const EvalPoint> points,
                                MatrixView out, Budget budget) {
  EvalWorkspace& ws = batch_ws_;
  ws.row_out.clear();
  for (std::size_t j = 0; j < points.size(); ++j) {
    validate_point(*points[j].d, *points[j].theta, points[j].s_hat->size());
    ws.row_out.push_back(out.row(j));
  }
  probe_rows(
      cache_, counts_.cache_hits, points.size(),
      [&](std::size_t j, ProbeCache::Key& key) {
        ProbeCache::append_bits(key, points[j].d->raw());
        ProbeCache::append_bits(key, points[j].s_hat->raw());
        ProbeCache::append_bits(key, points[j].theta->raw());
      },
      ws);

  const std::size_t misses = ws.miss_keys.size();
  if (misses > 0) {
    reserve_misses(ws, misses, num_statistical(), num_specs());
    ws.requests.clear();
    for (std::size_t m = 0; m < misses; ++m) {
      const EvalPoint& p = points[ws.miss_rows[m]];
      // Variable-covariance transform: s = G(d) s_hat + s0 (eq. 11).
      const StatPhysVec s = problem_.statistical.to_physical(*p.s_hat, *p.d);
      for (std::size_t i = 0; i < s.size(); ++i) ws.physical(m, i) = s[i];
      ws.requests.push_back({p.d, p.theta, m, 1, /*scalar=*/true});
    }
    run_requests(ws, misses);
  }
  commit_misses(ws, budget);
}

Vector Evaluator::evaluate_physical(const DesignVec& d,
                                    const StatUnitVec& s_hat,
                                    const OperatingVec& theta, Budget budget) {
  const EvalPoint point{&d, &s_hat, &theta};
  Vector values(num_specs());
  performances_at(std::span<const EvalPoint>(&point, 1),
                  MatrixView(values.data(), 1, num_specs(), num_specs()),
                  budget);
  return values;
}

PerfVec Evaluator::performances(const DesignVec& d, const StatUnitVec& s_hat,
                                const OperatingVec& theta, Budget budget) {
  return PerfVec(evaluate_physical(d, s_hat, theta, budget));
}

void Evaluator::performances_batch(const DesignVec& d,
                                   linalg::StatUnitBlock s_hat_block,
                                   const OperatingVec& theta,
                                   linalg::PerfBlockView out, EvalWorkspace& ws,
                                   Budget budget) {
  const EvalBlock block{&d, s_hat_block, &theta, out};
  performances_blocks(std::span<const EvalBlock>(&block, 1), ws, budget);
}

void Evaluator::performances_blocks(std::span<const EvalBlock> blocks,
                                    EvalWorkspace& ws, Budget budget) {
  const std::size_t n_s = num_statistical();
  const std::size_t n_f = num_specs();
  // Row j of the batch is row r of block b, blocks in order.
  ws.row_out.clear();
  ws.row_in.clear();
  ws.row_block.clear();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const EvalBlock& block = blocks[b];
    validate_point(*block.d, *block.theta, block.s_hat.cols());
    MAYO_CHECK_DIM(block.out.rows(), block.s_hat.rows(),
                   "Evaluator::performances_batch: out rows");
    MAYO_CHECK_DIM(block.out.cols(), n_f,
                   "Evaluator::performances_batch: out cols");
    if (block.out.rows() != block.s_hat.rows() || block.out.cols() != n_f)
      throw std::invalid_argument(
          "Evaluator::performances_batch: out shape mismatch");
    for (std::size_t r = 0; r < block.s_hat.rows(); ++r) {
      ws.row_out.push_back(block.out.row(r));
      ws.row_in.push_back(block.s_hat.row(r));
      ws.row_block.push_back(b);
    }
  }
  probe_rows(
      cache_, counts_.cache_hits, ws.row_out.size(),
      [&](std::size_t j, ProbeCache::Key& key) {
        const EvalBlock& block = blocks[ws.row_block[j]];
        ProbeCache::append_bits(key, block.d->raw());
        ProbeCache::append_bits(key, ws.row_in[j], n_s);
        ProbeCache::append_bits(key, block.theta->raw());
      },
      ws);

  const std::size_t misses = ws.miss_keys.size();
  if (misses > 0) {
    reserve_misses(ws, misses, n_s, n_f);
    for (std::size_t m = 0; m < misses; ++m) {
      const double* src = ws.row_in[ws.miss_rows[m]];
      double* dst = ws.s_hat_miss.row(m);
      for (std::size_t i = 0; i < n_s; ++i) dst[i] = src[i];
    }
    // One request per block with misses (a block's misses are
    // consecutive): s = G(d) s_hat + s0, sigmas hoisted once per block
    // (eq. 11), then one evaluate_batch over the block's miss rows.
    ws.requests.clear();
    for (std::size_t first = 0, m = 0; first < misses; first = m) {
      const std::size_t b = ws.row_block[ws.miss_rows[first]];
      while (m < misses && ws.row_block[ws.miss_rows[m]] == b) ++m;
      // The workspace matrices carry rows of known spaces; re-tag the
      // views for the crossing call.
      problem_.statistical.to_physical_block(
          linalg::StatUnitBlock(
              ConstMatrixView(ws.s_hat_miss).middle_rows(first, m - first)),
          *blocks[b].d,
          linalg::StatPhysBlockView(
              MatrixView(ws.physical).middle_rows(first, m - first)),
          ws.sigma);
      ws.requests.push_back({blocks[b].d, blocks[b].theta, first, m - first,
                             /*scalar=*/false});
    }
    run_requests(ws, misses);
  }
  commit_misses(ws, budget);
}

void Evaluator::margins_batch(const DesignVec& d,
                              linalg::StatUnitBlock s_hat_block,
                              const OperatingVec& theta,
                              linalg::MarginBlockView out, EvalWorkspace& ws,
                              Budget budget) {
  MAYO_CHECK_DIM(out.rows(), s_hat_block.rows(),
                 "Evaluator::margins_batch: out rows");
  MAYO_CHECK_DIM(out.cols(), num_specs(), "Evaluator::margins_batch: out cols");
  // Performance values land in the margin buffer first, then the in-place
  // per-spec transform below is the Performance -> Margin crossing.
  performances_batch(d, s_hat_block, theta, linalg::PerfBlockView(out.raw()),
                     ws, budget);
  for (std::size_t j = 0; j < out.rows(); ++j) {
    double* row = out.row(j);
    for (std::size_t i = 0; i < num_specs(); ++i)
      row[i] = problem_.specs[i].margin(row[i]);
  }
}

MarginVec Evaluator::margins(const DesignVec& d, const StatUnitVec& s_hat,
                             const OperatingVec& theta, Budget budget) {
  const Vector values = evaluate_physical(d, s_hat, theta, budget);
  MarginVec m(num_specs());
  for (std::size_t i = 0; i < num_specs(); ++i)
    m[i] = problem_.specs[i].margin(values[i]);
  return m;
}

double Evaluator::margin(std::size_t spec, const DesignVec& d,
                         const StatUnitVec& s_hat, const OperatingVec& theta,
                         Budget budget) {
  if (spec >= num_specs())
    throw std::out_of_range("Evaluator::margin: spec index out of range");
  const Vector values = evaluate_physical(d, s_hat, theta, budget);
  return problem_.specs[spec].margin(values[spec]);
}

Matrixd Evaluator::margins_at(std::span<const EvalPoint> points,
                              Budget budget) {
  Matrixd out(points.size(), num_specs());
  performances_at(points, MatrixView(out), budget);
  for (std::size_t r = 0; r < out.rows(); ++r)
    for (std::size_t i = 0; i < num_specs(); ++i)
      out(r, i) = problem_.specs[i].margin(out(r, i));
  return out;
}

Vector Evaluator::constraints(const DesignVec& d) {
  if (d.size() != num_design())
    throw std::invalid_argument("Evaluator::constraints: size mismatch");
  scalar_key_.clear();
  ProbeCache::append_bits(scalar_key_, d.raw());
  if (const Vector* hit = constraint_cache_.find(scalar_key_)) {
    ++counts_.cache_hits;
    return *hit;
  }
  Vector c = problem_.model->constraints(d);
  if (c.size() != problem_.model->num_constraints())
    throw std::runtime_error("Evaluator: model returned wrong constraint count");
  ++counts_.constraint;
  constraint_cache_.insert(scalar_key_, c);
  return c;
}

StatUnitVec Evaluator::margin_gradient_s(std::size_t spec, const DesignVec& d,
                                         const StatUnitVec& s_hat,
                                         const OperatingVec& theta,
                                         double step) {
  if (spec >= num_specs())
    throw std::out_of_range("Evaluator::margin_gradient_s: spec out of range");
  const std::size_t n = num_statistical();
  // Row 0 is the base point, row i + 1 the forward probe along axis i.
  std::vector<StatUnitVec> probes(n, s_hat);
  std::vector<EvalPoint> points{{&d, &s_hat, &theta}};
  points.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    probes[i][i] = s_hat[i] + step;
    points.push_back({&d, &probes[i], &theta});
  }
  const Matrixd m = margins_at(points);
  StatUnitVec grad(n);
  for (std::size_t i = 0; i < n; ++i)
    grad[i] = (m(i + 1, spec) - m(0, spec)) / step;
  return grad;
}

Matrixd Evaluator::margin_gradients_s(const DesignVec& d,
                                      const StatUnitVec& s_hat,
                                      const OperatingVec& theta, double step) {
  validate_point(d, theta, s_hat.size());
  const std::size_t n_s = num_statistical();
  const std::size_t n_f = num_specs();
  // One block of n_s + 1 points: the base point plus the forward probes.
  // The batch path shares per-(d, theta) model setup across all of them.
  if (grad_points_.rows() != n_s + 1 || grad_points_.cols() != n_s)
    grad_points_ = Matrixd(n_s + 1, n_s);
  if (grad_margins_.rows() != n_s + 1 || grad_margins_.cols() != n_f)
    grad_margins_ = Matrixd(n_s + 1, n_f);
  for (std::size_t r = 0; r < n_s + 1; ++r) {
    double* row = grad_points_.row(r);
    for (std::size_t i = 0; i < n_s; ++i) row[i] = s_hat[i];
    if (r > 0) row[r - 1] = s_hat[r - 1] + step;
  }
  margins_batch(d, linalg::StatUnitBlock(ConstMatrixView(grad_points_)), theta,
                linalg::MarginBlockView(MatrixView(grad_margins_)), batch_ws_);
  Matrixd grads(n_f, n_s);
  const double* base = grad_margins_.row(0);
  for (std::size_t i = 0; i < n_s; ++i) {
    const double* shifted = grad_margins_.row(i + 1);
    for (std::size_t k = 0; k < n_f; ++k)
      grads(k, i) = (shifted[k] - base[k]) / step;
  }
  return grads;
}

DesignVec Evaluator::margin_gradient_d(std::size_t spec, const DesignVec& d,
                                       const StatUnitVec& s_hat,
                                       const OperatingVec& theta,
                                       double step_fraction) {
  if (spec >= num_specs())
    throw std::out_of_range("Evaluator::margin_gradient_d: spec out of range");
  const auto& space = problem_.design;
  const std::size_t n = num_design();
  // Row 0 is the base point, row i + 1 the probe along design axis i.
  std::vector<DesignVec> probes(n, d);
  std::vector<double> steps(n);
  std::vector<EvalPoint> points{{&d, &s_hat, &theta}};
  points.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double range = space.upper[i] - space.lower[i];
    double h = step_fraction * (range > 0.0 ? range : std::abs(d[i]) + 1.0);
    // Step inward if the nominal sits at the upper bound.
    if (d[i] + h > space.upper[i]) h = -h;
    steps[i] = h;
    probes[i][i] = d[i] + h;
    points.push_back({&probes[i], &s_hat, &theta});
  }
  const Matrixd m = margins_at(points);
  DesignVec grad(n);
  for (std::size_t i = 0; i < n; ++i)
    grad[i] = (m(i + 1, spec) - m(0, spec)) / steps[i];
  return grad;
}

Matrixd Evaluator::constraint_jacobian(const DesignVec& d,
                                       double step_fraction) {
  const Vector base = constraints(d);
  const auto& space = problem_.design;
  Matrixd jac(base.size(), num_design());
  DesignVec probe = d;
  for (std::size_t i = 0; i < num_design(); ++i) {
    const double range = space.upper[i] - space.lower[i];
    double h = step_fraction * (range > 0.0 ? range : std::abs(d[i]) + 1.0);
    if (d[i] + h > space.upper[i]) h = -h;
    probe[i] = d[i] + h;
    const Vector shifted = constraints(probe);  // hot-ok: cold FD path
    probe[i] = d[i];
    for (std::size_t k = 0; k < base.size(); ++k)
      jac(k, i) = (shifted[k] - base[k]) / h;
  }
  return jac;
}

}  // namespace mayo::core
