// mayo/core -- counting, caching evaluator with the s_hat transform.
//
// All algorithm layers access the performance model exclusively through
// this class.  It
//   * applies the variable-covariance transform s = G(d) s_hat + s0 of
//     paper eq. (11), so callers work in standard-normal s_hat coordinates
//     and the design-dependence of C(d) is folded into the performance
//     function f_hat (eq. 12-14),
//   * converts performance values to specification margins,
//   * memoizes optimization-budget evaluations (bitwise-identical
//     arguments), so repeated probes of the same point -- nominal margins,
//     stencil bases, worst-case starts, mismatch analysis reusing
//     worst-case points -- cost nothing.  Verification-budget rows are
//     probed but not stored: they are fresh random draws that no later
//     probe repeats, and storing them would double the cache of an
//     optimize_yield run (5,076 of its 10,406 folded-cascode entries),
//   * counts true model evaluations, split into optimization and
//     verification budgets (paper Table 7), and
//   * owns the evaluation pool (core/worker_pool.hpp), the library's one
//     way to simulate on several threads.
//
// Batches: performances_batch / margins_batch evaluate a block of s_hat
// rows at one (d, theta); margins_at evaluates a list of arbitrary
// (d, s_hat, theta) points (finite-difference stencils, curvature probes,
// operating corners).  Every batch probes each row against the cache in
// row order -- a row equal to an earlier miss of the same batch counts as
// a cache hit and shares its simulation -- then simulates the distinct
// misses, then checks, caches and charges them in row order.  Cache
// contents and counters therefore end up exactly as if the rows had been
// evaluated one by one.  The misses become model requests, the same at
// every thread count: one scalar evaluate call per point of margins_at,
// one evaluate_batch call per block of performances_batch/_blocks.  They
// are served
//   * at threads() == 1 by the caller's model, one after another;
//   * at threads() > 1 by the pool, each request on one worker's cloned
//     model.
//
// Purity contract: a model evaluation must be a pure function of
// (d, s, theta).  Models may keep reusable state -- per-(d, theta) design
// contexts with warm-start seeds, the stamp-once AC session of
// sim::AcSession, the in-place LU workspaces of the Newton loops -- but
// all of it is either a pure function of the arguments or pure cost
// (buffers that are fully rewritten before use).  That is what lets the
// cache, the batches and the pool return bitwise-identical results
// regardless of evaluation order, block size, model clone or thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/probe_cache.hpp"
#include "core/problem.hpp"
#include "core/worker_pool.hpp"
#include "linalg/matrix.hpp"
#include "linalg/spaces.hpp"
#include "linalg/vector.hpp"

namespace mayo::core {

/// Simulation counters (one count per PerformanceModel::evaluate call).
struct EvaluationCounts {
  std::size_t optimization = 0;  ///< evaluations charged to the optimizer
  std::size_t verification = 0;  ///< evaluations charged to MC verification
  std::size_t constraint = 0;    ///< constraint evaluations c(d)
  std::size_t cache_hits = 0;
  std::size_t total() const { return optimization + verification + constraint; }
};

/// Budget a model evaluation is charged to.
enum class Budget { kOptimization, kVerification };

/// Cache tuning knobs (defaults reproduce the historical behaviour:
/// unbounded memoization with FNV-1a hashing).  `hash` is injectable for
/// collision regression tests; `capacity` bounds the evaluation cache with
/// deterministic FIFO eviction (0 = unlimited).
struct CacheOptions {
  std::size_t capacity = 0;
  ProbeCache::HashFn hash = nullptr;
};

/// One point of a margins_at batch.  The pointees must outlive the call.
struct EvalPoint {
  const linalg::DesignVec* d = nullptr;
  const linalg::StatUnitVec* s_hat = nullptr;
  const linalg::OperatingVec* theta = nullptr;
};

/// One block of a performances_blocks batch: the rows of `s_hat`, all at
/// (*d, *theta); row j's performances go to out.row(j).
struct EvalBlock {
  const linalg::DesignVec* d = nullptr;
  linalg::StatUnitBlock s_hat;
  const linalg::OperatingVec* theta = nullptr;
  linalg::PerfBlockView out;
};

/// Caller-owned scratch for the batch evaluation path.  Buffers grow on
/// first use and are reused across blocks; after warm-up a batch call
/// performs no heap allocation.  A workspace is not thread-safe: use one
/// per thread that calls the Evaluator.
struct EvalWorkspace {
  linalg::Matrixd s_hat_miss;  ///< distinct cache-miss rows, s_hat space
  linalg::Matrixd physical;    ///< the same rows after s = G(d) s_hat + s0
  linalg::Matrixd values;      ///< model performances for the miss rows
  linalg::Vector sigma;        ///< sigma(d) scratch for to_physical_block
  ProbeCache::Key key;         ///< reusable key-building buffer
  std::vector<ProbeCache::Key> miss_keys;   ///< keys of distinct misses
  std::vector<std::size_t> miss_rows;       ///< block row of each miss
  std::vector<std::ptrdiff_t> row_source;   ///< per batch row: -1 = served
                                            ///< from cache, else miss index
  std::vector<std::ptrdiff_t> miss_slots;   ///< open-addressing index of
                                            ///< miss_keys (-1 = empty slot)
  std::vector<double*> row_out;             ///< per batch row: its output
  std::vector<const double*> row_in;        ///< per batch row: its s_hat
  std::vector<std::size_t> row_block;       ///< per batch row: its block
  std::vector<ModelRequest> requests;       ///< the misses' model requests
};

class Evaluator {
 public:
  /// The problem must outlive the evaluator.  Throws via validate().
  explicit Evaluator(YieldProblem& problem);
  Evaluator(YieldProblem& problem, const CacheOptions& cache);
  ~Evaluator();
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Threads that simulate the misses of a batch: 1 (the default) runs
  /// them on the caller's model, 0 means every CPU the process may use
  /// (core::available_cpus).  With more than one, the pool is built on the
  /// first batch that needs it, from one problem().model->clone() per
  /// thread; a model whose clone() returns nullptr is simulated on the
  /// caller's thread whatever this says.  Results and counters never
  /// depend on the thread count.
  void set_threads(unsigned threads);
  unsigned threads() const { return threads_; }

  const YieldProblem& problem() const { return problem_; }
  std::size_t num_specs() const { return problem_.specs.size(); }
  std::size_t num_statistical() const { return problem_.statistical.dimension(); }
  std::size_t num_design() const { return problem_.design.dimension(); }
  std::size_t num_operating() const { return problem_.operating.dimension(); }

  /// Raw performance values f_hat(d, s_hat, theta) (eq. 14).
  linalg::PerfVec performances(const linalg::DesignVec& d,
                               const linalg::StatUnitVec& s_hat,
                               const linalg::OperatingVec& theta,
                               Budget budget = Budget::kOptimization);

  /// All specification margins at (d, s_hat, theta).
  linalg::MarginVec margins(const linalg::DesignVec& d,
                            const linalg::StatUnitVec& s_hat,
                            const linalg::OperatingVec& theta,
                            Budget budget = Budget::kOptimization);

  /// Margin of one specification.
  double margin(std::size_t spec, const linalg::DesignVec& d,
                const linalg::StatUnitVec& s_hat,
                const linalg::OperatingVec& theta,
                Budget budget = Budget::kOptimization);

  /// Batch form of performances(): row j of `out` receives
  /// f_hat(d, s_hat_block.row(j), theta).  `out` must be
  /// s_hat_block.rows() x num_specs().  Results, cache contents and
  /// counters end up exactly as if the rows had been evaluated one by one
  /// through performances() in ascending row order.
  void performances_batch(const linalg::DesignVec& d,
                          linalg::StatUnitBlock s_hat_block,
                          const linalg::OperatingVec& theta,
                          linalg::PerfBlockView out, EvalWorkspace& ws,
                          Budget budget = Budget::kOptimization);

  /// Several blocks as one batch: the same results, cache contents,
  /// counters and model requests as one performances_batch call per block
  /// in order, but with the evaluator's pool serving the blocks' requests
  /// concurrently.
  void performances_blocks(std::span<const EvalBlock> blocks,
                           EvalWorkspace& ws,
                           Budget budget = Budget::kOptimization);

  /// Batch form of margins(): performances_batch followed by the in-place
  /// per-spec margin transform of every row.
  void margins_batch(const linalg::DesignVec& d,
                     linalg::StatUnitBlock s_hat_block,
                     const linalg::OperatingVec& theta,
                     linalg::MarginBlockView out, EvalWorkspace& ws,
                     Budget budget = Budget::kOptimization);

  /// Margins of every spec at every point, as one batch (see the module
  /// comment): row r of the result belongs to points[r].  Returned untyped
  /// (rows of Margin space).
  linalg::Matrixd margins_at(std::span<const EvalPoint> points,
                             Budget budget = Budget::kOptimization);

  /// Functional constraint values c(d) (cached like performances).
  linalg::Vector constraints(const linalg::DesignVec& d);

  /// Gradient of one spec's margin w.r.t. s_hat (forward differences; the
  /// base point and the n_s probes are one margins_at batch).  A gradient
  /// w.r.t. s_hat is itself a direction in StatUnit space.
  linalg::StatUnitVec margin_gradient_s(std::size_t spec,
                                        const linalg::DesignVec& d,
                                        const linalg::StatUnitVec& s_hat,
                                        const linalg::OperatingVec& theta,
                                        double step = 5e-2);

  /// Gradients of ALL specs' margins w.r.t. s_hat in one pass (shares the
  /// finite-difference evaluations across specs; the base point and the
  /// n_s forward probes run as one batch).  Row i = spec i (each row a
  /// StatUnit direction; returned untyped for linalg interop).
  linalg::Matrixd margin_gradients_s(const linalg::DesignVec& d,
                                     const linalg::StatUnitVec& s_hat,
                                     const linalg::OperatingVec& theta,
                                     double step = 5e-2);

  /// Gradient of one spec's margin w.r.t. d.  Steps are relative to the
  /// design-space ranges (step_fraction * (upper - lower)); the base point
  /// and the n_d probes are one margins_at batch.
  linalg::DesignVec margin_gradient_d(std::size_t spec,
                                      const linalg::DesignVec& d,
                                      const linalg::StatUnitVec& s_hat,
                                      const linalg::OperatingVec& theta,
                                      double step_fraction = 1e-3);

  /// Jacobian of the constraints w.r.t. d (forward differences).
  linalg::Matrixd constraint_jacobian(const linalg::DesignVec& d,
                                      double step_fraction = 1e-3);

  /// Zero vector in s_hat space (the nominal statistical point).  With the
  /// sampler, one of the two places allowed to mint StatUnit values.
  linalg::StatUnitVec nominal_s_hat() const {
    return linalg::StatUnitVec(num_statistical());
  }
  /// Nominal operating point.
  linalg::OperatingVec nominal_theta() const {
    return linalg::OperatingVec(problem_.operating.nominal);
  }

  const EvaluationCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = {}; }
  /// Number of memoized evaluation results currently held.
  std::size_t cache_size() const { return cache_.size(); }
  /// Drops all memoized results (use between experiments).
  void clear_cache();

 private:
  /// Performance values at every point, as one batch, into `out`
  /// (points.size() x num_specs()): one scalar request per miss.
  void performances_at(std::span<const EvalPoint> points,
                       linalg::MatrixView out, Budget budget);
  linalg::Vector evaluate_physical(const linalg::DesignVec& d,
                                   const linalg::StatUnitVec& s_hat,
                                   const linalg::OperatingVec& theta,
                                   Budget budget);
  void validate_point(const linalg::DesignVec& d,
                      const linalg::OperatingVec& theta,
                      std::size_t s_hat_size) const;
  /// The pool for the current thread count, built on first use; nullptr
  /// when batches run on the caller's model.
  EvaluationPool* pool();
  /// Serves ws.requests: on the pool when there is one, else one after
  /// another on the caller's model.
  void run_requests(EvalWorkspace& ws, std::size_t misses);
  /// Last pass of every batch: checks the ws.values rows of the distinct
  /// misses, caches and charges them in row order, then copies every row
  /// pass 1 did not serve from the cache to its ws.row_out.
  void commit_misses(EvalWorkspace& ws, Budget budget);

  YieldProblem& problem_;
  EvaluationCounts counts_;
  ProbeCache cache_;
  ProbeCache constraint_cache_;  ///< keyed by d alone; always unbounded
  ProbeCache::Key scalar_key_;   ///< scratch for the c(d) probe
  // Workspace of the evaluator's own batches: the shared
  // finite-difference block of margin_gradients_s and every margins_at.
  EvalWorkspace batch_ws_;
  linalg::Matrixd grad_points_;
  linalg::Matrixd grad_margins_;
  unsigned threads_ = 1;
  bool clonable_ = true;  ///< false once the model declined to clone
  std::unique_ptr<EvaluationPool> pool_;
};

}  // namespace mayo::core
