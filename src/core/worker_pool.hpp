// mayo/core -- the evaluation pool: the one place the library evaluates a
// performance model on several threads.
//
// The paper ran its experiments "on a network (100 Mbit/sec) of 5
// computers in parallel" (Table 7).  Here every independent batch of
// simulations -- the finite-difference stencils and curvature probes of
// the worst-case searches, the operating-corner enumeration, the
// Monte-Carlo and importance-sampling blocks -- goes through one pool
// owned by core::Evaluator.  The pool holds one cloned model per worker
// thread; its threads are started once and block on a condition variable
// between batches.  A batch is a list of model requests, the same
// requests the caller's model would get at one thread (see
// ModelRequest): workers pull them in ascending order from one shared
// index, and each serves its request on its own clone into rows no other
// request writes.  The Evaluator probes its cache before and charges the
// results after, on the caller's thread and in row order, so values,
// cache contents and evaluation counts are the same for every thread
// count (see evaluator.hpp, "Purity contract").
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "linalg/spaces.hpp"

namespace mayo::core {

/// CPUs this process may run on.  On Linux the calling thread's affinity
/// mask (sched_getaffinity, as nproc counts it); elsewhere
/// std::thread::hardware_concurrency().  At least 1.
unsigned available_cpus();

/// Thread count for a request: 0 means available_cpus(), anything else is
/// taken as given.
unsigned resolve_threads(unsigned requested);

/// One model request of a batch: rows [first, first + rows) of the
/// batch's physical statistical rows `s`, evaluated at (*d, *theta) into
/// the same rows of `values` -- as one scalar evaluate() call when
/// `scalar` (rows must be 1), else as one evaluate_batch() call.
struct ModelRequest {
  const linalg::DesignVec* d = nullptr;
  const linalg::OperatingVec* theta = nullptr;
  std::size_t first = 0;
  std::size_t rows = 1;
  bool scalar = false;
};

/// Serves one request on `model`.  The caller's thread does this for every
/// request at one thread; the pool's workers do it on their clones.
void serve(PerformanceModel& model, const ModelRequest& request,
           linalg::StatPhysBlock s, linalg::PerfBlockView values);

class EvaluationPool {
 public:
  /// Starts one worker thread per model; each worker owns its model.
  explicit EvaluationPool(
      std::vector<std::unique_ptr<PerformanceModel>> models);
  /// Stops and joins the workers.
  ~EvaluationPool();
  EvaluationPool(const EvaluationPool&) = delete;
  EvaluationPool& operator=(const EvaluationPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(models_.size()); }

  /// Serves every request (see serve()), each on one worker's model, and
  /// blocks until all are done.  If any request threw, rethrows the
  /// exception of the lowest such request; the pool stays usable.
  void run(std::span<const ModelRequest> requests, linalg::StatPhysBlock s,
           linalg::PerfBlockView values);

 private:
  void work(unsigned worker);

  std::vector<std::unique_ptr<PerformanceModel>> models_;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable wake_;  ///< a batch was posted, or stop
  std::condition_variable done_;  ///< the last worker left the batch
  bool stop_ = false;
  std::uint64_t generation_ = 0;  ///< batches posted so far
  unsigned busy_ = 0;             ///< workers still in the current batch

  // The posted batch.  Written by run() under the mutex before the
  // generation bump, read by the workers after they observe it.
  std::span<const ModelRequest> requests_;
  linalg::StatPhysBlock s_;
  linalg::PerfBlockView values_;
  std::vector<std::exception_ptr> errors_;  ///< per request, owner writes
  std::atomic<std::size_t> next_request_{0};
};

}  // namespace mayo::core
