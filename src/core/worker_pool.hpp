// mayo/core -- the worker pool of the threaded algorithms.
//
// The Monte-Carlo verifier, the per-spec linearization fan-out and the
// importance-sampled verifier all parallelize the same way: a fixed number
// of workers, each with its own cloned model and evaluator, own disjoint
// slices of the work (a pure function of the worker index), and the
// results merge in a fixed order afterwards.  That is what makes every
// threaded result bitwise identical for a given thread count.  This header
// holds the shared spawn / join / rethrow part.
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace mayo::core {

/// Worker count for a request: 0 means std::thread::hardware_concurrency()
/// (at least 1); the result is capped at `max_useful` (e.g. the number of
/// work items -- more workers would only idle).
inline unsigned resolve_threads(unsigned requested, std::size_t max_useful) {
  const unsigned threads =
      requested == 0 ? std::max(1u, std::thread::hardware_concurrency())
                     : requested;
  return static_cast<unsigned>(std::min<std::size_t>(threads, max_useful));
}

/// Runs work(t) for t = 0 .. count-1 on `count` threads and joins them
/// all.  A worker that throws (model failure, contract violation) must not
/// call std::terminate: its exception is captured and, after the join
/// barrier, the first one in worker order is rethrown on the caller's
/// thread.  Callers mark their work lambda `// parallel-entry` so that
/// tools/analyze.py certifies everything it reaches.
template <class Work>
void run_workers(unsigned count, const Work& work) {
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (unsigned t = 0; t < count; ++t) {
    threads.emplace_back([&work, &errors, t]() {
      try {
        work(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

}  // namespace mayo::core
