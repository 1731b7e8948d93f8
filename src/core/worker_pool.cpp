#include "core/worker_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace mayo::core {

unsigned available_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned resolve_threads(unsigned requested) {
  return requested == 0 ? available_cpus() : requested;
}

EvaluationPool::EvaluationPool(
    std::vector<std::unique_ptr<PerformanceModel>> models)
    : models_(std::move(models)) {
  for (const auto& model : models_)
    if (model == nullptr)
      throw std::invalid_argument("EvaluationPool: null model");
  threads_.reserve(models_.size());
  for (unsigned t = 0; t < size(); ++t)
    threads_.emplace_back([this, t] { work(t); });  // parallel-entry
}

EvaluationPool::~EvaluationPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void serve(PerformanceModel& model, const ModelRequest& request,
           linalg::StatPhysBlock s, linalg::PerfBlockView values) {
  if (!request.scalar) {
    model.evaluate_batch(*request.d, s.middle_rows(request.first, request.rows),
                         *request.theta,
                         values.middle_rows(request.first, request.rows));
    return;
  }
  const linalg::PerfVec f =
      model.evaluate(*request.d, s.row_vector(request.first), *request.theta);
  if (f.size() != values.cols())
    throw std::runtime_error(
        "Evaluator: model returned wrong performance count");
  double* out = values.row(request.first);
  for (std::size_t i = 0; i < f.size(); ++i) out[i] = f[i];
}

void EvaluationPool::run(std::span<const ModelRequest> requests,
                         linalg::StatPhysBlock s,
                         linalg::PerfBlockView values) {
  if (requests.empty()) return;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    requests_ = requests;
    s_ = s;
    values_ = values;
    errors_.assign(requests.size(), nullptr);
    next_request_.store(0, std::memory_order_relaxed);
    busy_ = size();
    ++generation_;
    wake_.notify_all();
    done_.wait(lock, [this] { return busy_ == 0; });
  }
  for (const std::exception_ptr& error : errors_)
    if (error) std::rethrow_exception(error);
}

void EvaluationPool::work(unsigned worker) {
  PerformanceModel& model = *models_[worker];
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    // Requests go out in ascending order to whichever worker asks first;
    // each request's rows and error slot belong to the worker that took it.
    for (;;) {
      const std::size_t k =
          next_request_.fetch_add(1, std::memory_order_relaxed);
      if (k >= requests_.size()) break;
      try {
        serve(model, requests_[k], s_, values_);
      } catch (...) {
        errors_[k] = std::current_exception();
      }
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) done_.notify_one();
  }
}

}  // namespace mayo::core
