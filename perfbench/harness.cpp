// perfbench harness: one benchmark run of one workload of the mayo yield
// optimizer.  It drives the library only through its public functions and
// prints one JSON object of raw measurements on stdout; perfbench/run.py
// turns them into metrics and checks the outputs.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads (why each exists: perfbench/README.md):
//   fc_optimize      optimize_yield on the folded cascode, opamp_yield options
//   miller_optimize  optimize_yield on the Miller opamp, table6_miller options
//   fc_mc_sweep      plain MC through Evaluator::performances_batch
//
// A run is a closed loop of repetitions.  Each repetition builds a fresh
// problem and evaluator (the set-up, timed on its own), then runs the same
// seed-determined work, so every repetition must produce bitwise-identical
// results.  Repetitions start until --seconds have elapsed.  With
// --trace 1 they alternate untraced / traced, so one run yields both the
// per-layer numbers and the tracing overhead.
//
// Every model request goes through TimedModel, which times it.  Untraced
// repetitions keep only the request latencies; traced repetitions keep the
// full spans (per-thread buffer, start, end, rows) together with the obs
// registry's counters and phase timers.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "circuits/folded_cascode.hpp"
#include "circuits/miller.hpp"
#include "core/optimizer.hpp"
#include "core/run_report.hpp"
#include "linalg/lu.hpp"
#include "obs/obs.hpp"
#include "stats/sampler.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace mayo;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- timing --

const Clock::time_point kEpoch = Clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// One model request: [start, end) in ns since kEpoch and the number of
/// performance rows it evaluated (0 for a constraint evaluation).
struct ModelSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint32_t rows = 0;
};

/// Spans of one model instance.  The library gives every parallel worker
/// its own clone, so one instance -- and one buffer -- belongs to one
/// thread at a time and appends need no lock.
struct SpanBuffer {
  std::vector<ModelSpan> spans;
};

/// Owns the buffers of a model and all of its clones.  clone() runs on
/// worker threads, so opening a buffer takes the lock; appends do not.
class SpanSink {
 public:
  std::shared_ptr<SpanBuffer> open() {
    auto buffer = std::make_shared<SpanBuffer>();
    buffer->spans.reserve(4096);
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(buffer);
    return buffer;
  }
  /// Drops the recorded spans (after the set-up's warm-up evaluation).
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) buffer->spans.clear();
  }
  /// Call only after every worker has joined.
  std::vector<std::shared_ptr<SpanBuffer>> buffers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return buffers_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<SpanBuffer>> buffers_;
};

/// PerformanceModel decorator that times every request into its buffer.
/// clone() wraps the inner clone with a fresh buffer in the same sink, so
/// the parallel worst-case search and verifier workers are timed too.
class TimedModel final : public core::PerformanceModel {
 public:
  TimedModel(std::shared_ptr<core::PerformanceModel> inner,
             std::shared_ptr<SpanSink> sink)
      : inner_(std::move(inner)), sink_(std::move(sink)),
        buffer_(sink_->open()) {}

  std::size_t num_performances() const override {
    return inner_->num_performances();
  }
  std::size_t num_constraints() const override {
    return inner_->num_constraints();
  }
  std::vector<std::string> constraint_names() const override {
    return inner_->constraint_names();
  }
  linalg::PerfVec evaluate(const linalg::DesignVec& d,
                           const linalg::StatPhysVec& s,
                           const linalg::OperatingVec& theta) override {
    const std::int64_t start = now_ns();
    linalg::PerfVec f = inner_->evaluate(d, s, theta);
    record(start, 1);
    return f;
  }
  void evaluate_batch(const linalg::DesignVec& d, linalg::StatPhysBlock s_block,
                      const linalg::OperatingVec& theta,
                      linalg::PerfBlockView out) override {
    const std::int64_t start = now_ns();
    inner_->evaluate_batch(d, s_block, theta, out);
    record(start, static_cast<std::uint32_t>(s_block.rows()));
  }
  linalg::Vector constraints(const linalg::DesignVec& d) override {
    const std::int64_t start = now_ns();
    linalg::Vector c = inner_->constraints(d);
    record(start, 0);
    return c;
  }
  std::unique_ptr<core::PerformanceModel> clone() const override {
    std::unique_ptr<core::PerformanceModel> inner = inner_->clone();
    if (inner == nullptr) return nullptr;
    return std::make_unique<TimedModel>(std::move(inner), sink_);
  }

 private:
  void record(std::int64_t start, std::uint32_t rows) {
    buffer_->spans.push_back({start, now_ns(), rows});
  }

  std::shared_ptr<core::PerformanceModel> inner_;
  std::shared_ptr<SpanSink> sink_;
  std::shared_ptr<SpanBuffer> buffer_;
};

// ------------------------------------------------------------- workloads --

enum class Workload { kFcOptimize, kMillerOptimize, kFcMcSweep };

/// Rows per fc_mc_sweep block and blocks per repetition.
constexpr std::size_t kSweepBlockRows = 32;
constexpr std::size_t kSweepBlocks = 64;
/// Set-ups per repetition, all timed; the last one's instance is used.
/// One set-up (mostly its single warm-up evaluation) takes 2.5-4 ms on a
/// 4-vCPU Xeon VM, and up to 1.7x longer on one CPU than on another, so a
/// `setup_s` sample is the mean of a batch of kSetupsPerBatch set-ups run
/// on every CPU in turn (see CpuRoundRobin), and every repetition takes
/// kSetupBatches samples, which spreads them over the whole run.
constexpr int kSetupBatches = 4;
/// 12: every batch visits each CPU equally often on 1, 2, 3, 4 or 6 CPUs.
constexpr int kSetupsPerBatch = 12;
/// Worker threads of the folded cascode's parallel worst-case search.
constexpr unsigned kFcThreads = 4;

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// min(kFcThreads, nproc): the CPUs this process may run on, as nproc
/// counts them (hardware_concurrency ignores the affinity mask).
unsigned fc_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(static_cast<unsigned>(cpus), 1u, kFcThreads);
}

/// Moves the calling thread over the CPUs it may run on, one short sample
/// (a set-up, an LU chunk) at a time.  On shared VMs single-thread speed
/// differs between CPUs and changes with the neighbours' load, and an idle
/// scheduler leaves a thread on one CPU for seconds, so unpinned samples
/// would report the speed of whichever CPU they landed on.  Restores the
/// mask on exit.
class CpuRoundRobin {
 public:
  CpuRoundRobin() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
  ~CpuRoundRobin() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
  }
  CpuRoundRobin(const CpuRoundRobin&) = delete;
  CpuRoundRobin& operator=(const CpuRoundRobin&) = delete;

  /// Pins the calling thread to the next CPU, round-robin.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// examples/opamp_yield's options.  The seed drives the verification
/// samples (plain MC and IS) only: the linear-model sample set keeps its
/// default seed, because it steers the optimization path and with it every
/// evaluation count.
core::YieldOptimizerOptions fc_options(std::uint64_t seed) {
  core::YieldOptimizerOptions options;
  options.max_iterations = 4;
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  options.verification.seed = mix_seed(seed, 1);
  options.linearization_threads = fc_threads();
  options.run_is_verification = true;
  options.is_verification.initial_samples = 64;
  options.is_verification.round_samples = 64;
  options.is_verification.max_rounds = 4;
  options.is_verification.seed = mix_seed(seed, 2);
  return options;
}

/// bench/table6_miller's options, seeded like fc_options.
core::YieldOptimizerOptions miller_options(std::uint64_t seed) {
  core::YieldOptimizerOptions options;
  options.max_iterations = 3;
  options.linear_samples = 10000;
  options.verification.num_samples = 300;
  options.verification.seed = mix_seed(seed, 1);
  return options;
}

/// A fresh problem and evaluator with a timed model.
struct Instance {
  core::YieldProblem problem;
  std::shared_ptr<SpanSink> sink;
  std::optional<core::Evaluator> evaluator;
};

std::unique_ptr<Instance> set_up(Workload workload) {
  auto instance = std::make_unique<Instance>();
  instance->problem = workload == Workload::kMillerOptimize
                          ? circuits::Miller::make_problem()
                          : circuits::FoldedCascode::make_problem();
  instance->sink = std::make_shared<SpanSink>();
  instance->problem.model = std::make_shared<TimedModel>(
      std::move(instance->problem.model), instance->sink);
  instance->evaluator.emplace(instance->problem);
  // Warm-up: one evaluation at the nominal point, straight through the
  // model so the evaluator's cache and budgets start as in a user's run.
  const core::YieldProblem& p = instance->problem;
  (void)p.model->evaluate(linalg::DesignVec(p.design.nominal),
                          p.statistical.nominal(),
                          linalg::OperatingVec(p.operating.nominal));
  instance->sink->clear();
  return instance;
}

// ------------------------------------------------------------------ JSON --

class Json {
 public:
  void raw(const std::string& text) { comma(); out_ += text; }
  void key(const char* name) {
    comma();
    out_ += '"';
    out_ += name;
    out_ += "\":";
    fresh_ = true;
  }
  void number(double x) {
    if (!std::isfinite(x)) return raw("null");
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    raw(buf);
  }
  void integer(std::uint64_t x) { raw(std::to_string(x)); }
  void boolean(bool b) { raw(b ? "true" : "false"); }
  void string(const std::string& s) {
    comma();
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  void open(char bracket) {
    comma();
    out_ += bracket;
    fresh_ = true;
  }
  void close(char bracket) {
    out_ += bracket;
    fresh_ = false;
  }
  void numbers(const std::vector<double>& xs) {
    open('[');
    for (const double x : xs) number(x);
    close(']');
  }
  const std::string& text() const { return out_; }

 private:
  void comma() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// JSON array of integers.
std::string tuple_of(std::initializer_list<std::int64_t> xs) {
  std::string s = "[";
  for (const std::int64_t x : xs) {
    if (s.size() > 1) s += ',';
    s += std::to_string(x);
  }
  s += ']';
  return s;
}

/// Bitwise fingerprint of a double sequence ("%a" round-trips exactly).
std::string hex_of(const std::vector<double>& xs) {
  std::string s;
  char buf[40];
  for (const double x : xs) {
    std::snprintf(buf, sizeof buf, "%a;", x);
    s += buf;
  }
  return s;
}

/// The obs registry's counters and phase timers as a mayo.run_report/1
/// document; its obs_enabled flag tells a compiled-out build apart.
void write_run_report(Json& json) {
  json.key("report");
  json.raw(core::to_json(core::snapshot_run_report("perfbench")));
}

void write_model_spans(Json& json, const SpanSink& sink, bool traced) {
  const auto buffers = sink.buffers();
  if (traced) {
    json.key("spans");
    json.open('[');
    for (std::size_t b = 0; b < buffers.size(); ++b)
      for (const ModelSpan& span : buffers[b]->spans)
        json.raw(tuple_of({static_cast<std::int64_t>(b), span.start, span.end,
                           static_cast<std::int64_t>(span.rows)}));
    json.close(']');
  } else {
    std::vector<double> latencies;
    for (const auto& buffer : buffers)
      for (const ModelSpan& span : buffer->spans)
        latencies.push_back(1e-6 * static_cast<double>(span.end - span.start));
    json.key("latencies_ms");
    json.numbers(latencies);
  }
}

void write_counts(Json& json, const core::EvaluationCounts& counts) {
  json.key("evals");
  json.open('{');
  json.key("optimization");
  json.integer(counts.optimization);
  json.key("verification");
  json.integer(counts.verification);
  json.key("constraint");
  json.integer(counts.constraint);
  json.close('}');
}

/// Workload body of an optimize repetition; writes its result fields.
void run_optimize(Workload workload, std::uint64_t seed, Instance& instance,
                  Json& json, std::int64_t& begin, std::int64_t& end) {
  const core::YieldOptimizerOptions options =
      workload == Workload::kFcOptimize ? fc_options(seed)
                                        : miller_options(seed);
  begin = now_ns();
  const core::YieldOptimizationResult result =
      core::optimize_yield(*instance.evaluator, options);
  end = now_ns();

  double beta_min = INFINITY;
  for (const core::WorstCasePoint& wc : result.linearizations.back().worst_cases)
    beta_min = std::min(beta_min, wc.beta);
  const core::IterationRecord& last = result.trace.back();
  const core::IsVerificationResult& is = result.is_verification;

  std::vector<double> fingerprint(result.final_d.begin(), result.final_d.end());
  for (const core::IterationRecord& record : result.trace) {
    fingerprint.push_back(record.linear_yield);
    fingerprint.push_back(record.verified_yield);
  }
  fingerprint.push_back(is.yield);
  fingerprint.push_back(is.confidence.lower);
  fingerprint.push_back(is.confidence.upper);
  fingerprint.push_back(beta_min);

  write_counts(json, result.counts);
  json.key("feasible");
  json.boolean(result.feasible_start_found);
  json.key("verified_yield");
  json.number(last.verified_yield);
  // The certified bound: the IS bracket when IS ran (fc_optimize), else the
  // last plain-MC Wilson bound (miller_optimize).
  json.key("yield_lower");
  json.number(result.is_verification_run ? is.confidence.lower
                                         : last.verification.confidence.lower);
  json.key("is_run");
  json.boolean(result.is_verification_run);
  json.key("is_yield");
  json.number(is.yield);
  json.key("is_lower");
  json.number(is.confidence.lower);
  json.key("beta_min");
  json.number(beta_min);
  json.key("fingerprint");
  json.string(hex_of(fingerprint) + std::to_string(result.counts.total()));
}

/// Samples of one fc_mc_sweep run: kSweepBlocks blocks of fresh unit-normal
/// rows, block b seeded from (seed, b).  Identical in every repetition.
std::vector<stats::SampleSet> sweep_inputs(std::uint64_t seed,
                                           std::size_t dim) {
  std::vector<stats::SampleSet> blocks;
  blocks.reserve(kSweepBlocks);
  for (std::size_t b = 0; b < kSweepBlocks; ++b)
    blocks.emplace_back(kSweepBlockRows, dim, mix_seed(seed, 100 + b));
  return blocks;
}

void run_sweep(const std::vector<stats::SampleSet>& inputs,
               Instance& instance, Json& json) {
  core::Evaluator& evaluator = *instance.evaluator;
  const core::YieldProblem& problem = instance.problem;
  const std::size_t num_specs = problem.num_specs();
  const linalg::DesignVec d(circuits::FoldedCascode::initial_design());
  const linalg::OperatingVec theta = evaluator.nominal_theta();

  linalg::Matrixd values(kSweepBlockRows, num_specs);
  core::EvalWorkspace workspace;
  std::vector<double> sum(num_specs, 0.0), margin_sum(num_specs, 0.0),
      margin_sq(num_specs, 0.0);
  std::size_t samples = 0, passing = 0;
  bool finite = true;
  for (const stats::SampleSet& block : inputs) {
    evaluator.performances_batch(d, block.block(0, block.count()), theta,
                                 linalg::PerfBlockView(values), workspace);
    for (std::size_t r = 0; r < block.count(); ++r) {
      bool pass = true;
      for (std::size_t i = 0; i < num_specs; ++i) {
        const double f = values(r, i);
        const double m = problem.specs[i].margin(f);
        finite = finite && std::isfinite(f);
        sum[i] += f;
        margin_sum[i] += m;
        margin_sq[i] += m * m;
        pass = pass && m >= 0.0;
      }
      passing += pass ? 1 : 0;
      ++samples;
    }
  }
  const double n = static_cast<double>(samples);
  std::vector<double> mean(num_specs), margin_mean(num_specs),
      margin_std(num_specs);
  for (std::size_t i = 0; i < num_specs; ++i) {
    mean[i] = sum[i] / n;
    margin_mean[i] = margin_sum[i] / n;
    margin_std[i] = std::sqrt(
        std::max(0.0, (margin_sq[i] - n * margin_mean[i] * margin_mean[i]) /
                          (n - 1.0)));
  }

  write_counts(json, evaluator.counts());
  json.key("samples");
  json.integer(samples);
  json.key("passing");
  json.integer(passing);
  json.key("finite");
  json.boolean(finite);
  json.key("perf_mean");
  json.numbers(mean);
  json.key("margin_mean");
  json.numbers(margin_mean);
  json.key("margin_std");
  json.numbers(margin_std);
  std::vector<double> fingerprint = mean;
  fingerprint.insert(fingerprint.end(), margin_std.begin(), margin_std.end());
  json.key("fingerprint");
  json.string(hex_of(fingerprint) + std::to_string(passing));
}

/// One repetition: set-ups (timed into `setup_s`), then the timed section.
void run_repetition(Workload workload, std::uint64_t seed, bool traced,
                    const std::vector<stats::SampleSet>& sweep,
                    std::vector<double>& setup_s, Json& json) {
  std::unique_ptr<Instance> instance;
  for (int b = 0; b < kSetupBatches; ++b) {
    CpuRoundRobin cpus;  // unpinned again before the timed section
    std::int64_t batch_ns = 0;
    for (int k = 0; k < kSetupsPerBatch; ++k) {
      instance.reset();
      cpus.next();
      const std::int64_t setup_start = now_ns();
      instance = set_up(workload);
      batch_ns += now_ns() - setup_start;
    }
    setup_s.push_back(1e-9 * static_cast<double>(batch_ns) / kSetupsPerBatch);
  }

  json.open('{');
  json.key("traced");
  json.boolean(traced);
  obs::registry().reset();
  const double cpu_start = cpu_seconds();
  const std::int64_t start = now_ns();
  std::int64_t optimize_begin = 0, optimize_end = 0;
  std::string error;
  try {
    if (workload == Workload::kFcMcSweep)
      run_sweep(sweep, *instance, json);
    else
      run_optimize(workload, seed, *instance, json, optimize_begin,
                   optimize_end);
  } catch (const std::exception& e) {
    error = e.what();
  }
  const std::int64_t end = now_ns();
  const double cpu = cpu_seconds() - cpu_start;

  json.key("error");
  if (error.empty())
    json.raw("null");
  else
    json.string(error);
  json.key("wall_s");
  json.number(1e-9 * static_cast<double>(end - start));
  json.key("cpu_s");
  json.number(cpu);
  write_run_report(json);
  if (traced) {
    json.key("section_span");
    json.raw(tuple_of({start, end}));
    json.key("optimize_span");
    json.raw(optimize_end > optimize_begin
                 ? tuple_of({optimize_begin, optimize_end})
                 : std::string("null"));
  }
  write_model_spans(json, *instance->sink, traced);
  json.close('}');
}

/// Outside timing of one dense LU factorization at n = 25, the size of the
/// opamp testbenches' MNA systems: appends `chunks` samples, each the mean
/// of 200 refill + refactor passes, to `chunk_us`.  Returns false if the
/// factors solve to a non-finite value.
bool time_lu_chunks(int chunks, std::vector<double>& chunk_us) {
  constexpr std::size_t n = 25;
  constexpr int kPasses = 200;
  linalg::Matrixd a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = i == j ? 4.0 + static_cast<double>(n)
                       : 1.0 / (1.0 + static_cast<double>(i + 2 * j));
  linalg::Lu<double> lu;
  bool finite = true;
  CpuRoundRobin cpus;
  for (int c = 0; c < chunks; ++c) {
    cpus.next();
    const std::int64_t start = now_ns();
    for (int k = 0; k < kPasses; ++k) {
      lu.workspace(n, false) = a;
      lu.refactor();
    }
    chunk_us.push_back(1e-3 * static_cast<double>(now_ns() - start) / kPasses);
    double x[n], b[n];
    for (std::size_t i = 0; i < n; ++i) b[i] = 1.0;
    lu.solve_into(b, x);
    finite = finite && std::isfinite(x[0]);
  }
  return finite;
}

/// Peak resident memory of this process image.  VmHWM, not getrusage():
/// ru_maxrss survives exec and would report the launching interpreter's
/// peak when that was larger.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return NAN;
  char line[256];
  double kib = NAN;
  while (std::fgets(line, sizeof line, status) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(status);
  return kib / 1024.0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload "
               "fc_optimize|miller_optimize|fc_mc_sweep --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload")
      workload_name = value;
    else if (flag == "--seed")
      seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds")
      seconds = std::strtod(value, nullptr);
    else if (flag == "--trace")
      trace = std::atoi(value);
    else
      return usage();
  }
  Workload workload;
  if (workload_name == "fc_optimize")
    workload = Workload::kFcOptimize;
  else if (workload_name == "miller_optimize")
    workload = Workload::kMillerOptimize;
  else if (workload_name == "fc_mc_sweep")
    workload = Workload::kFcMcSweep;
  else
    return usage();
  if (!(seconds > 0.0) || (trace != 0 && trace != 1)) return usage();

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  if (build_type != "Release" || assertions || PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to report from a '%s'%s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizers\n",
                 build_type.c_str(), PERFBENCH_SANITIZED ? " sanitizer" : "");
    return 3;
  }

  std::vector<double> setup_s;
  const std::vector<stats::SampleSet> sweep =
      workload == Workload::kFcMcSweep
          ? sweep_inputs(seed, circuits::FoldedCascodeStats::kCount)
          : std::vector<stats::SampleSet>{};

  Json reps;
  reps.open('[');
  // Traced runs time the LU kernel after every repetition, so its samples
  // spread over the run like the workload's own.
  std::vector<double> lu_chunk_us;
  bool lu_finite = true;
  const std::int64_t start = now_ns();
  const int min_reps = trace == 1 ? 2 : 1;
  for (int rep = 0;
       rep < min_reps || 1e-9 * static_cast<double>(now_ns() - start) < seconds;
       ++rep) {
    run_repetition(workload, seed, trace == 1 && rep % 2 == 1, sweep, setup_s,
                   reps);
    if (trace == 1) lu_finite = time_lu_chunks(12, lu_chunk_us) && lu_finite;
  }
  reps.close(']');

  Json json;
  json.open('{');
  json.key("workload");
  json.string(workload_name);
  json.key("seed");
  json.integer(seed);
  json.key("threads");
  json.integer(workload == Workload::kFcOptimize ? fc_threads() : 1);
  json.key("build_type");
  json.string(build_type);
  json.key("setup_s");
  json.numbers(setup_s);
  json.key("reps");
  json.raw(reps.text());
  json.key("peak_rss_mb");
  json.number(peak_rss_mb());
  if (trace == 1) {
    std::nth_element(lu_chunk_us.begin(),
                     lu_chunk_us.begin() + lu_chunk_us.size() / 2,
                     lu_chunk_us.end());
    json.key("lu_factor_us");
    json.number(lu_finite ? lu_chunk_us[lu_chunk_us.size() / 2] : NAN);
  }
  json.close('}');
  std::printf("%s\n", json.text().c_str());
  return 0;
}
