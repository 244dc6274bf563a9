#include "omx/runtime/worker_pool.hpp"

#include <algorithm>
#include <string>

#include "omx/obs/trace.hpp"
#include "omx/support/timer.hpp"

namespace omx::runtime {

namespace {
// Fixed per-message envelope (header, tags) in bytes.
constexpr std::size_t kHeaderBytes = 16;
}  // namespace

WorkerPool::WorkerPool(const exec::RhsKernel& kernel, const Options& opts)
    : kernel_(&kernel), opts_(opts) {
  init();
}

void WorkerPool::init() {
  OMX_REQUIRE(opts_.num_workers >= 1, "need at least one worker");
  OMX_REQUIRE(opts_.compute_scale >= 1, "compute_scale must be >= 1");
  if (!kernel_->has_tasks()) {
    throw Error(
        "WorkerPool needs a kernel with a task decomposition; only "
        "Backend::kInterp kernels have one");
  }
  OMX_REQUIRE(kernel_->num_lanes() >= opts_.num_workers,
              "kernel has fewer lanes than workers");
  obs::Registry& reg = obs::Registry::global();
  rhs_calls_metric_ = &reg.counter("rhs.calls");
  tasks_run_metric_ = &reg.counter("rhs.tasks_run");
  task_seconds_metric_ = &reg.histogram(
      "pool.task_seconds", obs::log_spaced_bounds(1e-7, 1.0));

  y_.resize(kernel_->n_state(), 0.0);
  // Request message: t plus the full state vector.
  state_bytes_ = kHeaderBytes + 8 * (kernel_->n_state() + 1);
  const exec::TaskTable& table = kernel_->tasks();
  task_seconds_.assign(table.size(), 0.0);
  task_result_offset_.resize(table.size() + 1);
  std::size_t offset = 0;
  for (std::size_t t = 0; t < table.size(); ++t) {
    task_result_offset_[t] = offset;
    offset += table.tasks[t].out_slots.size();
  }
  task_result_offset_[table.size()] = offset;
  task_results_.assign(offset, 0.0);

  workers_.reserve(opts_.num_workers);
  for (std::size_t w = 0; w < opts_.num_workers; ++w) {
    auto ws = std::make_unique<WorkerState>();
    ws->task_out.assign(kernel_->n_out(), 0.0);
    workers_.push_back(std::move(ws));
  }
  // Default schedule: round-robin, replaced by the caller via
  // set_schedule() (LPT) in normal operation.
  sched::Schedule rr(opts_.num_workers);
  for (std::size_t i = 0; i < kernel_->num_tasks(); ++i) {
    rr[i % opts_.num_workers].push_back(static_cast<std::uint32_t>(i));
  }
  set_schedule(rr);

  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerState& w_ref = *workers_[i];
    workers_[i]->thread =
        std::thread([this, &w_ref, i] { worker_main(w_ref, i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(start_mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
}

void WorkerPool::set_schedule(const sched::Schedule& schedule) {
  OMX_REQUIRE(schedule.size() == workers_.size(),
              "schedule/worker count mismatch");
  const exec::TaskTable& table = kernel_->tasks();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->tasks = schedule[w];
    std::size_t outputs = 0;
    for (std::uint32_t t : schedule[w]) {
      OMX_REQUIRE(t < table.size(), "task index out of range");
      outputs += table.tasks[t].out_slots.size();
    }
    // Response message: one (slot, value) pair per output.
    workers_[w]->result_bytes = kHeaderBytes + 16 * outputs;
  }
  // A task the new schedule omits must contribute zero, not a stale
  // value from an earlier schedule.
  std::fill(task_results_.begin(), task_results_.end(), 0.0);
}

void WorkerPool::execute_task(WorkerState& w, std::size_t index,
                              std::uint32_t task) {
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  const exec::TaskMeta& meta = kernel_->tasks().tasks[task];
  const bool tracing = tb.active();
  const std::int64_t span_start = tracing ? tb.now_ns() : 0;
  Stopwatch timer;
  for (std::size_t rep = 0; rep < opts_.compute_scale; ++rep) {
    // run_task accumulates, so its slots are re-zeroed per rep; only the
    // final rep's values are kept.
    for (std::uint32_t slot : meta.out_slots) {
      w.task_out[slot] = 0.0;
    }
    kernel_->run_task(index, task, t_, y_.data(), w.task_out.data());
  }
  task_seconds_[task] = timer.seconds();
  task_seconds_metric_->observe(task_seconds_[task]);
  if (tracing) {
    tb.record("task", "task", span_start, tb.now_ns() - span_start, task);
  }
  double* dst = task_results_.data() + task_result_offset_[task];
  for (std::uint32_t slot : meta.out_slots) {
    *dst++ = w.task_out[slot];
  }
}

void WorkerPool::run_epoch(WorkerState& w, std::size_t index) {
  // Drain the fixed assignment (§3.2.3), nothing else.
  if (w.tasks.empty()) {
    return;
  }
  stats_.charge(opts_.net, state_bytes_);  // receive the state message
  std::size_t executed = 0;
  for (std::uint32_t task : w.tasks) {
    if (abort_.load(std::memory_order_acquire)) {
      break;
    }
    execute_task(w, index, task);
    ++executed;
  }
  if (executed > 0) {
    tasks_run_metric_->add(executed);
    stats_.charge(opts_.net, w.result_bytes);  // send the results back
  }
}

void WorkerPool::worker_main(WorkerState& w, std::size_t index) {
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  tb.set_thread_name("worker/" + std::to_string(index));
  std::uint64_t last_epoch = 0;
  while (true) {
    {
      const std::int64_t idle_start = tb.active() ? tb.now_ns() : -1;
      std::unique_lock<std::mutex> lock(start_mutex_);
      start_cv_.wait(lock,
                     [&] { return epoch_ > last_epoch || shutdown_; });
      if (idle_start >= 0 && tb.active()) {
        tb.record("idle", "worker", idle_start, tb.now_ns() - idle_start);
      }
      if (shutdown_) {
        return;
      }
      last_epoch = epoch_;
    }
    std::exception_ptr error;
    try {
      run_epoch(w, index);
    } catch (...) {
      // Abort the epoch: peers stop claiming tasks and park, and the
      // supervisor re-throws after the finish handshake.
      error = std::current_exception();
      abort_.store(true, std::memory_order_release);
    }
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      if (error != nullptr && first_error_ == nullptr) {
        first_error_ = error;
      }
      ++workers_done_;
    }
    done_cv_.notify_all();
  }
}

void WorkerPool::eval(double t, std::span<const double> y,
                      std::span<double> ydot) {
  OMX_REQUIRE(y.size() == kernel_->n_state(), "state size mismatch");
  OMX_REQUIRE(ydot.size() == kernel_->n_out(), "ydot size mismatch");

  // The store keeps thread names across start()s, so a thread is named
  // on its first traced eval only, not once per eval under the store's
  // mutex.
  thread_local bool named = false;
  if (!named && obs::TraceBuffer::global().active()) {
    obs::TraceBuffer::global().set_thread_name("supervisor");
    named = true;
  }
  obs::Span eval_span("rhs.eval", "runtime");

  t_ = t;
  std::copy(y.begin(), y.end(), y_.begin());
  ++generation_;

  {
    // Distribution phase: the supervisor serializes the sends (it is one
    // processor writing to the interconnect), then each worker pays its
    // receive cost concurrently. All epoch inputs are published by the
    // start_mutex_ acquisition below.
    obs::Span scatter("scatter", "runtime");
    for (auto& w : workers_) {
      if (!w->tasks.empty()) {
        stats_.charge(opts_.net, state_bytes_);  // supervisor send cost
      }
    }
    abort_.store(false, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      workers_done_ = 0;
    }
    {
      std::lock_guard<std::mutex> lock(start_mutex_);
      epoch_ = generation_;
    }
    start_cv_.notify_all();
  }

  // Collection phase: wait for every worker, then accumulate the
  // per-task results in task-id order — deterministic regardless of
  // which worker executed which task.
  std::exception_ptr error;
  {
    obs::Span gather("gather", "runtime");
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [&] { return workers_done_ == workers_.size(); });
    error = first_error_;
    first_error_ = nullptr;
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }

  for (auto& w : workers_) {
    if (!w->tasks.empty()) {
      stats_.charge(opts_.net, w->result_bytes);
    }
  }

  std::fill(ydot.begin(), ydot.end(), 0.0);
  const exec::TaskTable& table = kernel_->tasks();
  for (std::size_t task = 0; task < table.size(); ++task) {
    const double* src = task_results_.data() + task_result_offset_[task];
    for (std::uint32_t slot : table.tasks[task].out_slots) {
      ydot[slot] += *src++;
    }
  }

  rhs_calls_metric_->add();
  ++evals_completed_;
}

}  // namespace omx::runtime
