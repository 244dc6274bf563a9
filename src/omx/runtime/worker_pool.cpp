#include "omx/runtime/worker_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_set>

#include "omx/obs/trace.hpp"
#include "omx/support/config.hpp"
#include "omx/support/timer.hpp"

namespace omx::runtime {

namespace {
// Fixed per-message envelope (header, tags) in bytes.
constexpr std::size_t kHeaderBytes = 16;
}  // namespace

bool WorkerPool::stealing_env_default() {
  return config::get_bool("OMX_POOL_STEALING", false);
}

double WorkerPool::sample_hz_env_default() {
  const double hz = config::get_double("OMX_OBS_SAMPLE_HZ", 0.0);
  return hz > 0.0 ? hz : 0.0;
}

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
  steals_metric_ = &reg.counter("pool.steals");
  steal_failures_metric_ = &reg.counter("pool.steal_failures");
  idle_metric_ = &reg.counter("pool.idle_nanos");
  // Steal latency spans lock contention (~100 ns) up to a whole task on a
  // loaded machine.
  steal_latency_metric_ = &reg.histogram(
      "pool.steal_latency_seconds", obs::log_spaced_bounds(1e-7, 1e-2));
  task_seconds_metric_ = &reg.histogram(
      "pool.task_seconds", obs::log_spaced_bounds(1e-7, 1.0));

  y_.resize(kernel_->n_state(), 0.0);
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
    ws->deque.reserve(table.size());
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
  if (opts_.sample_hz > 0.0) {
    sampler_thread_ = std::thread([this] { sampler_main(); });
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
  if (sampler_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mutex_);
      sampler_shutdown_ = true;
    }
    sampler_cv_.notify_all();
    sampler_thread_.join();
  }
}

void WorkerPool::sampler_main() {
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  tb.set_thread_name("util-sampler");
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / opts_.sample_hz));
  std::unique_lock<std::mutex> lock(sampler_mutex_);
  while (!sampler_shutdown_) {
    // wait_for rather than a plain sleep so the destructor returns in at
    // most one shutdown-check latency, not one full period.
    sampler_cv_.wait_for(lock, period, [&] { return sampler_shutdown_; });
    if (sampler_shutdown_ || !tb.active()) {
      continue;
    }
    const std::int64_t now = tb.now_ns();
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const bool busy =
          workers_[i]->busy.load(std::memory_order_relaxed);
      tb.record_counter("util/worker-" + std::to_string(i), now,
                        busy ? 1.0 : 0.0);
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
    workers_[w]->result_bytes = kHeaderBytes + 16 * outputs;
  }
  // A task the new schedule omits must contribute zero, not a stale
  // value from an earlier schedule.
  std::fill(task_results_.begin(), task_results_.end(), 0.0);
  recompute_message_sizes();
}

void WorkerPool::recompute_message_sizes() {
  const exec::TaskTable& table = kernel_->tasks();
  for (auto& w : workers_) {
    std::size_t payload_states = kernel_->n_state();
    // Stealing needs the full broadcast: any worker may execute any task
    // (the paper's own argument for sending everything, §3.2.3).
    if (opts_.communication_analysis && !opts_.stealing) {
      std::unordered_set<std::uint32_t> needed;
      for (std::uint32_t t : w->tasks) {
        for (std::uint32_t s : table.tasks[t].in_states) {
          needed.insert(s);
        }
      }
      payload_states = needed.size();
    }
    // t plus the states; results carry (slot, value) pairs.
    w->state_bytes = kHeaderBytes + 8 * (payload_states + 1);
  }
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
    tb.record("task/" + std::to_string(task), "task", span_start,
              tb.now_ns() - span_start);
  }
  double* dst = task_results_.data() + task_result_offset_[task];
  for (std::uint32_t slot : meta.out_slots) {
    *dst++ = w.task_out[slot];
  }
  w.outputs_produced += meta.out_slots.size();
}

bool WorkerPool::steal_task(std::size_t thief, std::uint32_t& task) {
  // Victim: the most-loaded other worker by (racy) deque size.
  std::size_t victim = thief;
  std::size_t victim_size = 0;
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    if (i == thief) {
      continue;
    }
    const std::size_t s = workers_[i]->deque.size_estimate();
    if (s > victim_size) {
      victim_size = s;
      victim = i;
    }
  }
  if (victim == thief) {
    return false;  // everything is empty or in flight
  }
  if (workers_[victim]->deque.steal(task)) {
    return true;
  }
  steal_failures_metric_->add();
  return false;
}

void WorkerPool::run_epoch(WorkerState& w, std::size_t index) {
  std::size_t executed = 0;
  w.outputs_produced = 0;

  if (!opts_.stealing) {
    // Static §3.2.3 mode: drain the fixed assignment, nothing else.
    if (w.tasks.empty()) {
      return;
    }
    stats_.charge(opts_.net, w.state_bytes);  // receive the state message
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
    return;
  }

  // Stealing mode: drain the own deque, then steal until no task remains
  // anywhere. Every worker participates (and pays the full-state receive)
  // even with an empty seed — it may steal.
  stats_.charge(opts_.net, w.state_bytes);
  std::int64_t idle_ns = 0;
  std::uint64_t steals = 0;
  bool hunting = false;  // true while looking for a task to steal
  Stopwatch hunt;
  while (!abort_.load(std::memory_order_acquire)) {
    std::uint32_t task = 0;
    if (w.deque.pop(task)) {
      execute_task(w, index, task);
      ++executed;
      tasks_remaining_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    if (tasks_remaining_.load(std::memory_order_acquire) == 0) {
      break;  // epoch complete
    }
    if (!hunting) {
      hunting = true;
      hunt.reset();
    }
    if (steal_task(index, task)) {
      steal_latency_metric_->observe(hunt.seconds());
      hunting = false;
      ++steals;
      execute_task(w, index, task);
      ++executed;
      tasks_remaining_.fetch_sub(1, std::memory_order_acq_rel);
      continue;
    }
    // Nothing stealable, but tasks are still in flight elsewhere: yield
    // until the stragglers finish (or new steal opportunities appear —
    // they cannot, tasks are only seeded between epochs, so this wait is
    // bounded by the longest in-flight task).
    Stopwatch idle;
    std::this_thread::yield();
    idle_ns += idle.nanos();
  }
  if (executed > 0) {
    tasks_run_metric_->add(executed);
  }
  if (steals > 0) {
    steals_metric_->add(steals);
    tasks_stolen_.fetch_add(steals, std::memory_order_relaxed);
  }
  if (idle_ns > 0) {
    idle_metric_->add(static_cast<std::uint64_t>(idle_ns));
  }
  // The response message doubles as the completion report, so it is sent
  // even when this worker executed nothing — message counts stay
  // deterministic under dynamic scheduling.
  stats_.charge(opts_.net, kHeaderBytes + 16 * w.outputs_produced);
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
    w.busy.store(true, std::memory_order_relaxed);
    try {
      run_epoch(w, index);
    } catch (...) {
      // Abort the epoch: peers stop claiming tasks and park, and the
      // supervisor re-throws after the finish handshake.
      error = std::current_exception();
      abort_.store(true, std::memory_order_release);
    }
    w.busy.store(false, std::memory_order_relaxed);
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

  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  if (tb.active()) {
    tb.set_thread_name("supervisor");
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
    std::size_t total_tasks = 0;
    for (auto& w : workers_) {
      if (opts_.stealing) {
        w->deque.seed(w->tasks);
        total_tasks += w->tasks.size();
        stats_.charge(opts_.net, w->state_bytes);  // full broadcast
      } else if (!w->tasks.empty()) {
        stats_.charge(opts_.net, w->state_bytes);  // supervisor send cost
      }
    }
    tasks_remaining_.store(static_cast<std::int64_t>(total_tasks),
                           std::memory_order_relaxed);
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
    if (opts_.stealing) {
      // supervisor receive cost, mirroring the worker's send
      stats_.charge(opts_.net, kHeaderBytes + 16 * w->outputs_produced);
    } else if (!w->tasks.empty()) {
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
