// Worker-pool stress suite: a synthetic kernel with randomized task
// durations runs under 1-16 workers, asserting the pool's result is
// bit-for-bit equal to a single-threaded reference that accumulates
// tasks in id order through the same per-task accumulation buffers.
// Also covers worker-exception propagation (the old
// join-without-shutdown destructor hang).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "omx/exec/rhs_kernel.hpp"
#include "omx/obs/trace.hpp"
#include "omx/runtime/worker_pool.hpp"
#include "omx/sched/lpt.hpp"
#include "omx/support/rng.hpp"

namespace omx::runtime {
namespace {

constexpr std::uint32_t kNoThrow = 0xffffffffu;

// Synthetic task kernel: task k spins through iters[k] transcendental
// rounds (the randomized duration), then accumulates one partial sum per
// out slot. Consecutive tasks share output slots, so floating-point
// accumulation ORDER is observable in the result's low bits — exactly
// what the bit-for-bit determinism check needs. The computation depends
// only on (task, t, y), never on the lane or executing thread.
struct StressKernel {
  exec::TaskTable table;
  std::vector<std::uint32_t> iters;
  std::uint32_t n_state = 0;
  std::uint32_t throw_task = kNoThrow;
  exec::RhsKernel kernel;

  static void task_fn(void* ctx, std::size_t /*lane*/, std::uint32_t task,
                      double t, const double* y, double* ydot) {
    auto* k = static_cast<StressKernel*>(ctx);
    if (task == k->throw_task) {
      throw std::runtime_error("stress task exploded");
    }
    const exec::TaskMeta& meta = k->table.tasks[task];
    double acc = t + static_cast<double>(task) * 0.0625;
    for (std::uint32_t i = 0; i < k->iters[task]; ++i) {
      acc += std::sin(y[(task + i) % k->n_state] + acc * 1e-3);
    }
    for (std::uint32_t slot : meta.out_slots) {
      ydot[slot] += acc * static_cast<double>(slot + 1);
    }
  }

  static void eval_fn(void* ctx, double t, const double* y, double* ydot) {
    auto* k = static_cast<StressKernel*>(ctx);
    for (std::uint32_t s = 0; s < k->n_state; ++s) {
      ydot[s] = 0.0;
    }
    for (std::uint32_t task = 0; task < k->table.size(); ++task) {
      task_fn(ctx, 0, task, t, y, ydot);
    }
  }
};

std::unique_ptr<StressKernel> make_stress(std::size_t n_tasks,
                                          std::uint32_t n_state,
                                          std::uint64_t seed,
                                          std::size_t lanes,
                                          std::uint32_t max_iters) {
  auto k = std::make_unique<StressKernel>();
  k->n_state = n_state;
  SplitMix64 rng(seed);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    exec::TaskMeta meta;
    // Two slots per task, overlapping the next task's first slot.
    const auto a = static_cast<std::uint32_t>(t % n_state);
    const auto b = static_cast<std::uint32_t>((t + 1) % n_state);
    meta.out_slots = a < b ? std::vector<std::uint32_t>{a, b}
                           : std::vector<std::uint32_t>{b, a};
    meta.in_states = {a, b};
    // Randomized duration, heavy-tailed: a few tasks dominate.
    const std::uint32_t iters =
        1 + static_cast<std::uint32_t>(
                rng.next_double() * rng.next_double() * max_iters);
    k->iters.push_back(iters);
    meta.est_cost = static_cast<double>(iters);
    k->table.tasks.push_back(std::move(meta));
  }
  k->kernel = exec::RhsKernel(exec::Backend::kReference, k.get(),
                              &StressKernel::eval_fn,
                              &StressKernel::task_fn, n_state, n_state,
                              lanes, &k->table);
  return k;
}

std::vector<double> start_state(std::uint32_t n_state) {
  std::vector<double> y(n_state);
  for (std::uint32_t i = 0; i < n_state; ++i) {
    y[i] = 0.1 * static_cast<double>(i) - 0.5;
  }
  return y;
}

// Single-threaded reference: accumulate tasks in id order through a
// per-task scratch buffer, mirroring the pool's accumulation structure.
std::vector<double> reference_eval(const StressKernel& k, double t,
                                   std::span<const double> y) {
  std::vector<double> ydot(k.n_state, 0.0);
  std::vector<double> scratch(k.n_state, 0.0);
  for (std::uint32_t task = 0; task < k.table.size(); ++task) {
    for (std::uint32_t slot : k.table.tasks[task].out_slots) {
      scratch[slot] = 0.0;
    }
    StressKernel::task_fn(const_cast<StressKernel*>(&k), 0, task, t,
                          y.data(), scratch.data());
    for (std::uint32_t slot : k.table.tasks[task].out_slots) {
      ydot[slot] += scratch[slot];
    }
  }
  return ydot;
}

sched::Schedule lpt_for(const StressKernel& k, std::size_t workers) {
  std::vector<double> weights;
  for (const exec::TaskMeta& m : k.table.tasks) {
    weights.push_back(m.est_cost);
  }
  return sched::lpt_schedule(weights, workers);
}

TEST(RuntimeStress, BitForBitAcrossWorkerCountsAndModes) {
  const auto k = make_stress(64, 24, /*seed=*/42, /*lanes=*/16,
                             /*max_iters=*/2000);
  const auto y = start_state(k->n_state);
  const std::vector<double> ref0 = reference_eval(*k, 0.0, y);
  const std::vector<double> ref1 = reference_eval(*k, 0.25, y);

  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u, 16u}) {
    WorkerPool::Options opts;
    opts.num_workers = workers;
    WorkerPool pool(k->kernel, opts);
    pool.set_schedule(lpt_for(*k, workers));
    std::vector<double> got(k->n_state);
    for (int round = 0; round < 3; ++round) {
      const double t = round == 1 ? 0.25 : 0.0;
      const std::vector<double>& ref = round == 1 ? ref1 : ref0;
      pool.eval(t, y, got);
      for (std::uint32_t i = 0; i < k->n_state; ++i) {
        // EXPECT_EQ on double: exact, bit-for-bit comparison.
        EXPECT_EQ(got[i], ref[i])
            << "workers=" << workers << " round=" << round << " slot=" << i;
      }
    }
  }
}

TEST(RuntimeStress, RandomSeedsSweep) {
  for (const std::uint64_t seed : {7ull, 1234ull, 987654321ull}) {
    const auto k = make_stress(48, 16, seed, /*lanes=*/8,
                               /*max_iters=*/1200);
    const auto y = start_state(k->n_state);
    const std::vector<double> ref = reference_eval(*k, 1.5, y);
    WorkerPool::Options opts;
    opts.num_workers = 1 + seed % 8;
    WorkerPool pool(k->kernel, opts);
    pool.set_schedule(lpt_for(*k, opts.num_workers));
    std::vector<double> got(k->n_state);
    pool.eval(1.5, y, got);
    EXPECT_EQ(got, ref) << "seed=" << seed;
  }
}

TEST(RuntimeStress, WorkerExceptionPropagatesAndPoolSurvives) {
  const auto k = make_stress(24, 8, /*seed=*/5, /*lanes=*/4,
                             /*max_iters=*/200);
  const auto y = start_state(k->n_state);
  const std::vector<double> ref = reference_eval(*k, 0.0, y);
  WorkerPool::Options opts;
  opts.num_workers = 4;
  WorkerPool pool(k->kernel, opts);
  pool.set_schedule(lpt_for(*k, 4));
  std::vector<double> got(k->n_state);

  k->throw_task = 13;
  EXPECT_THROW(pool.eval(0.0, y, got), std::runtime_error);

  // The pool must stay usable after the failed epoch...
  k->throw_task = kNoThrow;
  pool.eval(0.0, y, got);
  EXPECT_EQ(got, ref);

  // ...and throwing again right before destruction must not hang the
  // destructor (the old code joined without signaling shutdown).
  k->throw_task = 13;
  EXPECT_THROW(pool.eval(0.0, y, got), std::runtime_error);
}

TEST(RuntimeStress, RecorderConcurrentWritersAndReaders) {
  // Flight-recorder race gate (runs under TSan via the RuntimeStress
  // filter): 8 writer threads record step events past a small per-thread
  // capacity while a reader concurrently snapshots step_events() and
  // dropped(). record() must never block and every event must land
  // exactly once or be counted as dropped.
  constexpr std::size_t kCapacity = 1024;
  constexpr int kWriters = 8;
  constexpr int kRecordsPerWriter = 10000;
  obs::TraceBuffer rec(kCapacity);
  rec.start(obs::TraceBuffer::kSteps);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::vector<obs::StepEvent> snap = rec.step_events();
      // A concurrent snapshot sees a time-sorted prefix of each log.
      for (std::size_t i = 1; i < snap.size(); ++i) {
        ASSERT_LE(snap[i - 1].when_ns, snap[i].when_ns);
      }
      (void)rec.dropped();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rec, w] {
      for (int i = 0; i < kRecordsPerWriter; ++i) {
        obs::StepEvent ev;
        ev.kind = obs::StepEventKind::kStepAccepted;
        ev.method = "bdf";
        ev.lane = static_cast<std::uint32_t>(w);
        ev.t = i;
        rec.record(ev);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  rec.stop();

  // Accounting is exact: each writer fills its capacity, then drops.
  EXPECT_EQ(rec.step_events().size(), kWriters * kCapacity);
  EXPECT_EQ(rec.dropped(),
            static_cast<std::uint64_t>(kWriters) *
                (kRecordsPerWriter - kCapacity));
}

TEST(RuntimeStress, SpanWritersAndConcurrentReader) {
  // Span race gate (runs under TSan via the RuntimeStress filter): 8
  // threads close spans, each across many chunks of its log, while a
  // reader snapshots events(). A snapshot sees a prefix of each thread's
  // spans, in the order they closed; at the end every span is there.
  constexpr int kWriters = 8;
  constexpr int kSpansPerWriter = 5000;
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  tb.start();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      std::map<std::uint32_t, std::int64_t> last_end;
      for (const obs::TraceEvent& ev : tb.events()) {
        ASSERT_EQ(ev.name, "span");
        const std::int64_t end = ev.start_ns + ev.dur_ns;
        ASSERT_LE(last_end[ev.tid], end);
        last_end[ev.tid] = end;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        obs::Span span("span", "test");
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }
  done.store(true, std::memory_order_relaxed);
  reader.join();
  tb.stop();

  std::map<std::uint32_t, std::int64_t> per_thread;
  for (const obs::TraceEvent& ev : tb.events()) {
    ++per_thread[ev.tid];
  }
  EXPECT_EQ(per_thread.size(), static_cast<std::size_t>(kWriters));
  for (const auto& [tid, count] : per_thread) {
    EXPECT_EQ(count, kSpansPerWriter) << "thread " << tid;
  }
}

}  // namespace
}  // namespace omx::runtime
