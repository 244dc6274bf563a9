// Supervisor/worker runtime: functional equivalence with serial
// execution, determinism across worker counts, message accounting, the
// communication-analysis ablation, and the virtual-time machine model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "omx/codegen/tape.hpp"
#include "omx/model/flatten.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/parser/parser.hpp"
#include "omx/runtime/parallel_rhs.hpp"
#include "omx/runtime/simulated_machine.hpp"

namespace omx::runtime {
namespace {

struct Compiled {
  std::unique_ptr<expr::Context> ctx;
  std::unique_ptr<model::FlatSystem> flat;
  vm::Program program;
};

Compiled compile_bearing(int rollers) {
  Compiled c;
  c.ctx = std::make_unique<expr::Context>();
  models::BearingConfig cfg;
  cfg.n_rollers = rollers;
  c.flat = std::make_unique<model::FlatSystem>(
      model::flatten(models::build_bearing(*c.ctx, cfg)));
  const auto set = codegen::build_assignments(*c.flat);
  const auto plan = codegen::plan_tasks(*c.flat, set, {});
  c.program = codegen::compile_parallel_tape(*c.flat, plan);
  return c;
}

std::vector<double> start_state(const model::FlatSystem& f) {
  std::vector<double> y;
  for (const auto& s : f.states()) {
    y.push_back(s.start);
  }
  return y;
}

TEST(WorkerPool, MatchesReferenceForAnyWorkerCount) {
  const Compiled c = compile_bearing(4);
  const auto y = start_state(*c.flat);
  std::vector<double> ref(y.size());
  c.flat->eval_rhs(0.0, y, ref);

  for (std::size_t workers : {1, 2, 3, 7}) {
    WorkerPool::Options opts;
    opts.num_workers = workers;
    const exec::KernelInstance pool_kernel =
        exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
    WorkerPool pool(pool_kernel.kernel(), opts);
    std::vector<double> got(y.size());
    pool.eval(0.0, y, got);
    for (std::size_t i = 0; i < y.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-9 * std::max(1.0, std::fabs(ref[i])))
          << "workers=" << workers << " state " << i;
    }
  }
}

TEST(WorkerPool, RepeatedEvalsAreDeterministic) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  WorkerPool::Options opts;
  opts.num_workers = 3;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  std::vector<double> a(y.size()), b(y.size());
  pool.eval(0.1, y, a);
  pool.eval(0.1, y, b);
  EXPECT_EQ(a, b);  // bitwise: same schedule, same accumulation order
}

TEST(WorkerPool, BitForBitIdenticalAcrossWorkerCountsAndStealing) {
  // Per-task result buffers + task-id-order accumulation make the result
  // bit-for-bit identical no matter how many workers run — a stronger
  // guarantee than the seed's EXPECT_NEAR checks.
  const Compiled c = compile_bearing(6);
  const auto y = start_state(*c.flat);
  WorkerPool::Options base_opts;
  base_opts.num_workers = 1;
  const exec::KernelInstance base_kernel =
      exec::make_interp_kernel(c.program, nullptr, {base_opts.num_workers});
  WorkerPool base(base_kernel.kernel(), base_opts);
  std::vector<double> ref(y.size());
  base.eval(0.2, y, ref);

  for (const std::size_t workers : {2u, 4u, 8u}) {
    WorkerPool::Options opts;
    opts.num_workers = workers;
    const exec::KernelInstance pool_kernel =
        exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
    WorkerPool pool(pool_kernel.kernel(), opts);
    std::vector<double> got(y.size());
    pool.eval(0.2, y, got);
    EXPECT_EQ(got, ref) << "workers=" << workers;
  }
}

TEST(WorkerPool, CountsMessages) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  WorkerPool::Options opts;
  opts.num_workers = 2;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  std::vector<double> out(y.size());
  pool.eval(0.0, y, out);
  // Per busy worker: supervisor send + worker receive + worker send +
  // supervisor receive = 4 charges.
  EXPECT_EQ(pool.stats().messages.load(), 8u);
  EXPECT_GT(pool.stats().bytes.load(), 0u);
}

TEST(WorkerPool, ScheduleUpdateKeepsResultsCorrect) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  std::vector<double> ref(y.size());
  c.flat->eval_rhs(0.0, y, ref);

  WorkerPool::Options opts;
  opts.num_workers = 2;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  // Pathological schedule: everything on worker 1.
  sched::Schedule s(2);
  for (std::uint32_t t = 0;
       t < static_cast<std::uint32_t>(c.program.tasks.size()); ++t) {
    s[1].push_back(t);
  }
  pool.set_schedule(s);
  std::vector<double> got(y.size());
  pool.eval(0.0, y, got);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-9 * std::max(1.0, std::fabs(ref[i])));
  }
}

TEST(WorkerPool, TaskTimesArePopulated) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  WorkerPool::Options opts;
  opts.num_workers = 2;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  std::vector<double> out(y.size());
  pool.eval(0.0, y, out);
  const auto times = pool.last_task_seconds();
  ASSERT_EQ(times.size(), c.program.tasks.size());
  for (double t : times) {
    EXPECT_GE(t, 0.0);
  }
}

TEST(Observability, EvalIncrementsRhsCallsCounter) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  obs::Counter& rhs_calls = obs::Registry::global().counter("rhs.calls");
  WorkerPool::Options opts;
  opts.num_workers = 2;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  std::vector<double> out(y.size());
  const std::uint64_t before = rhs_calls.value();
  for (int i = 0; i < 5; ++i) {
    pool.eval(0.0, y, out);
  }
  EXPECT_EQ(rhs_calls.value(), before + 5);
}

TEST(Observability, TaskSpansCoverEvalWallTime) {
  const Compiled c = compile_bearing(4);
  const auto y = start_state(*c.flat);
  WorkerPool::Options opts;
  opts.num_workers = 3;
  // Make tasks long enough that span durations dominate clock-read noise.
  opts.compute_scale = 50;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  std::vector<double> out(y.size());
  pool.eval(0.0, y, out);  // warm-up outside the trace

  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  tb.start();
  constexpr int kEvals = 3;
  for (int i = 0; i < kEvals; ++i) {
    pool.eval(0.0, y, out);
  }
  tb.stop();

  std::int64_t eval_wall_ns = 0;
  std::int64_t eval_spans = 0;
  std::int64_t task_ns = 0;
  std::int64_t task_spans = 0;
  for (const obs::TraceEvent& ev : tb.events()) {
    if (ev.name == "rhs.eval") {
      eval_wall_ns += ev.dur_ns;
      ++eval_spans;
    } else if (std::string_view(ev.category) == "task") {
      task_ns += ev.dur_ns;
      ++task_spans;
    }
  }
  EXPECT_EQ(eval_spans, kEvals);
  // Every scheduled task produces one span per eval.
  EXPECT_EQ(task_spans,
            kEvals * static_cast<std::int64_t>(c.program.tasks.size()));
  // The workers' task time must fit inside the supervisor's eval windows:
  // positive, and no more than workers x wall (perfect overlap).
  EXPECT_GT(task_ns, 0);
  EXPECT_LE(task_ns, eval_wall_ns * static_cast<std::int64_t>(
                                        pool.num_workers()));
}

TEST(Observability, LastTaskSecondsRequiresAnEval) {
  const Compiled c = compile_bearing(3);
  WorkerPool::Options opts;
  opts.num_workers = 2;
  const exec::KernelInstance pool_kernel =
      exec::make_interp_kernel(c.program, nullptr, {opts.num_workers});
  WorkerPool pool(pool_kernel.kernel(), opts);
  EXPECT_THROW(pool.last_task_seconds(), omx::Bug);
  const auto y = start_state(*c.flat);
  std::vector<double> out(y.size());
  pool.eval(0.0, y, out);
  EXPECT_EQ(pool.last_task_seconds().size(), c.program.tasks.size());
}

TEST(ParallelRhs, SemiDynamicReschedulesAtCadence) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  ParallelRhsOptions opts;
  opts.pool.num_workers = 2;
  opts.sched.reschedule_period = 4;
  const exec::KernelInstance rhs_kernel = exec::make_interp_kernel(
      c.program, nullptr, {opts.pool.num_workers});
  ParallelRhs rhs(rhs_kernel.kernel(), opts);
  std::vector<double> out(y.size());
  const std::size_t initial = rhs.num_reschedules();
  for (int i = 0; i < 12; ++i) {
    rhs.eval(0.0, y, out);
  }
  EXPECT_EQ(rhs.num_reschedules(), initial + 3);
  EXPECT_EQ(rhs.rhs_calls(), 12u);
  EXPECT_GT(rhs.calls_per_second(), 0.0);
}

TEST(ParallelRhs, SerialBaselineMatches) {
  const Compiled c = compile_bearing(3);
  const auto y = start_state(*c.flat);
  std::vector<double> ref(y.size());
  c.flat->eval_rhs(0.0, y, ref);
  const exec::KernelInstance serial_kernel =
      exec::make_interp_kernel(c.program, nullptr);
  SerialRhs serial(serial_kernel.kernel());
  std::vector<double> got(y.size());
  serial.eval(0.0, y, got);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-9 * std::max(1.0, std::fabs(ref[i])));
  }
}

TEST(Interconnect, PresetsAreOrdered) {
  const auto sparc = Interconnect::sparc_center_2000();
  const auto parsytec = Interconnect::parsytec_gcpp();
  EXPECT_LT(sparc.latency_s, parsytec.latency_s);
  EXPECT_DOUBLE_EQ(sparc.latency_s, 4e-6);     // §4: 4 us per byte msg
  EXPECT_DOUBLE_EQ(parsytec.latency_s, 140e-6);  // §4: 140 us
  EXPECT_GT(parsytec.message_cost(448), parsytec.latency_s);
}

// -- virtual-time machine model ---------------------------------------------

TEST(SimulatedMachine, SerialCostIsOpsTimesSpeed) {
  const Compiled c = compile_bearing(4);
  MachineModel mm = MachineModel::sparc_center_2000();
  SimulatedMachine sim(c.program, mm);
  const SimTiming t = sim.time_serial_call();
  EXPECT_DOUBLE_EQ(t.total_seconds,
                   static_cast<double>(c.program.total_ops()) *
                       mm.per_op_seconds);
  EXPECT_EQ(t.messages, 0u);
}

TEST(SimulatedMachine, LowLatencySpeedsUpHighLatencyAt16) {
  const Compiled c = compile_bearing(10);
  SimulatedMachine sparc(c.program, MachineModel::sparc_center_2000());
  SimulatedMachine parsytec(c.program, MachineModel::parsytec_gcpp());
  const auto schedule = sched::lpt_schedule(sparc.task_costs(), 16);
  const double serial = sparc.time_serial_call().total_seconds;
  const double t_sparc = sparc.time_parallel_call(schedule).total_seconds;
  const double t_pars = parsytec.time_parallel_call(schedule).total_seconds;
  EXPECT_LT(t_sparc, serial);   // shared memory still wins at 16 workers
  EXPECT_LT(t_sparc, t_pars);   // low latency beats high latency
}

TEST(SimulatedMachine, DistributedPeaksThenDegrades) {
  // The Figure 12 shape: Parsytec throughput rises, peaks at a small
  // worker count, then falls off.
  const Compiled c = compile_bearing(10);
  SimulatedMachine sim(c.program, MachineModel::parsytec_gcpp());
  const auto costs = sim.task_costs();
  std::vector<double> cps;
  for (std::size_t w = 1; w <= 16; ++w) {
    cps.push_back(sim.time_parallel_call(sched::lpt_schedule(costs, w))
                      .calls_per_second());
  }
  const auto peak = std::max_element(cps.begin(), cps.end());
  const auto peak_idx = static_cast<std::size_t>(peak - cps.begin());
  EXPECT_GE(peak_idx, 1u);       // more than one worker helps...
  EXPECT_LE(peak_idx, 9u);       // ...but saturates early
  EXPECT_LT(cps.back(), *peak);  // and 16 workers is past the peak
}

TEST(SimulatedMachine, PhysicalLimitCreatesKnee) {
  const Compiled c = compile_bearing(10);
  MachineModel mm = MachineModel::sparc_center_2000();  // physical = 8
  SimulatedMachine sim(c.program, mm);
  const auto costs = sim.task_costs();
  const double at7 =
      sim.time_parallel_call(sched::lpt_schedule(costs, 7))
          .calls_per_second();
  const double at15 =
      sim.time_parallel_call(sched::lpt_schedule(costs, 15))
          .calls_per_second();
  EXPECT_GT(at7, at15);  // beyond the machine size, time-sharing hurts
}

TEST(SimulatedMachine, CommunicationAnalysisShrinksMessages) {
  const Compiled c = compile_bearing(6);
  MachineModel mm = MachineModel::parsytec_gcpp();
  SimulatedMachine all(c.program, mm, /*communication_analysis=*/false);
  SimulatedMachine needed(c.program, mm, /*communication_analysis=*/true);
  const auto schedule = sched::lpt_schedule(all.task_costs(), 4);
  EXPECT_LE(needed.time_parallel_call(schedule).bytes,
            all.time_parallel_call(schedule).bytes);
}

}  // namespace
}  // namespace omx::runtime
