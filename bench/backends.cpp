// Execution-backend shootout: serial RHS throughput of the tape
// interpreter vs the runtime-compiled native kernel on the 2-D bearing
// body (the paper's headline model). Prints a table and exports the
// rates, speedup and native-compile cost to BENCH_backends.json through
// the obs JSON metrics exporter so the trajectory can be tracked across
// revisions.
//
// The acceptance bar for this repo is native >= 2x interp on this body.
// The single-solve rows (one ode::solve per backend) and the worker-pool
// rows (static LPT throughput, per-call hand-off cost) are report-only.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "omx/exec/native.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/runtime/parallel_rhs.hpp"

namespace {

/// Times repeated calls of `body`, warmed up and calibrated to ~0.3 s of
/// work starting from `reps` calls; returns calls per second.
template <typename Body>
double rate(Body&& body, std::size_t reps) {
  using clock = std::chrono::steady_clock;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      body();
    }
    const double secs = std::chrono::duration<double>(clock::now() - t0)
                            .count();
    if (secs >= 0.3) {
      return static_cast<double>(reps) / secs;
    }
    reps = secs > 1e-6
               ? static_cast<std::size_t>(0.4 * static_cast<double>(reps) /
                                          secs) +
                     1
               : reps * 8;
  }
}

/// Times repeated whole-system evals of any RHS-shaped callable; returns
/// calls per second.
template <typename Eval>
double time_eval(Eval&& eval, std::size_t n_out,
                 std::span<const double> y0) {
  std::vector<double> y(y0.begin(), y0.end());
  std::vector<double> ydot(n_out);
  return rate([&] { eval(0.0, y, ydot); }, 64);
}

/// Times repeated single dopri5 solves of the kernel's problem over
/// [0, tend], final state only; returns solves per second. Every
/// evaluation is one eval_batch call at width 1 on kernel lane 0.
double time_solve(const omx::pipeline::CompiledModel& cm,
                  const omx::exec::KernelInstance& k, double tend) {
  const omx::ode::Problem p = cm.make_problem(k, 0.0, tend);
  omx::ode::SolverOptions o;
  o.record_every = 1u << 30;
  return rate(
      [&] {
        omx::ode::StatsOnlySink sink;
        omx::ode::solve(p, omx::ode::Method::kDopri5, o, sink);
      },
      1);
}

double time_kernel(const omx::exec::RhsKernel& k,
                   std::span<const double> y0) {
  return time_eval(k, k.n_out(), y0);
}

}  // namespace

int main() {
  using namespace omx;

  // The exported JSON must come out populated (and the compile-cost
  // counters live) even when the process-wide metric switch is off.
  obs::set_enabled(true);

  models::BearingConfig cfg;  // 10 rollers as in the paper
  pipeline::CompiledModel cm = pipeline::compile_model(
      [&](expr::Context& ctx) { return models::build_bearing(ctx, cfg); });

  std::vector<double> y0(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y0[i] = cm.flat->states()[i].start;
  }

  const exec::KernelInstance interp =
      cm.make_kernel(exec::Backend::kInterp);
  const exec::KernelInstance native =
      cm.make_kernel(exec::Backend::kNative);
  const bool have_native = native.backend() == exec::Backend::kNative;

  std::printf("Execution backends: 2-D bearing (%d rollers, %zu states,"
              " %zu tape ops)\n\n",
              cfg.n_rollers, cm.n(), cm.serial_program.total_ops());
  std::printf("%-10s %-16s %s\n", "backend", "RHS calls/s", "ns/call");

  const double r_interp = time_kernel(interp.kernel(), y0);
  std::printf("%-10s %-16.0f %.0f\n", "interp", r_interp, 1e9 / r_interp);

  double r_native = 0.0;
  if (have_native) {
    r_native = time_kernel(native.kernel(), y0);
    std::printf("%-10s %-16.0f %.0f\n", "native", r_native, 1e9 / r_native);
  } else {
    std::printf("%-10s %-16s (no host compiler; fell back to interp)\n",
                "native", "n/a");
  }

  // Single solves: the whole solver loop around each kernel. Report-only.
  constexpr double kSolveTend = 0.004;
  std::printf("\n%-10s %-16s %s (dopri5 to t=%g)\n", "backend", "solves/s",
              "ms/solve", kSolveTend);
  const double s_interp = time_solve(cm, interp, kSolveTend);
  std::printf("%-10s %-16.1f %.3f\n", "interp", s_interp, 1e3 / s_interp);
  double s_native = 0.0;
  if (have_native) {
    s_native = time_solve(cm, native, kSolveTend);
    std::printf("%-10s %-16.1f %.3f\n", "native", s_native, 1e3 / s_native);
  }

  const double speedup = have_native ? r_native / r_interp : 0.0;
  if (have_native) {
    std::printf("\nnative/interp speedup: %.2fx  (bar: >= 2x) %s\n", speedup,
                speedup >= 2.0 ? "[MATCH]" : "[MISMATCH]");
  }

  // One-time compile cost, from the global registry the backend feeds.
  auto& g = obs::Registry::global();
  const double compile_s = g.gauge("backend.compile_seconds").value();
  std::printf("native compiles this run: %llu (cache hits %llu),"
              " last compile %.2f s\n",
              static_cast<unsigned long long>(
                  g.counter("backend.native.compiles").value()),
              static_cast<unsigned long long>(
                  g.counter("backend.native.cache_hits").value()),
              compile_s);

  // Worker pool: semi-dynamic LPT at 4 workers over the ideal
  // interconnect. compute_scale pads the task bodies so thread
  // coordination costs do not drown the throughput figure. The hand-off
  // row is the other way round: at compute_scale 1, one pooled call
  // minus one serial call on the same kernel is what the supervisor/
  // worker exchange itself costs per call.
  constexpr std::size_t kPoolWorkers = 4;
  constexpr std::size_t kComputeScale = 20;
  pipeline::KernelOptions kopts;
  kopts.lanes = kPoolWorkers;
  const exec::KernelInstance pooled =
      cm.make_kernel(exec::Backend::kInterp, kopts);
  runtime::ParallelRhsOptions popts;
  popts.pool.num_workers = kPoolWorkers;
  popts.pool.net = runtime::Interconnect::ideal();
  popts.pool.compute_scale = kComputeScale;
  runtime::ParallelRhs rhs_static(pooled.kernel(), popts);
  const double r_static = time_eval(rhs_static, cm.n(), y0);

  popts.pool.compute_scale = 1;
  runtime::ParallelRhs rhs_pool1(pooled.kernel(), popts);
  const double r_pool1 = time_eval(rhs_pool1, cm.n(), y0);
  runtime::SerialRhs rhs_serial(pooled.kernel());
  const double r_serial = time_eval(rhs_serial, cm.n(), y0);
  const double handoff_us = 1e6 * (1.0 / r_pool1 - 1.0 / r_serial);
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("\nworker pool (%zu workers, compute_scale %zu, ideal"
              " net):\n", kPoolWorkers, kComputeScale);
  std::printf("%-10s %-16.0f %.0f\n", "static", r_static, 1e9 / r_static);
  std::printf("hand-off per call (compute_scale 1): %.1f us"
              " (pooled %.1f us - serial %.1f us; %u cores)\n",
              handoff_us, 1e6 / r_pool1, 1e6 / r_serial, hw);

  obs::Registry metrics;
  metrics.gauge("backends.n_states").set(static_cast<double>(cm.n()));
  metrics.gauge("backends.tape_ops")
      .set(static_cast<double>(cm.serial_program.total_ops()));
  metrics.gauge("backends.interp.calls_per_s").set(r_interp);
  metrics.gauge("backends.native.available").set(have_native ? 1.0 : 0.0);
  metrics.gauge("backends.native.calls_per_s").set(r_native);
  metrics.gauge("backends.native_over_interp").set(speedup);
  metrics.gauge("backends.interp.solves_per_s").set(s_interp);
  metrics.gauge("backends.native.solves_per_s").set(s_native);
  metrics.gauge("backends.native.compile_seconds").set(compile_s);
  metrics.gauge("backends.pool.workers")
      .set(static_cast<double>(kPoolWorkers));
  metrics.gauge("backends.pool.compute_scale")
      .set(static_cast<double>(kComputeScale));
  metrics.gauge("backends.pool.static.calls_per_s").set(r_static);
  metrics.gauge("backends.pool.handoff_us").set(handoff_us);
  metrics.gauge("backends.hardware_concurrency")
      .set(static_cast<double>(hw));
  const char* out_path = "BENCH_backends.json";
  if (obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::printf("\nwrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
