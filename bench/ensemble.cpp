// Ensemble sweep shootout: 256 perturbed bearing scenarios, three ways:
//
//   sequential — scenario-at-a-time, a plain ode::solve loop on one
//                thread (the status quo before the ensemble engine);
//   width 1    — solve_ensemble at 4 workers with batching disabled
//                (isolates the scheduler from the SoA batching);
//   batched    — solve_ensemble at 4 workers, 16-wide SoA batches.
//
// plus, for the native kernel, batched at 1 worker: its RHS lane-evals/s
// against the same kernel's own rate at width 16 (batch_rhs alone, in a
// loop) measures the stepper's own overhead (report only, no gate).
//
// All three run identical per-lane step control, so the ratios isolate
// what the engine buys: worker parallelism plus tape dispatch amortized
// across lanes (interp) / contiguous SoA inner loops (native). Exports
// BENCH_ensemble.json for scripts/bench_gate.py; the repo bar is
// batched >= 3x sequential for the interpreter on a machine with >= 4
// cores (on smaller hosts only the batching amortization is gated —
// the exported hardware_concurrency tells the gate which bar applies).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/simd.hpp"

namespace {

constexpr std::size_t kScenarios = 256;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kMaxBatch = 16;
constexpr double kTend = 0.02;

using clock_type = std::chrono::steady_clock;

double scen_per_sec(clock_type::time_point t0, std::size_t n) {
  const double secs =
      std::chrono::duration<double>(clock_type::now() - t0).count();
  return static_cast<double>(n) / secs;
}

bool bitwise_equal(const omx::ode::Solution& a,
                   const omx::ode::Solution& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ta = a.time(i);
    const double tb = b.time(i);
    if (std::memcmp(&ta, &tb, sizeof(double)) != 0) {
      return false;
    }
    const std::span<const double> ya = a.state(i);
    const std::span<const double> yb = b.state(i);
    if (std::memcmp(ya.data(), yb.data(), ya.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace omx;

  obs::set_enabled(true);

  models::BearingConfig cfg;  // 10 rollers as in the paper
  pipeline::CompiledModel cm = pipeline::compile_model(
      [&](expr::Context& ctx) { return models::build_bearing(ctx, cfg); });

  // Perturbed parameter sweep: each scenario displaces the start state a
  // little, so the lanes develop distinct adaptive step histories and
  // retire at different times (the repacking path is exercised).
  std::vector<double> y0(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y0[i] = cm.flat->states()[i].start;
  }
  std::vector<std::vector<double>> starts;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    std::vector<double> y = y0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] += 1e-4 * static_cast<double>((i + 7 * s) % 13);
    }
    starts.push_back(std::move(y));
  }

  ode::SolverOptions o;
  o.record_every = 1u << 30;  // final state only; don't time appends

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Ensemble sweep: 2-D bearing (%d rollers, %zu states),"
              " %zu scenarios, dopri5 to t=%g\n"
              "%zu workers, batch width %zu, %u hardware threads\n\n",
              cfg.n_rollers, cm.n(), kScenarios, kTend, kWorkers, kMaxBatch,
              hw);
  std::printf("%-24s %-14s %s\n", "configuration", "scenarios/s",
              "ms/scenario");

  auto report = [](const char* name, double rate) {
    std::printf("%-24s %-14.1f %.1f\n", name, rate, 1e3 / rate);
  };

  auto run_backend = [&](exec::Backend backend, double* sequential,
                         double* width1, double* batched,
                         double* one_worker_lane_evals,
                         double* kernel_lane_evals) {
    pipeline::KernelOptions ko;
    ko.lanes = kWorkers;
    const exec::KernelInstance k = cm.make_kernel(backend, ko);
    if (k.backend() != backend) {
      return false;
    }
    const ode::Problem p = cm.make_problem(k, 0.0, kTend);

    // All three configurations stream through StatsOnlySink so the
    // comparison measures solver throughput, not trajectory
    // materialization (no Solution rows are retained).
    {
      ode::StatsOnlySink sink(1);
      const auto t0 = clock_type::now();
      for (const std::vector<double>& y : starts) {
        ode::Problem ps = p;
        ps.y0 = y;
        ode::solve(ps, ode::Method::kDopri5, o, sink);
      }
      *sequential = scen_per_sec(t0, kScenarios);
    }
    ode::EnsembleSpec spec;
    spec.initial_states = starts;
    spec.workers = kWorkers;
    for (const std::size_t width : {std::size_t{1}, kMaxBatch}) {
      spec.max_batch = width;
      ode::StatsOnlySink sink(kScenarios);
      const auto t0 = clock_type::now();
      ode::solve_ensemble(p, ode::Method::kDopri5, o, spec, sink);
      *(width == 1 ? width1 : batched) = scen_per_sec(t0, kScenarios);
    }
    if (one_worker_lane_evals != nullptr) {
      // Batched at one worker against the kernel alone at the batch
      // width: the first kMaxBatch starts in a 64-byte-aligned SoA block,
      // as the stepper keeps them, evaluated over and over for ~0.3 s.
      // Each rate is the best of three interleaved runs, so a burst of
      // load from elsewhere on a shared host slows one sample rather
      // than the ratio.
      spec.workers = 1;
      spec.max_batch = kMaxBatch;
      const std::size_t n = cm.n();
      simd::aligned_vector<double> ts(kMaxBatch, 0.0), ysoa(n * kMaxBatch),
          f(n * kMaxBatch);
      for (std::size_t j = 0; j < kMaxBatch; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          ysoa[i * kMaxBatch + j] = starts[j][i];
        }
      }
      *one_worker_lane_evals = 0.0;
      *kernel_lane_evals = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        ode::StatsOnlySink sink(kScenarios);
        ode::solve_ensemble(p, ode::Method::kDopri5, o, spec, sink);
        *one_worker_lane_evals =
            std::max(*one_worker_lane_evals,
                     obs::Registry::global()
                         .gauge("ensemble.rhs_calls_per_sec")
                         .value());
        std::size_t calls = 0;
        const auto t0 = clock_type::now();
        double secs = 0.0;
        do {
          for (int r = 0; r < 1000; ++r) {
            p.batch_rhs(0, kMaxBatch, ts.data(), ysoa.data(), f.data());
          }
          calls += 1000;
          secs =
              std::chrono::duration<double>(clock_type::now() - t0).count();
        } while (secs < 0.3);
        *kernel_lane_evals = std::max(
            *kernel_lane_evals, static_cast<double>(calls * kMaxBatch) / secs);
      }
    }
    return true;
  };

  double i_seq = 0.0, i_w1 = 0.0, i_bat = 0.0;
  run_backend(exec::Backend::kInterp, &i_seq, &i_w1, &i_bat, nullptr,
              nullptr);
  report("interp, sequential", i_seq);
  report("interp, width 1", i_w1);
  report("interp, batched", i_bat);
  const double i_ratio = i_bat / i_seq;
  const double i_amort = i_bat / i_w1;
  std::printf("interp batched/sequential: %.2fx  (bar: >= 3x on >= %zu"
              " cores) %s\n",
              i_ratio, kWorkers,
              i_ratio >= 3.0 ? "[MATCH]"
                             : (hw < kWorkers ? "[too few cores]"
                                              : "[MISMATCH]"));
  std::printf("interp batched/width-1:    %.2fx\n\n", i_amort);

  double n_seq = 0.0, n_w1 = 0.0, n_bat = 0.0, n_lane_evals = 0.0,
         n_kernel = 0.0;
  const bool have_native =
      run_backend(exec::Backend::kNative, &n_seq, &n_w1, &n_bat,
                  &n_lane_evals, &n_kernel);
  const double n_over_kernel = n_kernel > 0.0 ? n_lane_evals / n_kernel : 0.0;
  if (have_native) {
    report("native, sequential", n_seq);
    report("native, width 1", n_w1);
    report("native, batched", n_bat);
    std::printf("native batched/sequential: %.2fx\n", n_bat / n_seq);
    std::printf("native batched, 1 worker: %.0f RHS lane-evals/s\n",
                n_lane_evals);
    std::printf("native kernel alone, width %zu: %.0f lane-evals/s\n",
                kMaxBatch, n_kernel);
    std::printf("1-worker ensemble / kernel alone: %.2f  (target: 0.8)\n",
                n_over_kernel);
  } else {
    std::printf("%-24s (no host compiler; skipped)\n", "native");
  }

  std::printf("\nlast run: %.0f batched RHS lane-evals/s\n",
              obs::Registry::global()
                  .gauge("ensemble.rhs_calls_per_sec")
                  .value());

  // --- hybrid section: event-carrying lanes through the ensemble ------
  // 64 bouncing-ball scenarios with distinct drop heights: every lane
  // localizes impacts on its own schedule, so the engine exercises
  // desynchronized event sweeps, per-lane restarts and out-of-order
  // retirement. Correctness is exported alongside throughput —
  // bitwise_equal vs the sequential per-scenario solves and the total
  // event count are machine-independent and gated by bench_gate.py.
  constexpr std::size_t kHybridScenarios = 64;
  const models::BouncingBall ball;
  const ode::Problem hp = models::bouncing_ball_problem(ball, 1.8);
  ode::EnsembleSpec hspec;
  hspec.workers = kWorkers;
  hspec.max_batch = kMaxBatch;
  for (std::size_t i = 0; i < kHybridScenarios; ++i) {
    hspec.initial_states.push_back(
        {0.5 + 0.03 * static_cast<double>(i), 0.0});
  }
  ode::SolverOptions ho;  // default cadence: event rows are retained

  std::vector<ode::Solution> sequential_runs;
  double h_seq = 0.0;
  {
    const auto t0 = clock_type::now();
    for (const std::vector<double>& y : hspec.initial_states) {
      ode::Problem ps = hp;
      ps.y0 = y;
      sequential_runs.push_back(ode::solve(ps, ode::Method::kDopri5, ho));
    }
    h_seq = scen_per_sec(t0, kHybridScenarios);
  }
  double h_bat = 0.0;
  ode::EnsembleResult hybrid;
  {
    const auto t0 = clock_type::now();
    hybrid = ode::solve_ensemble(hp, ode::Method::kDopri5, ho, hspec);
    h_bat = scen_per_sec(t0, kHybridScenarios);
  }
  bool h_bitwise = hybrid.solutions.size() == sequential_runs.size();
  std::size_t h_events = 0;
  for (std::size_t i = 0; h_bitwise && i < sequential_runs.size(); ++i) {
    h_bitwise = bitwise_equal(hybrid.solutions[i], sequential_runs[i]);
    h_events += hybrid.solutions[i].stats.events;
  }

  std::printf("\nHybrid: %zu bouncing-ball lanes (events on), dopri5\n",
              kHybridScenarios);
  report("hybrid, sequential", h_seq);
  report("hybrid, batched", h_bat);
  std::printf("hybrid events fired: %zu   ensemble == sequential: %s\n",
              h_events, h_bitwise ? "bitwise [MATCH]" : "[MISMATCH]");

  obs::Registry metrics;
  metrics.gauge("ensemble.hybrid.scenarios")
      .set(static_cast<double>(kHybridScenarios));
  metrics.gauge("ensemble.hybrid.bitwise_equal").set(h_bitwise ? 1.0 : 0.0);
  metrics.gauge("ensemble.hybrid.events_fired")
      .set(static_cast<double>(h_events));
  metrics.gauge("ensemble.hybrid.sequential.scen_per_s").set(h_seq);
  metrics.gauge("ensemble.hybrid.batched.scen_per_s").set(h_bat);
  metrics.gauge("ensemble.hybrid.batched_over_sequential")
      .set(h_seq > 0.0 ? h_bat / h_seq : 0.0);
  metrics.gauge("ensemble.scenarios")
      .set(static_cast<double>(kScenarios));
  metrics.gauge("ensemble.workers").set(static_cast<double>(kWorkers));
  metrics.gauge("ensemble.max_batch").set(static_cast<double>(kMaxBatch));
  metrics.gauge("ensemble.hardware_concurrency")
      .set(static_cast<double>(hw));
  metrics.gauge("ensemble.interp.sequential.scen_per_s").set(i_seq);
  metrics.gauge("ensemble.interp.width1.scen_per_s").set(i_w1);
  metrics.gauge("ensemble.interp.batched.scen_per_s").set(i_bat);
  metrics.gauge("ensemble.interp.batched_over_sequential").set(i_ratio);
  metrics.gauge("ensemble.interp.batched_over_width1").set(i_amort);
  metrics.gauge("ensemble.native.available").set(have_native ? 1.0 : 0.0);
  metrics.gauge("ensemble.native.sequential.scen_per_s").set(n_seq);
  metrics.gauge("ensemble.native.width1.scen_per_s").set(n_w1);
  metrics.gauge("ensemble.native.batched.scen_per_s").set(n_bat);
  metrics.gauge("ensemble.native.batched_over_sequential")
      .set(n_seq > 0.0 ? n_bat / n_seq : 0.0);
  metrics.gauge("ensemble.native.batched_1worker.lane_evals_per_s")
      .set(n_lane_evals);
  metrics.gauge("ensemble.native.kernel_w16.lane_evals_per_s").set(n_kernel);
  metrics.gauge("ensemble.native.batched_1worker_over_kernel_w16")
      .set(n_over_kernel);
  const char* out_path = "BENCH_ensemble.json";
  if (obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
