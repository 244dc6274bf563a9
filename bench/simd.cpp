// SIMD lane-throughput shootout: per-RHS-call cost of the batched
// kernels against the scalar kernels on the 2-D bearing model.
//
// The batched entry points evaluate nb scenarios per call in SoA
// layout; the emitted lane loops carry `#pragma omp simd` and the
// native backend compiles them with vectorization-friendly flags and
// the branch-free omx vector-math runtime (exec/vmath_functions.h), so
// one batched call should retire several lanes per scalar-call cost.
// This bench measures exactly that amortization factor:
//
//     ratio(W) = (lane-evals/s at batch width W) / (scalar evals/s)
//
// for W in {4, 8, 16, 32} on both backends. The native kernel's scalar
// call is its batched loop at width 1 (it compiles no scalar form), so
// the native ratio compares width W against width 1 of the same loop.
// scripts/bench_gate.py gates the native width-16 ratio at >= 4x on
// hosts whose vector ISA is wide enough (the exported simd.lane_width
// gauge tells the gate which bar applies; see gate_simd).
//
// Lane counts, not wall-clock figures, are compared across runs, and
// the measurement is round-interleaved: shared CI boxes drift by
// +-30% over a few seconds, so comparing a scalar window against a
// batch window taken seconds later folds that drift straight into the
// ratio. Each round times one short scalar window immediately followed
// by one window per batch width, the per-round ratios pair windows
// that saw the same machine speed, and the gated figure is the median
// ratio across rounds (absolute evals/s gauges report the best window,
// the closest sample to the unloaded machine).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/simd.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

constexpr std::size_t kWidths[] = {4, 8, 16, 32};
constexpr std::size_t kNumWidths = sizeof(kWidths) / sizeof(kWidths[0]);
constexpr int kRounds = 5;
constexpr double kMinSeconds = 0.08;  // per timed window, per round

double seconds_since(clock_type::time_point t0) {
  return std::chrono::duration<double>(clock_type::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main() {
  using namespace omx;

  models::BearingConfig cfg;  // 10 rollers as in the paper
  pipeline::CompiledModel cm = pipeline::compile_model(
      [&](expr::Context& ctx) { return models::build_bearing(ctx, cfg); });
  const std::size_t n = cm.n();

  std::vector<double> y0(n);
  for (std::size_t i = 0; i < n; ++i) {
    y0[i] = cm.flat->states()[i].start;
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t lw = simd::lane_width();
  std::printf("SIMD lane throughput: 2-D bearing (%d rollers, %zu states)\n"
              "host vector width %zu doubles, %u hardware threads\n\n",
              cfg.n_rollers, n, lw, hw);
  std::printf("%-22s %-16s %s\n", "configuration", "lane-evals/s",
              "vs scalar");

  obs::Registry metrics;
  metrics.gauge("simd.lane_width").set(static_cast<double>(lw));
  metrics.gauge("simd.hardware_concurrency").set(static_cast<double>(hw));
  metrics.gauge("simd.states").set(static_cast<double>(n));

  auto run_backend = [&](exec::Backend backend, const char* name) {
    const exec::KernelInstance k = cm.make_kernel(backend);
    if (k.backend() != backend) {
      std::printf("%-22s (unavailable; skipped)\n", name);
      metrics.gauge(std::string("simd.") + name + ".available").set(0.0);
      return;
    }
    metrics.gauge(std::string("simd.") + name + ".available").set(1.0);
    const exec::RhsKernel& kern = k.kernel();

    // Scalar baseline state plus per-width SoA buffers, set up once so
    // the rounds only time kernel calls. Lanes are perturbed so
    // batch-mates are not bit-identical inputs.
    std::vector<double> y = y0, f(n);
    const double t = 0.0;
    simd::aligned_vector<double> ts[kNumWidths];
    simd::aligned_vector<double> y_soa[kNumWidths], f_soa[kNumWidths];
    for (std::size_t wi = 0; wi < kNumWidths; ++wi) {
      const std::size_t w = kWidths[wi];
      ts[wi].assign(w, 0.0);
      y_soa[wi].assign(n * w, 0.0);
      f_soa[wi].assign(n * w, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          y_soa[wi][i * w + j] =
              y0[i] + 1e-4 * static_cast<double>((i + 7 * j) % 13);
        }
      }
    }

    // Time one window: run `reps` calls, doubling until the window is
    // long enough (later rounds reuse the calibrated rep count, so the
    // scalar and batch windows of a round stay adjacent in time).
    auto window_rate = [&](std::size_t& reps, auto&& calls) -> double {
      for (;;) {
        const auto t0 = clock_type::now();
        calls(reps);
        const double secs = seconds_since(t0);
        if (secs >= kMinSeconds) {
          return static_cast<double>(reps) / secs;
        }
        reps *= 2;
      }
    };

    std::size_t scalar_reps = 64;
    std::size_t batch_reps[kNumWidths] = {16, 16, 16, 16};
    double scalar_best = 0.0;
    double batch_best[kNumWidths] = {0.0, 0.0, 0.0, 0.0};
    std::vector<double> round_ratios[kNumWidths];
    for (int round = 0; round < kRounds; ++round) {
      const double srate = window_rate(scalar_reps, [&](std::size_t r) {
        for (std::size_t i = 0; i < r; ++i) {
          kern(t, y, f);
        }
      });
      scalar_best = std::max(scalar_best, srate);
      for (std::size_t wi = 0; wi < kNumWidths; ++wi) {
        const std::size_t w = kWidths[wi];
        const double calls =
            window_rate(batch_reps[wi], [&](std::size_t r) {
              for (std::size_t i = 0; i < r; ++i) {
                kern.eval_batch(0, w, ts[wi].data(), y_soa[wi].data(),
                                f_soa[wi].data());
              }
            });
        const double rate = calls * static_cast<double>(w);  // lane-evals/s
        batch_best[wi] = std::max(batch_best[wi], rate);
        round_ratios[wi].push_back(rate / srate);
      }
    }

    std::printf("%-22s %-16.0f 1.00x\n",
                (std::string(name) + ", scalar").c_str(), scalar_best);
    metrics.gauge(std::string("simd.") + name + ".scalar.evals_per_s")
        .set(scalar_best);
    for (std::size_t wi = 0; wi < kNumWidths; ++wi) {
      const double ratio = median(round_ratios[wi]);
      char label[64];
      std::snprintf(label, sizeof label, "%s, batch %zu", name,
                    kWidths[wi]);
      std::printf("%-22s %-16.0f %.2fx\n", label, batch_best[wi], ratio);
      char gname[96];
      std::snprintf(gname, sizeof gname, "simd.%s.batch%zu.evals_per_s",
                    name, kWidths[wi]);
      metrics.gauge(gname).set(batch_best[wi]);
      std::snprintf(gname, sizeof gname, "simd.%s.batch%zu_over_scalar",
                    name, kWidths[wi]);
      metrics.gauge(gname).set(ratio);
    }
    std::printf("\n");
  };

  run_backend(exec::Backend::kNative, "native");
  run_backend(exec::Backend::kInterp, "interp");

  const char* out_path = "BENCH_simd.json";
  if (obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
