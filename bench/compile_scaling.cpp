// Compile-path scaling: pipeline::compile_model per phase, plus the C++
// emission of the default native kernel's one model form (the batched
// serial body), on the 2-D bearing at N in {10, 40, 160} rollers. Cold
// native builds of the 3-axis servo (compile.servo.native_build_ms, the
// size at which the link is a visible share) and of N=10, N=40 and
// N=160 (make_kernel(kNative) into a fresh cache directory, host
// compiler included) are timed once each, after the vector-math runtime
// object every kernel links has been built once into a fresh shared
// cache (timed on its own as compile.vmath_object_ms). The N=160
// kernel's cost per lane at nb=8 and nb=1 is reported too. Without a
// host compiler (or with the native backend disabled) the native figures
// are skipped with a note.
//
// Per-phase times come from the pipeline's own spans, the ones omxbench
// folds into flatten/analysis/cse/task_planning/tapes, recorded into the
// global TraceBuffer around each compile. Every size is compiled kReps
// times and each figure is the median: a shared host's speed changes
// from one call to the next.
//
// Exports BENCH_compile.json. scripts/bench_gate.py gate_compile checks
// that per-state compile_model time at the largest N is within 2x of
// the smallest, and that task_planning at N=40 takes under 5 ms.
// Emission, the runtime object and the native builds are report-only.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "omx/codegen/cpp_emit.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/models/servo.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/timer.hpp"

namespace {

using namespace omx;

constexpr int kRollers[] = {10, 40, 160};
constexpr int kReps = 5;

/// Pipeline span name -> exported phase name.
const std::pair<const char*, const char*> kPhases[] = {
    {"compile_model", "compile_model"},
    {"build+flatten", "flatten"},
    {"dependency+scc", "analysis"},
    {"assignments+cse", "cse"},
    {"task_planning", "task_planning"},
    {"compile_tapes", "tapes"},
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Span name -> milliseconds for one traced compile.
std::map<std::string, double> traced_compile(
    const pipeline::ModelBuilder& builder, pipeline::CompiledModel& out) {
  obs::TraceBuffer& trace = obs::TraceBuffer::global();
  trace.start();
  out = pipeline::compile_model(builder);
  trace.stop();
  std::map<std::string, double> ms;
  for (const obs::TraceEvent& ev : trace.events()) {
    ms[ev.name] += static_cast<double>(ev.dur_ns) * 1e-6;
  }
  return ms;
}

/// Emits the model form a default native translation unit carries (the
/// batched serial body), with the backend's options; returns its bytes.
std::size_t emit_native_form(const pipeline::CompiledModel& cm) {
  codegen::EmitOptions eo;
  eo.with_helpers = false;
  eo.with_prelude = false;
  eo.simd_math = true;
  return codegen::emit_cpp_serial_batch(*cm.flat, cm.assignments, eo)
      .code.size();
}

/// A directory under the system temp dir that nothing has used.
std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("omx-compile-scaling-" + tag + "-" +
       std::to_string(std::random_device{}()));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Milliseconds for one cold make_kernel(kNative) of `cm`, host compile
/// included, into a cache directory nothing has used; a negative value
/// when the kernel fell back to the interpreter. The kernel goes to
/// `out` when given.
double cold_native_build_ms(const pipeline::CompiledModel& cm,
                            exec::KernelInstance* out = nullptr) {
  const std::filesystem::path dir = fresh_dir("kernel");
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  Stopwatch sw;
  exec::KernelInstance k = cm.make_kernel(exec::Backend::kNative, ko);
  const double ms = sw.seconds() * 1e3;
  std::filesystem::remove_all(dir);
  const bool native = k.backend() == exec::Backend::kNative;
  if (out != nullptr) {
    *out = std::move(k);
  }
  return native ? ms : -1.0;
}

/// Nanoseconds per lane of one eval_batch of `k` at width `nb` around the
/// start state: the best of 5 windows of ~0.1 s each.
double ns_per_lane(const pipeline::CompiledModel& cm,
                   const exec::KernelInstance& k, std::size_t nb) {
  const std::size_t n = cm.n();
  std::vector<double> y(n * nb), ydot(n * nb), ts(nb, 0.1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      y[i * nb + j] =
          cm.flat->states()[i].start + 1e-3 * static_cast<double>(j);
    }
  }
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t calls = 0;
    Stopwatch sw;
    do {
      k.kernel().eval_batch(0, nb, ts.data(), y.data(), ydot.data());
      ++calls;
    } while (sw.seconds() < 0.1);
    best = std::min(best, sw.seconds() * 1e9 /
                              static_cast<double>(calls * nb));
  }
  return best;
}

/// Milliseconds for the one build of the vector-math runtime object: the
/// shared cache moves to `shared`, a fresh directory, so the first cold
/// kernel (the oscillator's) builds it. Negative when the native backend
/// is unavailable.
double vmath_object_ms(const std::filesystem::path& shared) {
  ::setenv("OMX_NATIVE_CACHE_DIR", shared.c_str(), 1);
  obs::Registry& g = obs::Registry::global();
  const std::uint64_t before =
      g.counter("backend.native.runtime_builds").value();
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  if (cold_native_build_ms(cm) < 0.0 ||
      g.counter("backend.native.runtime_builds").value() != before + 1) {
    return -1.0;
  }
  return g.gauge("backend.native.runtime_build_seconds").value() * 1e3;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("Compile-path scaling: 2-D bearing, median of %d compiles,"
              " %u hardware threads\n\n",
              kReps, hw);
  std::printf("%8s %7s %12s %10s %10s %14s %10s %10s\n", "rollers",
              "states", "compile ms", "ms/state", "cse ms", "task_plan ms",
              "emit ms", "TU KB");

  obs::Registry metrics;
  metrics.gauge("compile.hardware_concurrency")
      .set(static_cast<double>(hw));
  for (const int rollers : kRollers) {
    models::BearingConfig cfg;
    cfg.n_rollers = rollers;
    const pipeline::ModelBuilder builder = [&](expr::Context& ctx) {
      return models::build_bearing(ctx, cfg);
    };
    std::map<std::string, std::vector<double>> phase_ms;
    std::vector<double> emit_ms;
    std::size_t states = 0, bytes = 0, parallel_ops = 0, serial_ops = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      pipeline::CompiledModel cm;
      for (const auto& [span, ms] : traced_compile(builder, cm)) {
        phase_ms[span].push_back(ms);
      }
      Stopwatch sw;
      bytes = emit_native_form(cm);
      emit_ms.push_back(sw.seconds() * 1e3);
      states = cm.n();
      parallel_ops = cm.parallel_program.total_ops();
      serial_ops = cm.serial_program.total_ops();
    }

    const std::string prefix = "compile.n" + std::to_string(rollers) + ".";
    std::map<std::string, double> med;
    for (const auto& [span, name] : kPhases) {
      med[name] = median(phase_ms[span]);
      metrics.gauge(prefix + name + "_ms").set(med[name]);
    }
    const double per_state = med["compile_model"] / states;
    metrics.gauge(prefix + "states").set(static_cast<double>(states));
    metrics.gauge(prefix + "per_state_ms").set(per_state);
    metrics.gauge(prefix + "emit_ms").set(median(emit_ms));
    metrics.gauge(prefix + "emit_bytes").set(static_cast<double>(bytes));
    metrics.gauge(prefix + "parallel_ops")
        .set(static_cast<double>(parallel_ops));
    metrics.gauge(prefix + "serial_ops").set(static_cast<double>(serial_ops));
    std::printf("%8d %7zu %12.2f %10.4f %10.2f %14.2f %10.1f %10.0f\n",
                rollers, states, med["compile_model"], per_state, med["cse"],
                med["task_planning"], median(emit_ms), bytes / 1024.0);
  }

  std::printf("\n");
  const std::filesystem::path shared = fresh_dir("shared");
  const double object_ms = vmath_object_ms(shared);
  if (object_ms < 0.0) {
    std::printf("native backend unavailable: native build not measured\n");
  } else {
    metrics.gauge("compile.vmath_object_ms").set(object_ms);
    std::printf("vector-math runtime object: %.0f ms (built once)\n",
                object_ms);
    const double servo_ms =
        cold_native_build_ms(pipeline::compile_model(models::build_servo));
    if (servo_ms >= 0.0) {
      metrics.gauge("compile.servo.native_build_ms").set(servo_ms);
      std::printf("cold native build, servo: %.0f ms\n", servo_ms);
    }
    for (const int rollers : kRollers) {
      const pipeline::CompiledModel cm =
          pipeline::compile_model([&](expr::Context& ctx) {
            models::BearingConfig cfg;
            cfg.n_rollers = rollers;
            return models::build_bearing(ctx, cfg);
          });
      exec::KernelInstance k;
      const double build_ms = cold_native_build_ms(cm, &k);
      if (build_ms < 0.0) {
        std::printf("native build of %d rollers fell back\n", rollers);
        break;
      }
      const std::string prefix = "compile.n" + std::to_string(rollers) + ".";
      metrics.gauge(prefix + "native_build_ms").set(build_ms);
      std::printf("cold native build, %d rollers: %.0f ms", rollers,
                  build_ms);
      if (rollers == kRollers[2]) {
        const double nb8 = ns_per_lane(cm, k, 8);
        const double nb1 = ns_per_lane(cm, k, 1);
        metrics.gauge(prefix + "native_nb8_ns_per_lane").set(nb8);
        metrics.gauge(prefix + "native_nb1_ns_per_lane").set(nb1);
        std::printf(" (%.0f ns/lane at nb=8, %.0f at nb=1)", nb8, nb1);
      }
      std::printf("\n");
    }
  }
  std::filesystem::remove_all(shared);

  const char* out_path = "BENCH_compile.json";
  if (!obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
