// Compile-path scaling: pipeline::compile_model per phase, plus the C++
// emission of the default native kernel's one model form (the batched
// serial body), on the 2-D bearing at N in {10, 40, 160} rollers. Cold
// native builds of N=10 and N=40 (make_kernel(kNative) into a fresh
// cache directory, host compiler included) are timed once each. Without
// a host compiler (or with the native backend disabled) they are skipped
// with a note.
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
// Emission and the native build are report-only.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "omx/codegen/cpp_emit.hpp"
#include "omx/models/bearing2d.hpp"
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

/// Milliseconds for one cold make_kernel(kNative) of `cm`, host compile
/// included, into a cache directory nothing has used; a negative value
/// when the kernel fell back to the interpreter.
double cold_native_build_ms(const pipeline::CompiledModel& cm) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("omx-compile-scaling-" +
                        std::to_string(std::random_device{}()));
  fs::remove_all(dir);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  Stopwatch sw;
  const exec::KernelInstance k = cm.make_kernel(exec::Backend::kNative, ko);
  const double ms = sw.seconds() * 1e3;
  fs::remove_all(dir);
  return k.backend() == exec::Backend::kNative ? ms : -1.0;
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
  for (const int rollers : {10, 40}) {
    const pipeline::CompiledModel cm =
        pipeline::compile_model([&](expr::Context& ctx) {
          models::BearingConfig cfg;
          cfg.n_rollers = rollers;
          return models::build_bearing(ctx, cfg);
        });
    const double build_ms = cold_native_build_ms(cm);
    if (build_ms < 0.0) {
      std::printf("native backend unavailable: native build not measured\n");
      break;
    }
    metrics.gauge("compile.n" + std::to_string(rollers) + ".native_build_ms")
        .set(build_ms);
    std::printf("cold native build, %d rollers: %.0f ms\n", rollers,
                build_ms);
  }

  const char* out_path = "BENCH_compile.json";
  if (!obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
