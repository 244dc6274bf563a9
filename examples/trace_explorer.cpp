// Telemetry explorer: compiles a model, runs the parallel RHS under the
// supervisor/worker runtime with tracing on, and dumps
//   * a Chrome trace_event JSON (open in chrome://tracing or
//     https://ui.perfetto.dev) with one track per worker showing task
//     spans, idle gaps, the supervisor's scatter/gather phases and
//     named process/thread rows,
//   * the text metrics summary (RHS calls, messages, bytes, reschedules,
//     histogram percentiles),
//   * with --profile: the aggregated span profile (text to stdout, JSON
//     plus metrics JSON next to the trace), and
//   * with --recorder: a stiff solve of the model with the flight
//     recorder on, dumped as a step-decision event log.
// Every JSON artifact is validated by obs::validate_json before being
// written; a validation failure exits nonzero (CI smoke-tests this).
//
//   trace_explorer --model bearing2d --workers 4 --out trace.json
//                  --profile profile.json --recorder recorder.json
//                  --metrics metrics.json
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "omx/models/bearing2d.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hydro.hpp"
#include "omx/obs/export.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/cli.hpp"
#include "omx/support/config.hpp"
#include "omx/support/simd.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--model bearing2d|hydro|heat1d] [--workers N]\n"
               "          [--evals N] [--out trace.json]\n"
               "          [--profile profile.json]"
               " [--recorder recorder.json]\n"
               "          [--metrics metrics.json]\n"
               "       %s --config   (list every OMX_* env knob and its\n"
               "                      current value and the lane ops'\n"
               "                      ISA, then exit)\n",
               argv0,
               argv0);
  return 2;
}

/// Validates, then writes; any failure is fatal (the artifacts exist to
/// be consumed by tooling, so a malformed one must fail loudly).
bool emit_json(const std::string& path, const std::string& json,
               const char* what) {
  if (!omx::obs::validate_json(json)) {
    std::fprintf(stderr, "%s output failed JSON validation\n", what);
    return false;
  }
  if (!omx::obs::write_file(path, json)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace omx;

  std::string model = "bearing2d";
  std::size_t workers = 4;
  std::size_t evals = 64;
  std::string out_path = "trace.json";
  std::string profile_path;
  std::string recorder_path;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](const char* flag, long long hi) -> std::size_t {
      const auto v = cli::parse_int(next(flag), 1, hi);
      if (!v) {
        std::exit(usage(argv[0]));
      }
      return static_cast<std::size_t>(*v);
    };
    if (std::strcmp(argv[i], "--config") == 0) {
      std::fputs(config::describe().c_str(), stdout);
      std::printf("lane isa: %s (%zu lanes)\n", simd::lane_isa(),
                  simd::lane_width());
      return 0;
    } else if (std::strcmp(argv[i], "--model") == 0) {
      model = next("--model");
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = count("--workers", 256);
    } else if (std::strcmp(argv[i], "--evals") == 0) {
      evals = count("--evals", INT_MAX);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = next("--out");
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile_path = next("--profile");
    } else if (std::strcmp(argv[i], "--recorder") == 0) {
      recorder_path = next("--recorder");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_path = next("--metrics");
    } else {
      return usage(argv[0]);
    }
  }

  pipeline::ModelBuilder builder;
  if (model == "bearing2d") {
    builder = [](expr::Context& ctx) {
      return models::build_bearing(ctx, models::BearingConfig{});
    };
  } else if (model == "hydro") {
    builder = [](expr::Context& ctx) { return models::build_hydro(ctx); };
  } else if (model == "heat1d") {
    builder = [](expr::Context& ctx) {
      return models::build_heat1d(ctx, models::Heat1dConfig{});
    };
  } else {
    return usage(argv[0]);
  }

  // Record everything from the first compile phase on.
  obs::TraceBuffer& tb = obs::TraceBuffer::global();
  // --recorder arms the solver's step events too.
  tb.start(recorder_path.empty()
               ? obs::TraceBuffer::kSpans
               : obs::TraceBuffer::kSpans | obs::TraceBuffer::kSteps);
  tb.set_process_name("omx/" + model);
  tb.set_thread_name("supervisor");

  pipeline::CompileOptions copts;
  // The --recorder solve feeds the BDF phase a symbolic Jacobian so the
  // flight recorder sees evaluate/factorize/reuse traffic.
  copts.build_jacobian = !recorder_path.empty();
  pipeline::CompiledModel cm = pipeline::compile_model(builder, copts);

  pipeline::KernelOptions ko;
  ko.lanes = workers;
  exec::KernelInstance kern = cm.make_kernel(exec::Backend::kInterp, ko);
  runtime::ParallelRhsOptions popts;
  popts.pool.num_workers = workers;
  popts.sched.reschedule_period = 16;
  runtime::ParallelRhs rhs(kern.kernel(), popts);

  std::vector<double> y(cm.n()), ydot(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y[i] = cm.flat->states()[i].start;
  }
  for (std::size_t k = 0; k < evals; ++k) {
    rhs.eval(0.0, y, ydot);
  }

  if (!recorder_path.empty()) {
    // A short stiff-capable solve so the flight recorder sees real step
    // control: accepts, rejections, Jacobian reuse, method switches.
    // Only the recorder events matter here, so stream through a
    // StatsOnlySink instead of materializing a trajectory.
    ode::Problem prob = cm.make_problem(exec::Backend::kInterp, 0.0, 0.05);
    cm.bind_symbolic_jacobian(prob);
    ode::SolverOptions sopts;
    ode::StatsOnlySink stats_sink(1);
    ode::solve(prob, ode::Method::kLsodaLike, sopts, stats_sink);
  }
  tb.stop();

  const std::string trace = obs::chrome_trace_json(tb);
  if (!emit_json(out_path, trace, "chrome_trace_json")) {
    return 1;
  }

  std::printf("model %s: %zu states, %zu tasks, %zu workers, %zu evals\n",
              model.c_str(), cm.n(), cm.plan.tasks.size(), workers, evals);
  std::printf("wrote %s (%zu events, %zu bytes) — "
              "open in chrome://tracing or https://ui.perfetto.dev\n",
              out_path.c_str(), tb.events().size(), trace.size());

  if (!profile_path.empty()) {
    const obs::Profile prof = obs::aggregate_profile(tb);
    if (!emit_json(profile_path, obs::profile_json(prof), "profile_json")) {
      return 1;
    }
    std::printf("wrote %s (%zu profile nodes)\n\n%s", profile_path.c_str(),
                prof.nodes.size(), obs::profile_text(prof).c_str());
  }

  if (!recorder_path.empty()) {
    if (!emit_json(recorder_path, obs::recorder_json(tb),
                   "recorder_json")) {
      return 1;
    }
    std::printf("wrote %s (%zu step events, %llu dropped)\n",
                recorder_path.c_str(), tb.step_events().size(),
                static_cast<unsigned long long>(tb.dropped()));
  }

  if (!metrics_path.empty()) {
    const std::string metrics =
        obs::metrics_json(obs::Registry::global().snapshot());
    if (!emit_json(metrics_path, metrics, "metrics_json")) {
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }

  std::printf("\n%s", obs::format_text(
                          obs::Registry::global().snapshot()).c_str());
  std::printf("\nscheduling overhead: %.2f%% of eval time"
              " (%zu reschedules)\n",
              rhs.eval_seconds() > 0.0
                  ? 100.0 * rhs.scheduling_seconds() / rhs.eval_seconds()
                  : 0.0,
              rhs.num_reschedules());
  return 0;
}
