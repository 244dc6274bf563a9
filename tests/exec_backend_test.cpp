// Differential tests for the execution backends (exec::RhsKernel): the
// runtime-compiled native kernel must reproduce the tape interpreter and
// the tree-walking reference evaluator on every bundled model, task by
// task and end to end, and must degrade to the interpreter (never fail)
// when the toolchain is unavailable.
#include <gtest/gtest.h>

#include <dlfcn.h>
#include <elf.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/solve.hpp"
#include "omx/parser/parser.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/runtime/parallel_rhs.hpp"

namespace omx::exec {
namespace {

pipeline::KernelOptions test_kernel_opts() {
  pipeline::KernelOptions ko;
  ko.native.cache_dir =
      (std::filesystem::temp_directory_path() / "omx-test-native-cache")
          .string();
  return ko;
}

std::vector<double> start_state(const pipeline::CompiledModel& cm) {
  std::vector<double> y(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y[i] = cm.flat->states()[i].start;
  }
  return y;
}

/// Evaluates the model through every backend at the start state and a
/// perturbed state and checks agreement to 1e-12 (relative).
void expect_backends_agree(const pipeline::CompiledModel& cm) {
  const KernelInstance ref = cm.make_kernel(Backend::kReference);
  const KernelInstance interp = cm.make_kernel(Backend::kInterp);
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }

  std::vector<double> y = start_state(cm);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<double> a(cm.n()), b(cm.n()), c(cm.n());
    ref.kernel()(0.1, y, a);
    interp.kernel()(0.1, y, b);
    native.kernel()(0.1, y, c);
    for (std::size_t i = 0; i < cm.n(); ++i) {
      const double scale = std::max(1.0, std::fabs(a[i]));
      EXPECT_NEAR(c[i], b[i], 1e-12 * scale) << "native vs interp, slot "
                                             << i;
      EXPECT_NEAR(c[i], a[i], 1e-12 * scale) << "native vs reference, slot "
                                             << i;
    }
    // Second trial: perturb away from the (often symmetric) start state.
    for (std::size_t i = 0; i < cm.n(); ++i) {
      y[i] += 1e-3 * static_cast<double>(i % 7) + 1e-4;
    }
  }
}

TEST(NativeBackend, MatchesInterpAndReferenceOnOscillator) {
  expect_backends_agree(pipeline::compile_model(models::build_oscillator));
}

TEST(NativeBackend, MatchesInterpAndReferenceOnBearing2d) {
  expect_backends_agree(pipeline::compile_model([](expr::Context& ctx) {
    models::BearingConfig cfg;
    cfg.n_rollers = 5;
    return models::build_bearing(ctx, cfg);
  }));
}

TEST(NativeBackend, MatchesInterpAndReferenceOnHydroPlant) {
  expect_backends_agree(pipeline::compile_model(models::build_hydro));
}

TEST(NativeBackend, MatchesInterpAndReferenceOnHeat1d) {
  expect_backends_agree(pipeline::compile_model([](expr::Context& ctx) {
    models::Heat1dConfig cfg;
    cfg.n_cells = 24;
    return models::build_heat1d(ctx, cfg);
  }));
}

TEST(NativeBackend, SecondBuildHitsCache) {
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const pipeline::KernelOptions ko = test_kernel_opts();
  const KernelInstance first = cm.make_kernel(Backend::kNative, ko);
  if (first.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  obs::set_enabled(true);
  const auto hits_before = obs::Registry::global()
                               .counter("backend.native.cache_hits")
                               .value();
  const KernelInstance second = cm.make_kernel(Backend::kNative, ko);
  EXPECT_EQ(second.backend(), Backend::kNative);
  EXPECT_GT(obs::Registry::global()
                .counter("backend.native.cache_hits")
                .value(),
            hits_before);
}

TEST(NativeBackend, ParallelRhsRejectsKernelWithoutTasks) {
  // A native kernel has no task form, so the worker pool has nothing to
  // run: a caller error that names the backend that has one, not a Bug.
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  ASSERT_FALSE(native.kernel().has_tasks());
  EXPECT_EQ(native.kernel().num_tasks(), 0u);
  try {
    runtime::ParallelRhs par(native.kernel(), runtime::ParallelRhsOptions{});
    FAIL() << "ParallelRhs accepted a kernel without tasks";
  } catch (const omx::Error& e) {
    EXPECT_NE(std::string(e.what()).find("Backend::kInterp"),
              std::string::npos)
        << e.what();
  }
}

/// The composed translation units (.cpp) in a native cache directory.
std::vector<std::string> composed_units(const std::filesystem::path& dir) {
  std::vector<std::string> units;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".cpp") {
      std::ifstream in(e.path());
      units.emplace_back(std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>());
    }
  }
  return units;
}

std::size_t count_extension(const std::filesystem::path& dir,
                             const std::string& ext) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    n += e.path().extension() == ext ? 1 : 0;
  }
  return n;
}

TEST(NativeBackend, DefaultUnitCarriesOnlyTheBatchedForm) {
  // Whole-system eval is rhs_batch at nb=1 and the unit has no task form
  // (ABI 8), so it defines neither the scalar serial rhs nor the
  // parallel-task switch and, for a model with when clauses, none of the
  // event bodies that came with the scalar form. The vector-math runtime
  // is linked from its prebuilt object: the unit only declares it.
  namespace fs = std::filesystem;
  const pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) { return models::build_bouncing_ball(ctx); });
  const fs::path dir = fs::temp_directory_path() / "omx-test-unit-forms";
  fs::remove_all(dir);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  if (cm.make_kernel(Backend::kNative, ko).backend() != Backend::kNative) {
    fs::remove_all(dir);
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  const std::vector<std::string> units = composed_units(dir);
  fs::remove_all(dir);
  ASSERT_EQ(units.size(), 1u);
  const std::string& unit = units[0];
  EXPECT_NE(unit.find("int omx_abi_version() { return 8; }"),
            std::string::npos);
  EXPECT_NE(unit.find("double omx_sin(double a);"), std::string::npos);
  EXPECT_EQ(unit.find("omx_vm_sincos"), std::string::npos);
  EXPECT_EQ(unit.find("omx_vm_u2d"), std::string::npos);
  EXPECT_NE(unit.find("void rhs_batch("), std::string::npos);
  EXPECT_EQ(unit.find("namespace omx_parallel"), std::string::npos);
  EXPECT_EQ(unit.find("omx_rhs_task"), std::string::npos);
  EXPECT_EQ(unit.find("void rhs(int worker_id,"), std::string::npos);
  EXPECT_EQ(unit.find("void rhs(double t,"), std::string::npos);
  EXPECT_EQ(unit.find("omx_rhs_serial("), std::string::npos);
  EXPECT_EQ(unit.find("event_guard"), std::string::npos);
  EXPECT_EQ(unit.find("event_apply"), std::string::npos);
}

/// `cells` independent decays: the cheapest model whose rhs_batch lane
/// loop holds one load and one store per state.
std::string wide_decay_source(std::size_t cells) {
  std::string src =
      "model Wide\n  class Cell\n    var x start 1;\n"
      "    eq der(x) == -x;\n  end\n";
  for (std::size_t i = 0; i < cells; ++i) {
    src += "  instance c" + std::to_string(i) + " : Cell;\n";
  }
  return src + "end\n";
}

TEST(NativeBackend, WideModelLaneLoopVectorizes) {
  // 501 states are the fewest that put more than gcc's default 1000 data
  // references (loop-max-datarefs-for-datadeps) in the lane loop, which
  // then stayed scalar; the backend raises the limit. The vectorizer's own report
  // (-fopt-info-vec) in the build log must name the loop. clang has no
  // -fopt-info and no such limit, so the check is gcc-only.
  namespace fs = std::filesystem;
  const std::string src = wide_decay_source(501);
  const pipeline::CompiledModel cm =
      pipeline::compile_model([&](expr::Context& ctx) {
        return parser::parse_model(src, ctx);
      });
  const fs::path dir = fs::temp_directory_path() / "omx-test-wide-unit";
  fs::remove_all(dir);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  ko.native.extra_flags = "-fopt-info-vec";
  const KernelInstance k = cm.make_kernel(Backend::kNative, ko);
  const std::vector<std::string> units = composed_units(dir);
  std::string log;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".log") {
      std::ifstream in(e.path());
      log.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    }
  }
  fs::remove_all(dir);
  if (k.backend() != Backend::kNative) {
    GTEST_SKIP() << "native backend unavailable (no gcc-compatible host "
                    "compiler accepting -fopt-info-vec)";
  }
  ASSERT_EQ(units.size(), 1u);
  // The lane loop is rhs_batch's first `for`; gcc reports a loop at its
  // own line or at its body's first statement, one line down.
  const std::string& unit = units[0];
  const std::size_t at = unit.find(
      "for (int j = 0; j < nb; ++j)", unit.find("void rhs_batch("));
  ASSERT_NE(at, std::string::npos);
  const long line =
      std::count(unit.begin(), unit.begin() + static_cast<long>(at), '\n') +
      1;
  std::istringstream lines(log);
  bool vectorized = false;
  for (std::string l; std::getline(lines, l);) {
    const bool at_loop =
        l.find(":" + std::to_string(line) + ":") != std::string::npos ||
        l.find(":" + std::to_string(line + 1) + ":") != std::string::npos;
    vectorized = vectorized ||
                 (at_loop && l.find("loop vectorized") != std::string::npos);
  }
  EXPECT_TRUE(vectorized) << "rhs_batch's lane loop (line " << line
                          << ") stayed scalar; build log:\n"
                          << log.substr(0, 2000);
  // And the vector body computes what the scalar one does.
  std::vector<double> y(cm.n()), ydot(cm.n());
  for (std::size_t i = 0; i < cm.n(); ++i) {
    y[i] = 0.5 + static_cast<double>(i);
  }
  k.kernel()(0.0, y, ydot);
  for (std::size_t i = 0; i < cm.n(); ++i) {
    ASSERT_EQ(ydot[i], -y[i]) << "state " << i;
  }
}

TEST(NativeBackend, CacheDirWithQuoteAndSpaceBuildsNative) {
  // The cache paths go into the host compiler's shell command; a ' or a
  // space in them must not turn the build into a silent fallback.
  namespace fs = std::filesystem;
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  if (cm.make_kernel(Backend::kNative, test_kernel_opts()).backend() !=
      Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  const fs::path dir = fs::temp_directory_path() / "omx-test it's quoted";
  fs::remove_all(dir);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  const KernelInstance k = cm.make_kernel(Backend::kNative, ko);
  const std::size_t objects = count_extension(dir, ".so");
  const std::size_t logs = count_extension(dir, ".log");
  fs::remove_all(dir);
  ASSERT_EQ(k.backend(), Backend::kNative);
  EXPECT_EQ(objects, 1u);
  EXPECT_EQ(logs, 1u);
  const std::vector<double> y = start_state(cm);
  std::vector<double> ydot(cm.n());
  k.kernel()(0.0, y, ydot);
  EXPECT_DOUBLE_EQ(ydot[0], y[1]);
  EXPECT_DOUBLE_EQ(ydot[1], -y[0]);
}

TEST(NativeBackend, DisableEnvDegradesToInterp) {
  ::setenv("OMX_NATIVE_DISABLE", "1", 1);
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const KernelInstance k =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  ::unsetenv("OMX_NATIVE_DISABLE");
  EXPECT_EQ(k.backend(), Backend::kInterp);

  // The fallback kernel still evaluates correctly.
  const std::vector<double> y = start_state(cm);
  std::vector<double> ydot(cm.n());
  k.kernel()(0.0, y, ydot);
  EXPECT_DOUBLE_EQ(ydot[0], y[1]);
  EXPECT_DOUBLE_EQ(ydot[1], -y[0]);
}

TEST(Kernels, ProblemCarriesKernelArity) {
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const KernelInstance k = cm.make_kernel(Backend::kInterp);
  ode::Problem p = cm.make_problem(k, 0.0, 1.0);
  EXPECT_EQ(p.rhs_arity, cm.n());
  p.validate();
  p.n = cm.n() + 1;  // desync: validate must reject the arity mismatch
  p.y0.push_back(0.0);
  EXPECT_THROW(p.validate(), omx::Error);
}

TEST(Kernels, SolveThroughEveryBackendAgrees) {
  // End-to-end: the same integration through reference, interp and
  // native kernels lands on the same trajectory.
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  ode::SolverOptions o;
  o.dt = 1e-3;
  o.record_every = 1000;

  std::vector<ode::Solution> sols;
  for (Backend b : {Backend::kReference, Backend::kInterp, Backend::kNative}) {
    const KernelInstance k = cm.make_kernel(b, test_kernel_opts());
    ode::Problem p = cm.make_problem(k, 0.0, 6.0);
    sols.push_back(ode::solve(p, ode::Method::kRk4, o));
  }
  for (const ode::Solution& s : sols) {
    EXPECT_NEAR(s.final_state()[0], std::cos(6.0), 1e-6);
  }
  EXPECT_NEAR(sols[1].final_state()[0], sols[0].final_state()[0], 1e-12);
  EXPECT_NEAR(sols[2].final_state()[0], sols[0].final_state()[0], 1e-12);
}

// ------------------------------------------------ batched (SoA) kernels
//
// Differential suite for the ensemble execution engine: every backend's
// eval_batch must agree with the scalar reference evaluator lane by
// lane, and a lane's result must not depend on the batch it rides in.

/// nb perturbed start states with distinct per-lane times, SoA-packed.
struct BatchFixture {
  std::size_t nb = 0;
  std::vector<double> ts;
  std::vector<double> y_soa;                   // n x nb
  std::vector<std::vector<double>> lane_y;     // per-lane copies

  BatchFixture(const pipeline::CompiledModel& cm, std::size_t lanes)
      : nb(lanes), ts(lanes) {
    const std::size_t n = cm.n();
    y_soa.resize(n * nb);
    for (std::size_t j = 0; j < nb; ++j) {
      ts[j] = 0.01 + 0.05 * static_cast<double>(j);
      std::vector<double> y = start_state(cm);
      for (std::size_t i = 0; i < n; ++i) {
        y[i] += 1e-3 * static_cast<double>((i + 3 * j) % 7) +
                1e-4 * static_cast<double>(j);
        y_soa[i * nb + j] = y[i];
      }
      lane_y.push_back(std::move(y));
    }
  }
};

void expect_batched_backends_agree(const pipeline::CompiledModel& cm) {
  const KernelInstance ref = cm.make_kernel(Backend::kReference);
  const KernelInstance interp = cm.make_kernel(Backend::kInterp);
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  ASSERT_TRUE(ref.kernel().has_batch());
  ASSERT_TRUE(interp.kernel().has_batch());

  const std::size_t n = cm.n();
  const BatchFixture fx(cm, 6);
  std::vector<double> br(n * fx.nb), bi(n * fx.nb), bn(n * fx.nb);
  ref.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                          br.data());
  interp.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                             bi.data());
  const bool have_native = native.backend() == Backend::kNative;
  if (have_native) {
    ASSERT_TRUE(native.kernel().has_batch());
    native.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                               bn.data());
  }

  for (std::size_t j = 0; j < fx.nb; ++j) {
    // Oracle: a scalar reference eval of this lane alone.
    std::vector<double> expected(n), scalar_interp(n);
    ref.kernel()(fx.ts[j], fx.lane_y[j], expected);
    interp.kernel()(fx.ts[j], fx.lane_y[j], scalar_interp);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = std::max(1.0, std::fabs(expected[i]));
      EXPECT_NEAR(br[i * fx.nb + j], expected[i], 1e-12 * scale)
          << "reference batch, lane " << j << " slot " << i;
      EXPECT_NEAR(bi[i * fx.nb + j], expected[i], 1e-12 * scale)
          << "interp batch, lane " << j << " slot " << i;
      // The batched interpreter runs the identical instruction sequence
      // per lane: bitwise equal to the scalar interpreter, not just close.
      EXPECT_EQ(bi[i * fx.nb + j], scalar_interp[i])
          << "interp batch not bitwise, lane " << j << " slot " << i;
      if (have_native) {
        EXPECT_NEAR(bn[i * fx.nb + j], expected[i], 1e-12 * scale)
            << "native batch, lane " << j << " slot " << i;
      }
    }
  }
}

TEST(BatchedKernels, MatchScalarReferenceOnOscillator) {
  expect_batched_backends_agree(
      pipeline::compile_model(models::build_oscillator));
}

TEST(BatchedKernels, MatchScalarReferenceOnBearing2d) {
  expect_batched_backends_agree(pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 5;
        return models::build_bearing(ctx, cfg);
      }));
}

TEST(BatchedKernels, MatchScalarReferenceOnHeat1d) {
  expect_batched_backends_agree(pipeline::compile_model(
      [](expr::Context& ctx) {
        models::Heat1dConfig cfg;
        cfg.n_cells = 24;
        return models::build_heat1d(ctx, cfg);
      }));
}

TEST(BatchedKernels, LaneResultsInvariantUnderRepacking) {
  // Mixed scenario lifetimes: after some lanes retire mid-sweep the
  // ensemble driver compacts the batch; the surviving lanes' results
  // must be bitwise unchanged in the narrower batch. The repacked widths
  // 3, 1 and 17 (and the full 20) land lanes in the compiled lane loop's
  // vector body, vector epilogue and scalar epilogue. A whole-system
  // eval must match too: the native backend runs it as a width-1 batch.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const std::size_t n = cm.n();
  const BatchFixture fx(cm, 20);
  std::vector<std::size_t> most;  // 1, 3, 4 retired: width 17
  for (std::size_t j = 0; j < fx.nb; ++j) {
    if (j != 1 && j != 3 && j != 4) {
      most.push_back(j);
    }
  }
  const std::vector<std::vector<std::size_t>> repacks = {
      {0, 2, 5}, {7}, most};

  std::vector<KernelInstance> kernels;
  kernels.push_back(cm.make_kernel(Backend::kInterp));
  const KernelInstance native =
      cm.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() == Backend::kNative) {
    kernels.push_back(native);
  }
  for (const KernelInstance& k : kernels) {
    std::vector<double> full(n * fx.nb);
    k.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                          full.data());

    for (const std::vector<std::size_t>& survivors : repacks) {
      const std::size_t nb2 = survivors.size();
      std::vector<double> ts2(nb2), y2(n * nb2), out2(n * nb2);
      for (std::size_t j = 0; j < nb2; ++j) {
        ts2[j] = fx.ts[survivors[j]];
        for (std::size_t i = 0; i < n; ++i) {
          y2[i * nb2 + j] = fx.y_soa[i * fx.nb + survivors[j]];
        }
      }
      k.kernel().eval_batch(0, nb2, ts2.data(), y2.data(), out2.data());
      for (std::size_t j = 0; j < nb2; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(out2[i * nb2 + j], full[i * fx.nb + survivors[j]])
              << to_string(k.backend()) << " width " << nb2 << " lane "
              << survivors[j] << " slot " << i;
        }
      }
    }

    std::vector<double> scalar(n);
    for (std::size_t j = 0; j < fx.nb; ++j) {
      k.kernel()(fx.ts[j], fx.lane_y[j], scalar);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(scalar[i], full[i * fx.nb + j])
            << to_string(k.backend()) << " scalar eval, lane " << j
            << " slot " << i;
      }
    }
  }
}

TEST(Ensemble, AgreesAcrossBackendsAndIsStableAcrossWorkerCounts) {
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  const std::size_t n = cm.n();

  ode::EnsembleSpec spec;
  for (std::size_t s = 0; s < 6; ++s) {
    std::vector<double> y = start_state(cm);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += 1e-3 * static_cast<double>((i + s) % 5);
    }
    spec.initial_states.push_back(std::move(y));
  }
  spec.workers = 2;
  spec.max_batch = 4;

  ode::SolverOptions o;
  o.record_every = 1000;
  // Tight tolerance keeps the backend-rounding divergence (amplified by
  // the bearing's contact dynamics) well below the comparison bar.
  o.tol.rtol = 1e-10;
  o.tol.atol = 1e-12;

  pipeline::KernelOptions ko = test_kernel_opts();
  ko.lanes = 4;

  // Cross-backend agreement per scenario. The kernels agree to 1e-12 per
  // RHS call (BatchedKernels.* above), but adaptive step control turns
  // last-bit RHS differences into different accept/reject sequences, so
  // integrated trajectories only agree to the solver's own accuracy.
  std::vector<ode::EnsembleResult> results;
  std::vector<Backend> backends = {Backend::kReference, Backend::kInterp};
  if (cm.make_kernel(Backend::kNative, ko).backend() == Backend::kNative) {
    backends.push_back(Backend::kNative);
  }
  for (Backend b : backends) {
    const KernelInstance k = cm.make_kernel(b, ko);
    const ode::Problem p = cm.make_problem(k, 0.0, 0.01);
    results.push_back(
        ode::solve_ensemble(p, ode::Method::kDopri5, o, spec));
  }
  for (std::size_t r = 1; r < results.size(); ++r) {
    for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
      const auto a = results[0].solutions[s].final_state();
      const auto b = results[r].solutions[s].final_state();
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(b[i], a[i], 1e-4 * std::max(1.0, std::fabs(a[i])))
            << to_string(backends[r]) << " scenario " << s << " slot " << i;
      }
    }
  }

  // Bit-for-bit stability across worker counts and batch widths within
  // one backend: scenario trajectories are lane-independent, so the
  // packing/scheduling must not change a single bit.
  const KernelInstance k = cm.make_kernel(Backend::kInterp, ko);
  const ode::Problem p = cm.make_problem(k, 0.0, 0.01);
  ode::EnsembleSpec base = spec;
  base.workers = 1;
  base.max_batch = 1;
  const ode::EnsembleResult golden =
      ode::solve_ensemble(p, ode::Method::kDopri5, o, base);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{3}, std::size_t{8}}) {
      ode::EnsembleSpec v = spec;
      v.workers = workers;
      v.max_batch = batch;
      const ode::EnsembleResult got =
          ode::solve_ensemble(p, ode::Method::kDopri5, o, v);
      for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
        const ode::Solution& ga = golden.solutions[s];
        const ode::Solution& gb = got.solutions[s];
        ASSERT_EQ(gb.size(), ga.size()) << "scenario " << s;
        for (std::size_t i = 0; i < ga.size(); ++i) {
          EXPECT_EQ(gb.time(i), ga.time(i));
          const auto ya = ga.state(i);
          const auto yb = gb.state(i);
          for (std::size_t q = 0; q < n; ++q) {
            EXPECT_EQ(yb[q], ya[q])
                << "workers=" << workers << " batch=" << batch
                << " scenario " << s << " step " << i << " slot " << q;
          }
        }
        EXPECT_EQ(gb.stats.steps, ga.stats.steps);
        EXPECT_EQ(gb.stats.rhs_calls, ga.stats.rhs_calls);
      }
    }
  }
}

TEST(Kernels, InterpLanesAreIndependent) {
  // Distinct lanes own private register files: running the same task on
  // two lanes back-to-back gives identical accumulations.
  pipeline::CompiledModel cm = pipeline::compile_model(
      [](expr::Context& ctx) {
        models::BearingConfig cfg;
        cfg.n_rollers = 4;
        return models::build_bearing(ctx, cfg);
      });
  pipeline::KernelOptions ko;
  ko.lanes = 2;
  const KernelInstance k = cm.make_kernel(Backend::kInterp, ko);
  ASSERT_GE(k.kernel().num_lanes(), 2u);

  const std::vector<double> y = start_state(cm);
  std::vector<double> a(cm.n(), 0.0), b(cm.n(), 0.0);
  for (std::uint32_t t = 0; t < k.kernel().num_tasks(); ++t) {
    k.kernel().run_task(0, t, 0.0, y.data(), a.data());
    k.kernel().run_task(1, t, 0.0, y.data(), b.data());
  }
  for (std::size_t i = 0; i < cm.n(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(NativeBackend, ConcurrentBuildersCompileEachModuleOnce) {
  // The .so cache is shared across processes (omxd executors, parallel
  // test shards); the per-key lockfile must serialize builders so
  // racing compiles of the same model neither clobber each other's
  // artifacts nor compile redundantly. flock on distinct fds excludes
  // within one process too, so racing threads exercise the same path.
  // The vector-math runtime object lives in the shared cache under the
  // same protocol: racing builders in a fresh shared cache build it
  // exactly once. (Each test runs in its own process, so the environment
  // is this test's own.)
  namespace fs = std::filesystem;
  const fs::path tmp = fs::temp_directory_path();
  const fs::path calib_shared = tmp / "omx-test-lock-calib-shared";
  const fs::path race_shared = tmp / "omx-test-lock-race-shared";
  const fs::path calib_dir = tmp / "omx-test-lock-calib";
  const fs::path race_dir = tmp / "omx-test-lock-race";
  for (const fs::path& d : {calib_shared, race_shared, calib_dir, race_dir}) {
    fs::remove_all(d);
  }
  pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  obs::Counter& compiles =
      obs::Registry::global().counter("backend.native.compiles");
  obs::Counter& runtime_builds =
      obs::Registry::global().counter("backend.native.runtime_builds");

  // Calibrate: how many modules does one cold build of this model
  // compile?
  ::setenv("OMX_NATIVE_CACHE_DIR", calib_shared.c_str(), 1);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = calib_dir.string();
  const std::uint64_t before_calib = compiles.value();
  const KernelInstance probe = cm.make_kernel(Backend::kNative, ko);
  const std::uint64_t per_build = compiles.value() - before_calib;

  ::setenv("OMX_NATIVE_CACHE_DIR", race_shared.c_str(), 1);
  ko.native.cache_dir = race_dir.string();
  const std::uint64_t before_race = compiles.value();
  const std::uint64_t runtime_before = runtime_builds.value();
  constexpr int kBuilders = 4;
  std::vector<KernelInstance> kernels;
  kernels.reserve(kBuilders);
  std::mutex kernels_mutex;
  std::vector<std::thread> threads;
  threads.reserve(kBuilders);
  for (int i = 0; i < kBuilders; ++i) {
    threads.emplace_back([&] {
      KernelInstance k = cm.make_kernel(Backend::kNative, ko);
      const std::lock_guard<std::mutex> lock(kernels_mutex);
      kernels.push_back(std::move(k));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  ::unsetenv("OMX_NATIVE_CACHE_DIR");
  for (const fs::path& d : {calib_shared, race_shared, calib_dir, race_dir}) {
    fs::remove_all(d);
  }
  if (probe.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  ASSERT_GT(per_build, 0u);

  // Exactly one builder compiled the model and one the runtime object;
  // the rest blocked on the locks and then hit the published artifacts.
  EXPECT_EQ(compiles.value() - before_race, per_build);
  EXPECT_EQ(runtime_builds.value() - runtime_before, 1u);
  const std::vector<double> y = start_state(cm);
  std::vector<double> want(cm.n());
  probe.kernel()(0.1, y, want);
  for (const KernelInstance& k : kernels) {
    ASSERT_EQ(k.backend(), Backend::kNative);
    std::vector<double> got(cm.n());
    k.kernel()(0.1, y, got);
    for (std::size_t i = 0; i < cm.n(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], want[i]);
    }
  }
}

TEST(NativeBackend, RacingFirstBuildsOfOneModelShareItsContextSafely) {
  // Emitting a model's C++ interns CSE temps and local aliases into the
  // model's expression context. Four threads make the first native
  // kernels of one CompiledModel at once, before any other build of it,
  // so their emissions meet on the context's tables (the TSan stress
  // pass runs this). Each kernel must evaluate like the reference, and
  // all alike.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "omx-test-first-race";
  fs::remove_all(dir);
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_hydro);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  constexpr int kBuilders = 4;
  std::vector<KernelInstance> kernels(kBuilders);
  std::vector<std::thread> threads;
  threads.reserve(kBuilders);
  for (int i = 0; i < kBuilders; ++i) {
    threads.emplace_back([&cm, &ko, &kernels, i] {
      kernels[static_cast<std::size_t>(i)] =
          cm.make_kernel(Backend::kNative, ko);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  fs::remove_all(dir);
  const std::vector<double> y = start_state(cm);
  std::vector<double> want(cm.n()), first(cm.n());
  cm.make_kernel(Backend::kReference).kernel()(0.1, y, want);
  kernels.front().kernel()(0.1, y, first);
  for (const KernelInstance& k : kernels) {
    std::vector<double> got(cm.n());
    k.kernel()(0.1, y, got);
    for (std::size_t i = 0; i < cm.n(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12 * std::max(1.0, std::fabs(want[i])))
          << "state " << i;
      EXPECT_EQ(got[i], first[i]) << "state " << i;
    }
  }
}

TEST(NativeBackend, RuntimeObjectFailureFallsBackToInterp) {
  // A host compiler that fails on the runtime unit (built with -c) but
  // builds anything else: the kernel degrades to the interpreter with the
  // one-line diagnostic, and nothing throws. The backend reads the
  // compiler once per process, so the wrapper is set before anything
  // probes it; ctest runs each test in its own process.
  namespace fs = std::filesystem;
  if (std::system("command -v c++ > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no c++ in PATH to wrap";
  }
  const fs::path dir = fs::temp_directory_path() / "omx-test-runtime-fail";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path cxx = dir / "cxx.sh";
  {
    std::ofstream script(cxx);
    script << "#!/bin/sh\n"
              "echo \"$@\" >> \"$0.calls\"\n"
              "for a in \"$@\"; do [ \"$a\" = -c ] && exit 1; done\n"
              "exec c++ \"$@\"\n";
  }
  fs::permissions(cxx, fs::perms::owner_all);
  ::setenv("OMX_NATIVE_CXX", cxx.c_str(), 1);
  ::setenv("OMX_NATIVE_CACHE_DIR", (dir / "shared").c_str(), 1);
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = (dir / "kernels").string();
  testing::internal::CaptureStderr();
  KernelInstance k;
  EXPECT_NO_THROW(k = cm.make_kernel(Backend::kNative, ko));
  const std::string err = testing::internal::GetCapturedStderr();
  ::unsetenv("OMX_NATIVE_CXX");
  ::unsetenv("OMX_NATIVE_CACHE_DIR");
  const bool wrapped = fs::exists(dir / "cxx.sh.calls");
  const bool built_kernel = fs::exists(dir / "kernels") &&
                            count_extension(dir / "kernels", ".so") > 0;
  fs::remove_all(dir);
  if (!wrapped) {
    GTEST_SKIP() << "the host compiler was chosen before this test ran; "
                    "run the test in its own process";
  }
  EXPECT_EQ(k.backend(), Backend::kInterp);
  EXPECT_FALSE(built_kernel);
  EXPECT_NE(err.find("native backend unavailable (vector-math runtime"),
            std::string::npos)
      << err;
  const std::vector<double> y = start_state(cm);
  std::vector<double> ydot(cm.n());
  k.kernel()(0.0, y, ydot);
  EXPECT_DOUBLE_EQ(ydot[0], y[1]);
  EXPECT_DOUBLE_EQ(ydot[1], -y[0]);
}

// ------------------------------------------- header-free native kernels

/// Calls every Func1/Func2 intrinsic and pow on a domain where each is
/// defined, so the native translation unit spells every function name
/// the C++ printer can emit.
constexpr const char* kAllFunctionsSource = R"(model AllFunctions
  class F
    var a start 0.3;
    var b start -0.45;
    var c start 1.7;
    var d start 0.8;
    eq der(a) == sin(a) + cos(b) + tan(0.5 * a) + asin(0.5 * b) + acos(0.4 * a);
    eq der(b) == atan(c) + sinh(b) - cosh(0.3 * a) + tanh(d) + exp(-0.5 * c);
    eq der(c) == log(c) + sqrt(d * d + 1) + abs(b) * sign(a - b) + atan2(a, c);
    eq der(d) == min(a, b) + max(c, d) + hypot(a, d) + c ^ 1.5 - sin(time);
  end
  instance f : F;
end
)";

pipeline::CompiledModel compile_all_functions() {
  return pipeline::compile_model([](expr::Context& ctx) {
    return parser::parse_model(kAllFunctionsSource, ctx);
  });
}

pipeline::CompiledModel compile_bearing4() {
  return pipeline::compile_model([](expr::Context& ctx) {
    models::BearingConfig cfg;
    cfg.n_rollers = 4;
    return models::build_bearing(ctx, cfg);
  });
}

TEST(NativeBackend, HeaderFreeUnitResolvesEveryFunction) {
  // The composed translation unit includes nothing: with the system
  // include paths removed it must still compile (no fallback), agree
  // with the interpreter and keep scalar == batched bitwise.
  const pipeline::CompiledModel cm = compile_all_functions();
  if (cm.make_kernel(Backend::kNative, test_kernel_opts()).backend() !=
      Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  pipeline::KernelOptions ko = test_kernel_opts();
  ko.native.extra_flags = "-nostdinc -nostdinc++";
  const KernelInstance native = cm.make_kernel(Backend::kNative, ko);
  ASSERT_EQ(native.backend(), Backend::kNative)
      << "the native unit needs a system header";
  const KernelInstance interp = cm.make_kernel(Backend::kInterp);

  const std::size_t n = cm.n();
  const BatchFixture fx(cm, 8);
  std::vector<double> batch(n * fx.nb);
  native.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                             batch.data());
  for (std::size_t j = 0; j < fx.nb; ++j) {
    std::vector<double> got(n), want(n);
    native.kernel()(fx.ts[j], fx.lane_y[j], got);
    interp.kernel()(fx.ts[j], fx.lane_y[j], want);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12 * std::max(1.0, std::fabs(want[i])))
          << "native vs interp, lane " << j << " slot " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i * fx.nb + j]),
                std::bit_cast<std::uint64_t>(got[i]))
          << "native batch not bitwise, lane " << j << " slot " << i;
    }
  }
}

TEST(NativeBackend, KernelObjectExportsOnlyItsEntryPoints) {
  // The runtime object's wrappers and their SIMD clones are hidden, and
  // the model body is internal: a kernel's dynamic symbol table holds
  // its three omx_* entry points and nothing the next kernel loaded
  // could bind to instead of its own.
  namespace fs = std::filesystem;
  const pipeline::CompiledModel cm = compile_all_functions();
  const fs::path dir = fs::temp_directory_path() / "omx-test-exports";
  fs::remove_all(dir);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = dir.string();
  if (cm.make_kernel(Backend::kNative, ko).backend() != Backend::kNative) {
    fs::remove_all(dir);
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  fs::path so;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".so") {
      so = e.path();
    }
  }
  void* handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(handle, nullptr) << dlerror();
  for (const char* name :
       {"omx_abi_version", "omx_n_state", "omx_rhs_serial_batch"}) {
    EXPECT_NE(dlsym(handle, name), nullptr) << name;
  }
  for (const char* name :
       {"omx_exp", "omx_sin", "omx_pow", "_ZGVdN4v_omx_exp",
        "_ZGVeN8vv_omx_pow", "_ZN10omx_serial9rhs_batchEiPKdS1_Pd"}) {
    EXPECT_EQ(dlsym(handle, name), nullptr) << name << " is exported";
  }
  dlclose(handle);
  fs::remove_all(dir);
}

/// The DT_NEEDED entries of an ELF64 shared object: the libraries the
/// dynamic loader maps in with it.
std::vector<std::string> needed_libraries(const std::filesystem::path& so) {
  std::ifstream in(so, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  Elf64_Ehdr eh{};
  if (bytes.size() < sizeof(eh)) {
    ADD_FAILURE() << so << " is not an ELF file";
    return {};
  }
  std::memcpy(&eh, bytes.data(), sizeof(eh));
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shoff + std::size_t{eh.e_shnum} * sizeof(Elf64_Shdr) >
          bytes.size()) {
    ADD_FAILURE() << so << " is not an ELF64 file";
    return {};
  }
  const auto section = [&](std::size_t i) {
    Elf64_Shdr sh{};
    std::memcpy(&sh, bytes.data() + eh.e_shoff + i * sizeof(sh), sizeof(sh));
    return sh;
  };
  std::vector<std::string> libs;
  for (std::size_t i = 0; i < eh.e_shnum; ++i) {
    const Elf64_Shdr dyn = section(i);
    if (dyn.sh_type != SHT_DYNAMIC) {
      continue;
    }
    if (dyn.sh_link >= eh.e_shnum ||
        dyn.sh_offset + dyn.sh_size > bytes.size()) {
      ADD_FAILURE() << so << " has a malformed dynamic section";
      return {};
    }
    const Elf64_Shdr strtab = section(dyn.sh_link);
    for (std::size_t off = 0; off + sizeof(Elf64_Dyn) <= dyn.sh_size;
         off += sizeof(Elf64_Dyn)) {
      Elf64_Dyn d{};
      std::memcpy(&d, bytes.data() + dyn.sh_offset + off, sizeof(d));
      if (d.d_tag == DT_NULL) {
        break;
      }
      if (d.d_tag == DT_NEEDED) {
        if (strtab.sh_offset + d.d_un.d_val >= bytes.size()) {
          ADD_FAILURE() << so << " names a library outside its file";
          return {};
        }
        libs.emplace_back(bytes.c_str() + strtab.sh_offset + d.d_un.d_val);
      }
    }
  }
  return libs;
}

TEST(NativeBackend, KernelObjectNeedsNoCxxRuntime) {
  // The kernel link names no default library, so a kernel .so depends on
  // libm at most: never on libstdc++, libgcc_s or libc. The kernels are
  // built once as the toolchain links by default and once with
  // -Wl,--no-as-needed, which stands in for a driver that does not pass
  // --as-needed: there every library on the link line is recorded, so
  // the line itself must name none of the three.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "omx-test-needed";
  fs::remove_all(dir);
  const pipeline::CompiledModel all = compile_all_functions();
  const pipeline::CompiledModel ball = pipeline::compile_model(
      [](expr::Context& ctx) { return models::build_bouncing_ball(ctx); });
  for (const char* flags : {"", "-Wl,--no-as-needed"}) {
    for (const pipeline::CompiledModel* cm : {&all, &ball}) {
      pipeline::KernelOptions ko;
      ko.native.cache_dir = dir.string();
      ko.native.extra_flags = flags;
      if (cm->make_kernel(Backend::kNative, ko).backend() !=
          Backend::kNative) {
        fs::remove_all(dir);
        GTEST_SKIP() << "no host compiler; native backend unavailable";
      }
    }
  }
  std::size_t objects = 0;
  std::size_t with_libm = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() != ".so") {
      continue;
    }
    ++objects;
    for (const std::string& lib : needed_libraries(e.path())) {
      const bool libm = lib.rfind("libm.so", 0) == 0;
      EXPECT_TRUE(libm) << e.path().filename() << " needs " << lib;
      with_libm += libm ? 1 : 0;
    }
  }
  fs::remove_all(dir);
  EXPECT_EQ(objects, 4u);
  // The all-functions kernel calls tan, asin, ... from the host libm, so
  // at least its two builds record it.
  EXPECT_GE(with_libm, 2u);
}

TEST(NativeBackend, TuningFlagsTakeOneProbeUnderGcc) {
  // g++ accepts all three tuning flags, so the process probes them in
  // one -fsyntax-only run, and the kernel builds with all three and
  // links no default library. The backend reads the compiler once per
  // process, so the wrapper is set before anything probes it; ctest runs
  // each test in its own process.
  namespace fs = std::filesystem;
  if (std::system("command -v g++ > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "no g++ in PATH to wrap";
  }
  const fs::path dir = fs::temp_directory_path() / "omx-test-one-probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path cxx = dir / "cxx.sh";
  {
    std::ofstream script(cxx);
    script << "#!/bin/sh\n"
              "echo \"$@\" >> \"$0.calls\"\n"
              "exec g++ \"$@\"\n";
  }
  fs::permissions(cxx, fs::perms::owner_all);
  ::setenv("OMX_NATIVE_CXX", cxx.c_str(), 1);
  ::setenv("OMX_NATIVE_CACHE_DIR", (dir / "shared").c_str(), 1);
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  pipeline::KernelOptions ko;
  ko.native.cache_dir = (dir / "kernels").string();
  const KernelInstance k = cm.make_kernel(Backend::kNative, ko);
  ::unsetenv("OMX_NATIVE_CXX");
  ::unsetenv("OMX_NATIVE_CACHE_DIR");
  std::vector<std::string> calls;
  {
    std::ifstream log(dir / "cxx.sh.calls");
    for (std::string line; std::getline(log, line);) {
      calls.push_back(line);
    }
  }
  fs::remove_all(dir);
  if (calls.empty()) {
    GTEST_SKIP() << "the host compiler was chosen before this test ran; "
                    "run the test in its own process";
  }
  ASSERT_EQ(k.backend(), Backend::kNative);
  std::size_t probes = 0;
  std::size_t links = 0;
  for (const std::string& call : calls) {
    probes += call.find("-fsyntax-only") != std::string::npos ? 1 : 0;
    if (call.find(" -shared ") != std::string::npos) {
      ++links;
      EXPECT_NE(call.find(" -nodefaultlibs "), std::string::npos) << call;
      for (const char* flag :
           {" -march=native", " -mprefer-vector-width=512",
            " --param=loop-max-datarefs-for-datadeps=100000"}) {
        EXPECT_NE(call.find(flag), std::string::npos) << flag;
      }
    }
  }
  EXPECT_EQ(probes, 1u);
  EXPECT_EQ(links, 1u);
}

/// The native scalar eval at the start state (t = 0.1) followed by an
/// eval_batch over the 8 perturbed lanes of BatchFixture.
std::vector<double> native_pin_outputs(const pipeline::CompiledModel& cm,
                                       const KernelInstance& native) {
  const std::size_t n = cm.n();
  std::vector<double> out(n);
  native.kernel()(0.1, start_state(cm), out);
  const BatchFixture fx(cm, 8);
  std::vector<double> batch(n * fx.nb);
  native.kernel().eval_batch(0, fx.nb, fx.ts.data(), fx.y_soa.data(),
                             batch.data());
  out.insert(out.end(), batch.begin(), batch.end());
  return out;
}

void expect_bits_pinned(const std::vector<double>& got,
                        const std::vector<double>& want) {
  std::ostringstream dump;
  dump << std::hexfloat;
  for (const double v : got) {
    dump << v << ",\n";
  }
  ASSERT_EQ(got.size(), want.size()) << "outputs now:\n" << dump.str();
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << "output " << i << ": " << std::hexfloat << got[i] << " != "
        << want[i];
  }
}

// Native output bits as computed when the unit included <cmath> and
// printed std:: names: the GNU builtin spellings and the header-free
// vector-math runtime must reproduce them bit for bit. The functions
// without an omx_ runtime form (tan, asin, ...) call the host libm, so
// the pins assume glibc and IEEE double arithmetic (no FMA contraction).
const std::vector<double> kBearing4Pin = {
    0x0p+0, 0x0p+0, 0x0p+0, -0x1.aa7a06d3a06d4p+8, 0x1.2cp+11, 0x1.4p+6,
    -0x0p+0, 0x1.999999999999bp+0, 0x0p+0, -0x1.39eb851eb851fp+3, -0x1.9p+12,
    -0x1.999999999999bp+0, 0x1.c3d09eb53c673p-54, 0x0p+0, -0x1.39eb851eb851fp+3,
    -0x1.9p+12, -0x1.c3d09eb53c673p-53, -0x1.999999999999bp+0, 0x0p+0,
    -0x1.39eb851eb851fp+3, -0x1.9p+12, 0x1.999999999999bp+0,
    -0x1.52dc7707ed4d6p-52, 0x0p+0, -0x1.39eb851eb851fp+3, -0x1.9p+12,
    0x1.0624dd2f1a9fcp-9, 0x1.4e3bcd35a8588p-8, 0x1.3a92a30553262p-10,
    0x1.19ce075f6fd22p-8, 0x1.a36e2eb1c432dp-12, 0x1.cac083126e979p-9,
    0x1.b089a02752546p-8, 0x1.61e4f765fd8aep-9, 0x1.89374bc6a7efap-9,
    0x1.8fc504816f007p-8, 0x1.205bc01a36e2fp-9, 0x1.5b573eab367a1p-8,
    0x1.6f0068db8bac7p-10, 0x1.26e978d4fdf3cp-8, 0x1.3a92a30553262p-11,
    0x1.e4f765fd8adacp-9, 0x1.cdec53fb36b77p+11, -0x1.07b37e4242077p+11,
    -0x1.4d22d8fdc0b46p+13, -0x1.aa99507456703p+10, -0x1.2c3da91ea0612p+13,
    -0x1.213e5e17a64b3p+7, -0x1.5f4cea348e2ddp+12, 0x1.3bcc53fb36b77p+11,
    -0x1.030a6618f4cd4p+11, -0x1.a85738bcca229p+13, -0x1.9b9773986cfd3p+9,
    -0x1.84643ca7189dap+13, -0x1.10206ce8616fcp+14, -0x1.208cbaa2adaaep+12,
    -0x1.e97bdd69aac27p+13, -0x1.952a6618f4cd4p+11, -0x1.0fa581cca251ep+13,
    -0x1.ee3795e3fdf81p+14, 0x1.626b8816124a4p+10, -0x1.f5baf15303f44p+14,
    -0x1.405c250391433p+14, -0x1.8cb3b313e9badp+13, -0x1.c024cc35e040cp+14,
    -0x1.0fa5839762d5p+13, 0x1.4004189374bc7p+6, 0x1.40001a36e2eb2p+6,
    0x1.400346dc5d639p+6, 0x1.40067381d7dbfp+6, 0x1.40027525460aap+6,
    0x1.4005a1cac0831p+6, 0x1.4001a36e2eb1cp+6, 0x1.4004d013a92a3p+6,
    0x1.0624dd2f1a9fcp-10, 0x1.0cb295e9e1b09p-8, 0x1.a36e2eb1c432dp-13,
    0x1.b089a02752546p-9, 0x1.a36e2eb1c432dp-8, 0x1.47ae147ae147bp-9,
    0x1.6f0068db8bac7p-8, 0x1.bda5119ce076p-10, 0x1.9a1cac083127p+0,
    0x1.9ae7d566cf421p+0, 0x1.99e83e425aee8p+0, 0x1.9ab367a0f9098p+0,
    0x1.99b3d07c84b5fp+0, 0x1.9a7ef9db22d1p+0, 0x1.9b4a2339c0ecp+0,
    0x1.9a4a8c154c987p+0, -0x1.c4c525cfa48cep+18, -0x1.1e9921e5f416ap+16,
    -0x1.8cefd91306a65p+18, -0x1.377029f88422ep+14, -0x1.1aae2bf4db951p+18,
    0x1.20907f905242cp+14, -0x1.900b2201eeb3dp+17, -0x1.0bad0a39f69c3p+19,
    -0x1.6a5e8ee38de16p+14, -0x1.4c714e2b1667bp+13, -0x1.02df1488257c9p+16,
    -0x1.f43c2d4884ca1p+11, -0x1.712712287d0e3p+15, -0x1.238d935152b13p+7,
    -0x1.ea2334fafb738p+14, -0x1.0b3f499e680cap+15, -0x1.1b5f381ca81fcp+22,
    -0x1.524b0e68bb0f2p+20, -0x1.0507b5aca9e62p+22, -0x1.9e0a53740d425p+19,
    -0x1.b387e82281cd1p+21, -0x1.c3af09bb518dap+18, -0x1.4b539d1d635f8p+21,
    -0x1.4f37ba9f5fbfdp+22, -0x1.9810624dd2f1cp+0, -0x1.990ff97247455p+0,
    -0x1.9844d013a92a4p+0, -0x1.994467381d7ddp+0, -0x1.98793dd97f62dp+0,
    -0x1.9978d4fdf3b66p+0, -0x1.98adab9f559b5p+0, -0x1.97e28240b7805p+0,
    0x1.c3d09eb53c673p-54, 0x1.9652bd3c361f5p-9, 0x1.9652bd3c36184p-8,
    0x1.2d77318fc512ap-9, 0x1.61e4f765fd91fp-8, 0x1.89374bc6a80bep-10,
    0x1.2d77318fc50b9p-8, 0x1.6f0068db8be4fp-11, -0x1.013ef3c499939p+13,
    -0x1.e49d1abd07fe8p+13, -0x1.3805a447c5a6fp+11, 0x1.24c6b668b0c8cp+12,
    -0x1.fa2f0988754a8p+13, -0x1.944b299d0fb5ap+14, -0x1.c8f27a2ec9d2p+13,
    -0x1.ddc55dd6ac4dap+13, -0x1.63371f950d5dfp+18, 0x1.c10cc63b7a35p+16,
    -0x1.0ec49a3b44f8bp+18, 0x1.1c0b92ab1501ep+17, -0x1.7ee6131ba6301p+15,
    -0x1.0c40f0a0c3512p+19, 0x1.22ea6af3826fdp+14, -0x1.b44ccd0ff6c42p+18,
    -0x1.bc5917cea8116p+21, -0x1.cbeab749f5c67p+20, -0x1.52d218111e00bp+21,
    -0x1.952728325aaeap+20, -0x1.ad2e3da93eb34p+21, -0x1.4fa794fc0639fp+22,
    -0x1.5ab652730b3c5p+21, -0x1.10e42f8e33fcap+22, 0x1.0624dd2f1a91ap-8,
    0x1.a36e2eb1c0ab3p-14, 0x1.a36e2eb1c4169p-9, 0x1.9ce075f6fd13ep-8,
    0x1.3a92a3055309ep-9, 0x1.6872b020c48d8p-8, 0x1.a36e2eb1c3fa5p-10,
    0x1.3404ea4a8c073p-8, -0x1.9851eb851eb87p+0, -0x1.995182a9930bfp+0,
    -0x1.9886594af4f0fp+0, -0x1.9985f06f69448p+0, -0x1.98bac710cb297p+0,
    -0x1.97ef9db22d0e7p+0, -0x1.98ef34d6a162p+0, -0x1.98240b780346fp+0,
    -0x1.5b113efc69099p+16, -0x1.5a04d133315a9p+16, 0x0p+0,
    -0x1.5b1cea11021f9p+16, 0x0p+0, -0x1.5b113efc6909ap+16,
    -0x1.f7ab0a9113db4p+15, -0x1.5b113efc69099p+16, -0x1.76b9b6a4330dbp+9,
    -0x1.759bafd922989p+9, -0x1.39eb851eb851fp+3, -0x1.76c6258c9693ep+9,
    -0x1.39eb851eb851fp+3, -0x1.76b9b6a4330ccp+9, -0x1.387bd91c42ee2p+13,
    -0x1.76b9b6a4330dbp+9, -0x1.b46edd2112947p+19, -0x1.b31fb71a4d0dap+19,
    -0x1.900353f7ced91p+12, -0x1.b47d686f34db7p+19, -0x1.9002d0e560419p+12,
    -0x1.b46ed616d523dp+19, -0x1.4146e24fbe6c4p+19, -0x1.b46ede0672d5fp+19,
    0x1.9a1cac083127p+0, 0x1.9ae7d566cf421p+0, 0x1.99e83e425aee8p+0,
    0x1.9ab367a0f9098p+0, 0x1.99b3d07c84b5fp+0, 0x1.9a7ef9db22d1p+0,
    0x1.9b4a2339c0ecp+0, 0x1.9a4a8c154c987p+0, 0x1.89374bc6a7c54p-9,
    0x1.8fc504816eeb4p-8, 0x1.205bc01a36b89p-9, 0x1.5b573eab3664ep-8,
    0x1.6f0068db8b57cp-10, 0x1.26e978d4fdde9p-8, 0x1.3a92a305527cbp-11,
    0x1.e4f765fd8ab06p-9, 0x0p+0, 0x0p+0, -0x1.b6533fa836ae5p+10, 0x0p+0,
    0x0p+0, 0x0p+0, 0x0p+0, 0x0p+0, -0x1.39eb851eb851fp+3,
    -0x1.39eb851eb851fp+3, 0x1.37c62c4b29a9cp+13, -0x1.39eb851eb851fp+3,
    -0x1.39eb851eb851fp+3, -0x1.39eb851eb851fp+3, -0x1.39eb851eb851fp+3,
    -0x1.39eb851eb851fp+3, -0x1.90028f5c28f5cp+12, -0x1.900010624dd2fp+12,
    -0x1.a492db300f73bp+16, -0x1.9004083126e98p+12, -0x1.900189374bc69p+12,
    -0x1.9003851eb851fp+12, -0x1.90010624dd2f1p+12, -0x1.9003020c49ba7p+12,
};

const std::vector<double> kAllFunctionsPin = {
    0x1.490b94d483a7ap+1, 0x1.527f872198f2cp-1, 0x1.37cc667040ce6p+1,
    0x1.0e266ee56de23p+2, 0x1.492aa23c1289ap+1, 0x1.49f6b97ab3016p+1,
    0x1.49e9c6b6f2e0ap+1, 0x1.49c217970426cp+1, 0x1.4a8de6eecff22p+1,
    0x1.498d6f3fab70ap+1, 0x1.4a59579def1cbp+1, 0x1.4958c075c98efp+1,
    0x1.53f6cb38d0f78p-1, 0x1.569eab3768d91p-1, 0x1.532e0607bbf5cp-1,
    0x1.55ef6324c4f2ep-1, 0x1.5670fa82e34e8p-1, 0x1.553ffccd10c9ep-1,
    0x1.55e8db868fda5p-1, 0x1.54907828ed80ep-1, 0x1.38090cd634cb5p+1,
    0x1.384e5b85bd927p+1, 0x1.3879d52eab391p+1, 0x1.383c7c9db9039p+1,
    0x1.37829d23f9745p+1, 0x1.382a9b085ebe9p+1, 0x1.37e019cf163eap+1,
    0x1.3818b6c4d6eeep+1, 0x1.14858e900c265p+2, 0x1.125d58eaff825p+2,
    0x1.0e068d1f71e58p+2, 0x1.0bbcc3a0dde3p+2, 0x1.07e3aadd32accp+2,
    0x1.053645abda7aep+2, 0x1.02c36d0f6b91dp+2, 0x1.fdb3c02b81727p+1,
};

TEST(NativeBackend, OutputBitsMatchPinnedValues) {
  const pipeline::CompiledModel bearing = compile_bearing4();
  const KernelInstance native =
      bearing.make_kernel(Backend::kNative, test_kernel_opts());
  if (native.backend() != Backend::kNative) {
    GTEST_SKIP() << "no host compiler; native backend unavailable";
  }
  {
    SCOPED_TRACE("bearing N=4");
    expect_bits_pinned(native_pin_outputs(bearing, native), kBearing4Pin);
  }
  {
    SCOPED_TRACE("all functions");
    const pipeline::CompiledModel all = compile_all_functions();
    expect_bits_pinned(
        native_pin_outputs(all,
                           all.make_kernel(Backend::kNative,
                                           test_kernel_opts())),
        kAllFunctionsPin);
  }
}

}  // namespace
}  // namespace omx::exec
