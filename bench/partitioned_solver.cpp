// §2.3 reproduction: the benefits of partitioning an ODE system into
// independent subsystems, as the paper enumerates:
//  1. "The ODE-solver can, for each ODE system, choose its own step size
//     independently ... the average step size may increase."
//  2. "The ODE-solver's internal computation time decreases due to fewer
//     state variables."
//  3. "If the solver uses an implicit method we can get quadratic speedup
//     thanks to a smaller Jacobian matrix."
//
// Workload: K independent stiff subsystems with time scales spread over
// two orders of magnitude (a multirate problem). Solved (a) as one
// monolithic system, (b) as K independent systems (legal because the
// dependency analysis proves independence).
//
// The second half measures point (3) *inside* a subsystem: the stiff
// path on the full n x n pattern (the problem without its pattern:
// n+1-call FD Jacobian, sparse LU over every entry) against the same
// path on the structural pattern (colored FD + sparse LU on the band)
// on the tridiagonal heat-PDE stencil across sizes, exporting
// BENCH_sparse.json for scripts/bench_gate.py (gate_sparse: parity at
// n <= 16, >= 2x at the largest size). At n = 128 it also reports,
// without a gate, the BDF stepper's cost per lane step in an ensemble
// worker's lockstep lanes against the same lanes solved one by one.
// Last, also without a gate, the full-pattern sparse LU against the
// textbook dense LuFactors (the tests' oracle) at n = 8, 16 and 32.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>
#include <string>
#include <vector>

#include "dense_oracle.hpp"
#include "omx/analysis/partition.hpp"
#include "omx/model/flatten.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/sink.hpp"
#include "omx/ode/solve.hpp"
#include "omx/parser/parser.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace {

// K stiff 2-state relaxation oscillators with rates lambda_k.
omx::ode::Problem subsystem(double lambda, double tend) {
  omx::ode::Problem p;
  p.n = 2;
  p.set_rhs([lambda](double t, std::span<const double> y,
                     std::span<double> f) {
    f[0] = y[1];
    f[1] = -lambda * (y[0] - std::cos(0.3 * t)) - 2.0 * std::sqrt(lambda) *
           y[1];
  });
  p.t0 = 0.0;
  p.tend = tend;
  p.y0 = {1.0, 0.0};
  return p;
}

omx::ode::Problem monolithic(const std::vector<double>& lambdas,
                             double tend) {
  omx::ode::Problem p;
  p.n = 2 * lambdas.size();
  p.set_rhs([lambdas](double t, std::span<const double> y,
                      std::span<double> f) {
    for (std::size_t k = 0; k < lambdas.size(); ++k) {
      const double l = lambdas[k];
      f[2 * k] = y[2 * k + 1];
      f[2 * k + 1] = -l * (y[2 * k] - std::cos(0.3 * t)) -
                     2.0 * std::sqrt(l) * y[2 * k + 1];
    }
  });
  p.t0 = 0.0;
  p.tend = tend;
  p.y0.assign(p.n, 0.0);
  for (std::size_t k = 0; k < lambdas.size(); ++k) {
    p.y0[2 * k] = 1.0;
  }
  return p;
}

// -- dense vs sparse stiff backend on the heat-PDE stencil -------------------

double time_solve(const omx::ode::Problem& p, const omx::ode::SolverOptions& o,
                  omx::ode::SolverStats* stats) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    omx::ode::Solution s = omx::ode::solve(p, omx::ode::Method::kBdf, o);
    const std::chrono::duration<double> dt = clock::now() - t0;
    if (dt.count() < best) {
      best = dt.count();
      if (stats != nullptr) {
        *stats = s.stats;
      }
    }
  }
  return best;
}

// Per-layer timings of the stiff path's linear algebra at one size: an
// in-place refactorization of the Newton matrix M = I - beta*h*J, one
// solve against it, and the per-lane share of one la::LaneSolver solve
// over 16 lanes that share its structure (as an ensemble worker's BDF
// lanes do). Each is the best mean over several batches.
struct LuTimings {
  double refactor_us = 0.0;
  double solve_us = 0.0;
  double solve_lanes16_us = 0.0;
};

LuTimings time_sparse_lu(const omx::la::CsrMatrix& jac) {
  using clock = std::chrono::steady_clock;
  const omx::la::SparsityPattern& pat = jac.pattern();
  omx::la::CsrMatrix m(jac.pattern_ptr());
  const double beta_h = 2.0 / 3.0 * 1e-3;  // BDF2 at h = 1e-3
  for (std::size_t r = 0; r < pat.rows; ++r) {
    for (std::size_t k = pat.row_ptr[r]; k < pat.row_ptr[r + 1]; ++k) {
      m.values()[k] =
          (pat.col_idx[k] == r ? 1.0 : 0.0) - beta_h * jac.values()[k];
    }
  }
  omx::la::SparseLu lu(m);
  std::vector<double> b(pat.rows, 1.0), x(pat.rows);
  constexpr std::size_t kLanes = 16;
  const std::vector<omx::la::SparseLu> lane_lus(kLanes, lu);
  std::vector<const omx::la::SparseLu*> lanes;
  std::vector<std::size_t> slots;
  for (std::size_t q = 0; q < kLanes; ++q) {
    lanes.push_back(&lane_lus[q]);
    slots.push_back(q);
  }
  omx::la::LaneSolver lane_solver;
  std::vector<double> bs(pat.rows * kLanes, 1.0), xs(bs.size());
  constexpr int kReps = 2000;
  const auto mean_us = [](clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count() / kReps;
  };
  LuTimings best{1e300, 1e300, 1e300};
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      lu.refactor(m);
    }
    const auto t1 = clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      lu.solve(b, x);
    }
    const auto t2 = clock::now();
    for (int rep = 0; rep < kReps; ++rep) {
      lane_solver.solve(lanes, slots, bs.data(), xs.data());
    }
    const auto t3 = clock::now();
    best.refactor_us = std::min(best.refactor_us, mean_us(t1 - t0));
    best.solve_us = std::min(best.solve_us, mean_us(t2 - t1));
    best.solve_lanes16_us =
        std::min(best.solve_lanes16_us, mean_us(t3 - t2) / kLanes);
  }
  return best;
}

// Microseconds per lane step of 64 heat n = 128 scenarios (modes 1-3,
// amplitudes 0.5-1.5) under BDF2 with the symbolic Jacobian on the
// native kernel (the interpreter when no host compiler is available):
// once as one worker's ensemble at max_batch 16, whose BDF lanes step in
// lockstep, and once one scenario after another through ode::solve.
// Each is the best of several sweeps; both take the same steps.
struct BdfLaneTimings {
  double ensemble_us = 0.0;
  double sequential_us = 0.0;
  bool native = false;
};

BdfLaneTimings time_bdf_lanes() {
  using namespace omx;
  using clock = std::chrono::steady_clock;
  constexpr int kCells = 128;
  constexpr std::size_t kScenarios = 64;
  models::Heat1dConfig cfg;
  cfg.n_cells = kCells;
  pipeline::CompileOptions copts;
  copts.build_jacobian = true;
  pipeline::CompiledModel cm = pipeline::compile_model(
      [&cfg](expr::Context& ctx) { return models::build_heat1d(ctx, cfg); },
      copts);
  const exec::KernelInstance kernel = cm.make_kernel(exec::Backend::kNative);
  ode::Problem p = cm.make_problem(kernel, 0.0, 0.025);
  cm.bind_symbolic_jacobian(p);
  ode::EnsembleSpec spec;
  spec.workers = 1;
  spec.max_batch = 16;
  // Scenario s starts from amp * sin(mode pi x), an eigenvector of the
  // discrete Laplacian; a state's node number is in its name (rod.u[12]).
  std::vector<int> node;
  for (const model::FlatState& st : cm.flat->states()) {
    const std::string& name = cm.ctx->names.name(st.name);
    node.push_back(std::atoi(name.c_str() + name.rfind('[') + 1));
  }
  const double dx = 1.0 / (kCells + 1);
  for (std::size_t s = 0; s < kScenarios; ++s) {
    const int mode = 1 + static_cast<int>(s % 3);
    const double amp = 0.5 + static_cast<double>((s * 37) % 64) / 64.0;
    std::vector<double> y0;
    for (const int k : node) {
      y0.push_back(amp * std::sin(mode * std::numbers::pi * dx * k));
    }
    spec.initial_states.push_back(std::move(y0));
  }
  ode::SolverOptions o;
  o.bdf_max_order = 2;
  BdfLaneTimings best{1e300, 1e300,
                      kernel.backend() == exec::Backend::kNative};
  for (int rep = 0; rep < 5; ++rep) {
    ode::StatsOnlySink ens(kScenarios), seq(kScenarios);
    const auto t0 = clock::now();
    ode::solve_ensemble(p, ode::Method::kBdf, o, spec, ens);
    const auto t1 = clock::now();
    for (std::size_t s = 0; s < kScenarios; ++s) {
      ode::Problem ps = p;
      ps.y0 = spec.initial_states[s];
      ode::solve(ps, ode::Method::kBdf, o, seq, static_cast<std::uint32_t>(s));
    }
    const auto t2 = clock::now();
    std::uint64_t steps = 0;
    for (std::size_t s = 0; s < kScenarios; ++s) {
      steps += ens.stats(s).steps;
      if (ens.stats(s).steps != seq.stats(s).steps) {
        std::fprintf(stderr, "bdf lanes: scenario %zu steps differ\n", s);
        std::exit(1);
      }
    }
    const auto per_step = [steps](clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count() /
             static_cast<double>(steps);
    };
    best.ensemble_us = std::min(best.ensemble_us, per_step(t1 - t0));
    best.sequential_us = std::min(best.sequential_us, per_step(t2 - t1));
  }
  return best;
}

// The full-pattern sparse LU against the textbook dense LuFactors on one
// n x n matrix: SparseLu::refactor (what each Newton factorization costs)
// over LuFactors' construct plus factor (what a fresh dense factorization
// costs), and solve over solve; each the best mean over several batches.
// The unpivoted matrix is D = I n + R, R pseudo-random in [-1, 1), whose
// diagonal dominates its columns, so partial pivoting never swaps; the
// pivoted one is D with its rows reversed, so every pivot is a swap with
// a strict unique maximum and the refactor replays the stored order.
struct FullLuTimings {
  double refactor_us = 0.0, lu_factor_us = 0.0;
  double solve_us = 0.0, lu_solve_us = 0.0;
};

FullLuTimings time_full_lu(std::size_t n, bool pivoted) {
  using clock = std::chrono::steady_clock;
  omx::oracle::Matrix d(n, n);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double r =
          static_cast<double>(state >> 11) * 0x1.0p-53 * 2.0 - 1.0;
      d(pivoted ? n - 1 - i : i, j) =
          r + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  omx::la::CsrMatrix a(std::make_shared<omx::la::SparsityPattern>(
      omx::la::SparsityPattern::dense(n)));
  std::copy(d.data().begin(), d.data().end(), a.values().begin());
  omx::la::SparseLu lu(a);
  std::vector<double> b(n, 1.0), x(n);
  const int reps = static_cast<int>(40000 / n);
  const auto mean_us = [reps](clock::duration dt) {
    return std::chrono::duration<double, std::micro>(dt).count() / reps;
  };
  double growth = 0.0;  // checked below, so the dense factorizations stay
  FullLuTimings best{1e300, 1e300, 1e300, 1e300};
  for (int batch = 0; batch < 7; ++batch) {
    const auto t0 = clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      lu.refactor(a);
    }
    const auto t1 = clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      growth += omx::oracle::LuFactors(d).pivot_growth();
    }
    const auto t2 = clock::now();
    for (int rep = 0; rep < reps; ++rep) {
      lu.solve(b, x);
    }
    const auto t3 = clock::now();
    const omx::oracle::LuFactors dense(d);
    for (int rep = 0; rep < reps; ++rep) {
      dense.solve(b, x);
    }
    const auto t4 = clock::now();
    best.refactor_us = std::min(best.refactor_us, mean_us(t1 - t0));
    best.lu_factor_us = std::min(best.lu_factor_us, mean_us(t2 - t1));
    best.solve_us = std::min(best.solve_us, mean_us(t3 - t2));
    best.lu_solve_us = std::min(best.lu_solve_us, mean_us(t4 - t3));
  }
  if (!(growth > 0.0)) {
    std::fprintf(stderr, "full LU n=%zu: no dense factorization\n", n);
    std::exit(1);
  }
  return best;
}

void bench_full_lu(omx::obs::Registry& metrics) {
  std::printf("\nfull-pattern sparse LU vs dense LuFactors (report-only):\n");
  std::printf("  %4s %8s %12s %12s %9s %10s %10s %9s\n", "n", "pivots",
              "refactor us", "LU fact. us", "ratio", "solve us", "LU sol. us",
              "ratio");
  for (const std::size_t n : {8, 16, 32}) {
    for (const bool pivoted : {false, true}) {
      const FullLuTimings r = time_full_lu(n, pivoted);
      const double factor_ratio = r.refactor_us / r.lu_factor_us;
      const double solve_ratio = r.solve_us / r.lu_solve_us;
      std::printf("  %4zu %8s %12.3f %12.3f %8.2fx %10.3f %10.3f %8.2fx\n",
                  n, pivoted ? "swapped" : "none", r.refactor_us,
                  r.lu_factor_us, factor_ratio, r.solve_us, r.lu_solve_us,
                  solve_ratio);
      char name[96];
      std::snprintf(name, sizeof name, "sparse.full.n%zu.%s", n,
                    pivoted ? "pivoted" : "unpivoted");
      metrics.gauge(std::string(name) + ".refactor_over_lu")
          .set(factor_ratio);
      metrics.gauge(std::string(name) + ".solve_over_lu").set(solve_ratio);
    }
  }
}

void bench_sparse_backends() {
  using namespace omx;
  const std::vector<int> sizes{8, 16, 32, 64, 128};
  obs::Registry metrics;

  std::printf("\nstiff backend inside one subsystem (heat PDE, BDF2):\n");
  std::printf("  %6s %10s %10s %9s %7s %14s\n", "n", "full ms", "struct ms",
              "speedup", "colors", "jac-build RHS");

  for (int n : sizes) {
    models::Heat1dConfig cfg;
    cfg.n_cells = n;
    pipeline::CompiledModel cm = pipeline::compile_model(
        [&cfg](expr::Context& ctx) { return models::build_heat1d(ctx, cfg); });
    ode::SolverOptions o;
    o.tol.rtol = 1e-6;
    o.tol.atol = 1e-9;
    o.record_every = 1u << 30;

    // Full pattern: no structure known, FD over every column (n+1
    // calls) + sparse LU over all n x n entries.
    ode::Problem dense_p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.05);
    dense_p.sparsity.reset();
    ode::SolverStats dense_stats;
    const double dense_s = time_solve(dense_p, o, &dense_stats);

    // Structural pattern: colored FD + sparse LU on the band.
    ode::Problem sparse_p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.05);
    ode::SolverStats sparse_stats;
    const double sparse_s = time_solve(sparse_p, o, &sparse_stats);
    std::shared_ptr<const ode::JacPlan> plan = ode::make_jac_plan(sparse_p);

    // One Jacobian build in isolation: colors+1 RHS calls vs n+1.
    la::CsrMatrix jac(plan->pattern);
    std::uint64_t build_calls = 0;
    ode::FdScratch scratch;
    ode::LaneRhs f(sparse_p, 0);
    ode::colored_fd_jacobian(f, *plan, 0.0, sparse_p.y0, jac, build_calls,
                             scratch);

    const double speedup = sparse_s > 0.0 ? dense_s / sparse_s : 0.0;
    std::printf("  %6d %10.3f %10.3f %8.2fx %7d %11llu/%llu\n", n,
                dense_s * 1e3, sparse_s * 1e3, speedup,
                plan->coloring.num_colors,
                static_cast<unsigned long long>(build_calls),
                static_cast<unsigned long long>(n + 1));

    char name[96];
    const auto g = [&metrics, &name](const char* suffix, double v) {
      char full[128];
      std::snprintf(full, sizeof full, "%s.%s", name, suffix);
      metrics.gauge(full).set(v);
    };
    std::snprintf(name, sizeof name, "sparse.heat.n%d", n);
    g("dense_wall_s", dense_s);
    g("sparse_wall_s", sparse_s);
    g("sparse_over_dense", speedup);
    g("colors", static_cast<double>(plan->coloring.num_colors));
    g("jac_build_rhs_calls", static_cast<double>(build_calls));
    g("nnz", static_cast<double>(plan->pattern->nnz()));
    g("dense_rhs_calls", static_cast<double>(dense_stats.rhs_calls));
    g("sparse_rhs_calls", static_cast<double>(sparse_stats.rhs_calls));
    g("sparse_reuse_hits", static_cast<double>(sparse_stats.jac_reuse_hits));
    if (n == sizes.back()) {
      const LuTimings lu = time_sparse_lu(jac);
      std::printf(
          "  n=%d sparse LU: refactor %.2f us, solve %.2f us, "
          "16-lane solve %.2f us per lane\n",
          n, lu.refactor_us, lu.solve_us, lu.solve_lanes16_us);
      g("refactor_us", lu.refactor_us);
      g("lu_solve_us", lu.solve_us);
      g("lu_solve_lanes16_us", lu.solve_lanes16_us);
      const BdfLaneTimings bdf = time_bdf_lanes();
      std::printf(
          "  n=%d BDF2 lane step (%s kernel, 1 worker): ensemble of 64 at "
          "max_batch 16 %.2f us, one by one %.2f us (%.2fx)\n",
          n, bdf.native ? "native" : "interp", bdf.ensemble_us,
          bdf.sequential_us, bdf.sequential_us / bdf.ensemble_us);
      g("bdf_ensemble_us_per_lane_step", bdf.ensemble_us);
      g("bdf_sequential_us_per_lane_step", bdf.sequential_us);
      g("bdf_sequential_over_ensemble", bdf.sequential_us / bdf.ensemble_us);
    }
  }
  metrics.gauge("sparse.heat.largest_n")
      .set(static_cast<double>(sizes.back()));
  bench_full_lu(metrics);

  const char* out_path = "BENCH_sparse.json";
  if (obs::write_file(out_path, obs::metrics_json(metrics.snapshot()))) {
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace omx;
  const std::vector<double> lambdas{1.0, 10.0, 100.0, 1000.0, 10000.0};
  const double tend = 5.0;

  // First show the dependency analysis *proving* the split is legal,
  // using the modeling pipeline on an equivalent model.
  {
    expr::Context ctx;
    std::string src = "model Multirate\n  class Sub(lambda)\n"
                      "    var x start 1, v start 0;\n"
                      "    eq der(x) == v;\n"
                      "    eq der(v) == -lambda*(x - cos(0.3*time))"
                      " - 2*sqrt(lambda)*v;\n  end\n";
    src += "  instance s[1..5] : Sub(10^(index - 1));\nend\n";
    model::FlatSystem flat =
        model::flatten(parser::parse_model(src, ctx));
    const auto deps = analysis::analyze_dependencies(flat);
    const auto part = analysis::partition_by_scc(flat, deps);
    std::printf("dependency analysis: %zu states partition into %zu"
                " independent subsystems (width %zu)\n\n",
                flat.num_states(), part.num_subsystems(),
                part.max_parallel_width());
  }

  // (1)+(2): explicit adaptive solve, monolithic vs partitioned.
  ode::SolverOptions dopts;
  dopts.tol.rtol = 1e-7;
  dopts.tol.atol = 1e-9;
  dopts.record_every = 1u << 30;  // keep memory flat

  const ode::Solution mono =
      ode::solve(monolithic(lambdas, tend), ode::Method::kDopri5, dopts);
  std::uint64_t split_steps_max = 0;
  std::uint64_t split_rhs_weighted = 0;  // sum over subsystems of calls*n_k
  double avg_h_split = 0.0;
  for (double l : lambdas) {
    const ode::Solution s =
        ode::solve(subsystem(l, tend), ode::Method::kDopri5, dopts);
    split_steps_max = std::max(split_steps_max, s.stats.steps);
    split_rhs_weighted += s.stats.rhs_calls * 2;
    avg_h_split += tend / static_cast<double>(s.stats.steps);
  }
  avg_h_split /= static_cast<double>(lambdas.size());
  const double avg_h_mono = tend / static_cast<double>(mono.stats.steps);
  // Monolithic RHS work: calls * n states; split work: per-subsystem.
  const std::uint64_t mono_rhs_weighted = mono.stats.rhs_calls * 10;

  std::printf("explicit adaptive (DOPRI5), 5 subsystems with lambda ="
              " 1..1e4:\n");
  std::printf("  %-40s %12.3e\n", "monolithic average step", avg_h_mono);
  std::printf("  %-40s %12.3e  (%.1fx larger) [paper: increases]\n",
              "partitioned average step", avg_h_split,
              avg_h_split / avg_h_mono);
  std::printf("  %-40s %12llu\n", "monolithic RHS work (calls x states)",
              static_cast<unsigned long long>(mono_rhs_weighted));
  std::printf("  %-40s %12llu  (%.1fx less) [paper: decreases]\n\n",
              "partitioned RHS work",
              static_cast<unsigned long long>(split_rhs_weighted),
              static_cast<double>(mono_rhs_weighted) /
                  static_cast<double>(split_rhs_weighted));

  // (3): implicit method Jacobian cost. Dense LU is O(n^3); factoring K
  // small Jacobians instead of one big one wins K^2.
  ode::SolverOptions bopts;
  bopts.tol.rtol = 1e-6;
  bopts.tol.atol = 1e-8;
  bopts.bdf_max_order = 2;
  const ode::Solution bmono =
      ode::solve(monolithic(lambdas, tend), ode::Method::kBdf, bopts);
  std::uint64_t bsplit_rhs = 0, bsplit_jac = 0;
  for (double l : lambdas) {
    const ode::Solution s =
        ode::solve(subsystem(l, tend), ode::Method::kBdf, bopts);
    bsplit_rhs += s.stats.rhs_calls;
    bsplit_jac += s.stats.jac_calls;
  }
  const double n_big = 10.0, n_small = 2.0, k = 5.0;
  std::printf("implicit (BDF2) Jacobian economics:\n");
  std::printf("  %-40s %12llu (n=10 each: %g flops/LU)\n",
              "monolithic jac evals",
              static_cast<unsigned long long>(bmono.stats.jac_calls),
              n_big * n_big * n_big / 3.0);
  std::printf("  %-40s %12llu (n=2 each: %g flops/LU)\n",
              "partitioned jac evals",
              static_cast<unsigned long long>(bsplit_jac),
              k * n_small * n_small * n_small / 3.0);
  std::printf("  per-factorization speedup: %.0fx  [paper: 'quadratic"
              " speedup' ~ K^2 = %.0fx]\n",
              (n_big * n_big * n_big) / (k * n_small * n_small * n_small),
              k * k);
  std::printf("  monolithic/partitioned BDF RHS calls: %llu / %llu\n",
              static_cast<unsigned long long>(bmono.stats.rhs_calls),
              static_cast<unsigned long long>(bsplit_rhs));

  bench_sparse_backends();
  return 0;
}
