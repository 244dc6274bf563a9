// Microbenchmarks of the ODE solver suite on standard problems.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "omx/la/sparse.hpp"
#include "omx/ode/solve.hpp"

namespace {

using namespace omx::ode;

Problem oscillator(std::size_t copies) {
  Problem p;
  p.n = 2 * copies;
  p.set_rhs([copies](double, std::span<const double> y,
                     std::span<double> f) {
    for (std::size_t k = 0; k < copies; ++k) {
      f[2 * k] = y[2 * k + 1];
      f[2 * k + 1] = -y[2 * k];
    }
  });
  p.t0 = 0.0;
  p.tend = 10.0;
  p.y0.assign(p.n, 0.0);
  for (std::size_t k = 0; k < copies; ++k) {
    p.y0[2 * k] = 1.0;
  }
  return p;
}

Problem stiff_tracking(bool with_jacobian = true) {
  Problem p;
  p.n = 1;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    f[0] = -1000.0 * (y[0] - std::cos(t)) - std::sin(t);
  });
  if (with_jacobian) {
    p.sparsity = std::make_shared<const omx::la::SparsityPattern>(
        omx::la::SparsityPattern::dense(1));
    p.set_sparse_jacobian(
        [](double, std::span<const double>, omx::la::CsrMatrix& j) {
          j.values()[0] = -1000.0;
        });
  }
  p.t0 = 0.0;
  p.tend = 2.0;
  p.y0 = {0.0};
  return p;
}

// Van der Pol at mu = 1000 with its analytic Jacobian: stiff, and at
// large beta*h the Newton matrix's first column pivots on row 1.
Problem van_der_pol() {
  constexpr double kMu = 1000.0;
  Problem p;
  p.n = 2;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[1];
    f[1] = kMu * (1.0 - y[0] * y[0]) * y[1] - y[0];
  });
  p.sparsity = std::make_shared<const omx::la::SparsityPattern>(
      omx::la::SparsityPattern::dense(2));
  p.set_sparse_jacobian(
      [](double, std::span<const double> y, omx::la::CsrMatrix& jac) {
        std::span<double> j = jac.values();  // row-major over dense(2)
        j[0] = 0.0;
        j[1] = 1.0;
        j[2] = -2.0 * kMu * y[0] * y[1] - 1.0;
        j[3] = kMu * (1.0 - y[0] * y[0]);
      });
  p.t0 = 0.0;
  p.tend = 1000.0;
  p.y0 = {2.0, 0.0};
  return p;
}

// A 4-state stiff linear reaction chain with a forcing term, no Jacobian
// and no pattern: finite differences over the full 4 x 4 pattern.
Problem chain() {
  Problem p;
  p.n = 4;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    f[0] = -1e4 * y[0] + 1e3 * y[3] + std::cos(t);
    f[1] = 1e4 * y[0] - 1e2 * y[1];
    f[2] = 1e2 * y[1] - y[2];
    f[3] = y[2] - 1e3 * y[3];
  });
  p.t0 = 0.0;
  p.tend = 10.0;
  p.y0 = {1.0, 0.0, 0.0, 0.0};
  return p;
}

SolverOptions no_record() {
  SolverOptions o;
  o.record_every = 1u << 30;
  return o;
}

void BM_Rk4(benchmark::State& state) {
  const Problem p = oscillator(static_cast<std::size_t>(state.range(0)));
  SolverOptions o = no_record();
  o.dt = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, Method::kRk4, o).final_state()[0]);
  }
}
BENCHMARK(BM_Rk4)->Arg(1)->Arg(16);

void BM_Dopri5(benchmark::State& state) {
  const Problem p = oscillator(static_cast<std::size_t>(state.range(0)));
  const SolverOptions o = no_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, Method::kDopri5, o).final_state()[0]);
  }
}
BENCHMARK(BM_Dopri5)->Arg(1)->Arg(16);

void BM_AdamsPece(benchmark::State& state) {
  const Problem p = oscillator(static_cast<std::size_t>(state.range(0)));
  const SolverOptions o = no_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve(p, Method::kAdamsPece, o).final_state()[0]);
  }
}
BENCHMARK(BM_AdamsPece)->Arg(1)->Arg(16);

void BM_BdfStiff(benchmark::State& state) {
  const Problem p = stiff_tracking();
  SolverOptions o = no_record();
  o.bdf_max_order = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, Method::kBdf, o).final_state()[0]);
  }
}
BENCHMARK(BM_BdfStiff);

void BM_BdfStiffFiniteDiffJac(benchmark::State& state) {
  const Problem p = stiff_tracking(/*with_jacobian=*/false);
  SolverOptions o = no_record();
  o.bdf_max_order = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, Method::kBdf, o).final_state()[0]);
  }
}
BENCHMARK(BM_BdfStiffFiniteDiffJac);

void BM_LsodaLikeStiff(benchmark::State& state) {
  const Problem p = stiff_tracking();
  const SolverOptions o = no_record();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve(p, Method::kLsodaLike, o).final_state()[0]);
  }
}
BENCHMARK(BM_LsodaLikeStiff);

// One ode::solve kBdf per iteration, at bdf_max_order state.range(0).
void BM_BdfVanDerPol(benchmark::State& state) {
  const Problem p = van_der_pol();
  SolverOptions o = no_record();
  o.bdf_max_order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, Method::kBdf, o).final_state()[0]);
  }
}
BENCHMARK(BM_BdfVanDerPol)->Arg(2)->Arg(4);

void BM_BdfChainFiniteDiffJac(benchmark::State& state) {
  const Problem p = chain();
  SolverOptions o = no_record();
  o.bdf_max_order = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(p, Method::kBdf, o).final_state()[0]);
  }
}
BENCHMARK(BM_BdfChainFiniteDiffJac)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
