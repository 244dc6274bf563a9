// Differential tests for the sparse Jacobian pipeline: structural
// patterns vs finite-difference probes, colored compressed FD vs the
// dense one-column-at-a-time Jacobian, sparse LU vs dense LU (bitwise,
// by design) with its refactor paths, full-vs-structural-pattern BDF
// trajectories, and the LSODA-style reuse policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dense_oracle.hpp"
#include "omx/analysis/sparsity.hpp"
#include "omx/la/sparse.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/models/servo.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx {
namespace {

using la::CsrMatrix;
using la::SparsityPattern;

pipeline::CompiledModel compile_with_jacobian(
    const pipeline::ModelBuilder& builder) {
  pipeline::CompileOptions opts;
  opts.build_jacobian = true;
  return pipeline::compile_model(builder, opts);
}

pipeline::ModelBuilder heat_builder(int n_cells) {
  return [n_cells](expr::Context& ctx) {
    models::Heat1dConfig cfg;
    cfg.n_cells = n_cells;
    return models::build_heat1d(ctx, cfg);
  };
}

// -- structural pattern vs FD probe ------------------------------------------

void expect_pattern_matches_probe(const pipeline::ModelBuilder& builder,
                                  const char* label) {
  SCOPED_TRACE(label);
  pipeline::CompiledModel cm = pipeline::compile_model(builder);
  ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 1.0);
  ASSERT_TRUE(p.sparsity != nullptr);
  const SparsityPattern probed =
      analysis::probe_sparsity(p.rhs, p.n, p.t0, p.y0);
  EXPECT_EQ(*p.sparsity, probed);
}

TEST(SparsityPattern, MatchesFdProbeOnAllModels) {
  expect_pattern_matches_probe(models::build_oscillator, "oscillator");
  expect_pattern_matches_probe(models::build_servo, "servo");
  expect_pattern_matches_probe(models::build_hydro, "hydro");
  expect_pattern_matches_probe(heat_builder(10), "heat1d");
}

TEST(SparsityPattern, HeatPdeIsTridiagonal) {
  pipeline::CompiledModel cm = pipeline::compile_model(heat_builder(16));
  ASSERT_TRUE(cm.sparsity != nullptr);
  EXPECT_EQ(cm.sparsity->lower_bandwidth(), 1u);
  EXPECT_EQ(cm.sparsity->upper_bandwidth(), 1u);
  EXPECT_EQ(cm.sparsity->nnz(), 3u * 16 - 2);
}

// -- FD increment (LSODA-style scaling) --------------------------------------

TEST(FdIncrement, ScalesWithStateAndCarriesSign) {
  const double sqrt_eps = std::sqrt(2.220446049250313e-16);
  EXPECT_DOUBLE_EQ(ode::fd_increment(0.0), sqrt_eps);
  EXPECT_DOUBLE_EQ(ode::fd_increment(1e8), sqrt_eps * 1e8);
  EXPECT_DOUBLE_EQ(ode::fd_increment(-1e8), -sqrt_eps * 1e8);
  EXPECT_DOUBLE_EQ(ode::fd_increment(0.5), sqrt_eps);       // typ floor
  EXPECT_DOUBLE_EQ(ode::fd_increment(0.5, 0.1), sqrt_eps * 0.5);
}

TEST(FdIncrement, DenseFdAccurateForLargeStates) {
  // f(y) = y^2 at y = 1e8: a fixed absolute increment would lose every
  // significant digit; the scaled increment keeps ~8 digits.
  ode::Problem p;
  p.n = 1;
  p.set_rhs([](double, std::span<const double> y, std::span<double> f) {
    f[0] = y[0] * y[0];
  });
  p.y0 = {1e8};
  oracle::Matrix jac(1, 1);
  std::uint64_t calls = 0;
  oracle::finite_difference_jacobian(p.rhs, 0.0, p.y0, jac, calls);
  EXPECT_EQ(calls, 2u);
  EXPECT_NEAR(jac(0, 0), 2e8, 2e8 * 1e-7);
}

// -- colored compressed FD vs dense FD ---------------------------------------

TEST(ColoredFd, MatchesDenseFdOnHeatPde) {
  pipeline::CompiledModel cm = pipeline::compile_model(heat_builder(24));
  ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 1.0);
  std::shared_ptr<const ode::JacPlan> plan = ode::make_jac_plan(p);
  ASSERT_TRUE(plan != nullptr);
  // Distance-2 coloring of a tridiagonal pattern needs exactly 3 colors.
  EXPECT_EQ(plan->coloring.num_colors, 3);

  // Evaluate off the initial condition so no state is exactly zero.
  std::vector<double> y = p.y0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] += 0.25 + 0.01 * static_cast<double>(i);
  }

  CsrMatrix colored(plan->pattern);
  std::uint64_t colored_calls = 0;
  ode::FdScratch scratch;
  ode::LaneRhs f(p, 0);
  ode::colored_fd_jacobian(f, *plan, 0.0, y, colored, colored_calls, scratch);
  EXPECT_EQ(colored_calls,
            static_cast<std::uint64_t>(plan->coloring.num_colors) + 1);

  oracle::Matrix dense(p.n, p.n);
  std::uint64_t dense_calls = 0;
  oracle::finite_difference_jacobian(p.rhs, 0.0, y, dense, dense_calls);
  EXPECT_EQ(dense_calls, static_cast<std::uint64_t>(p.n) + 1);

  // The compression is exact, not approximate: each equation reads at
  // most one perturbed column per color group, so every compressed
  // difference is the same floating-point expression as the dense one.
  for (std::size_t i = 0; i < p.n; ++i) {
    for (std::size_t j = 0; j < p.n; ++j) {
      EXPECT_EQ(colored.at(i, j), dense(i, j)) << "entry " << i << "," << j;
    }
  }
}

TEST(JacPlan, ExplicitFullPatternMatchesNoPatternPlan) {
  // A hand-written dense Jacobian comes with SparsityPattern::dense(n):
  // its plan must be the no-pattern one, whose direct "column j, color j"
  // coloring is also what the greedy walk gives a full pattern.
  ode::Problem none;
  none.n = 8;
  ode::Problem full = none;
  full.sparsity = std::make_shared<SparsityPattern>(SparsityPattern::dense(8));
  const std::shared_ptr<const ode::JacPlan> a = ode::make_jac_plan(none);
  const std::shared_ptr<const ode::JacPlan> b = ode::make_jac_plan(full);
  EXPECT_EQ(*a->pattern, *b->pattern);
  EXPECT_EQ(a->coloring.num_colors, 8);
  EXPECT_EQ(a->coloring.num_colors, b->coloring.num_colors);
  EXPECT_EQ(a->coloring.color, b->coloring.color);
  EXPECT_EQ(a->coloring.groups, b->coloring.groups);
  const la::Coloring greedy = la::color_columns(*b->pattern);
  EXPECT_EQ(greedy.color, b->coloring.color);
  EXPECT_EQ(greedy.groups, b->coloring.groups);
}

// -- symbolic sparse Jacobian tape -------------------------------------------

TEST(SparseJacobianTape, MatchesDenseFdOnHeatPde) {
  pipeline::CompiledModel cm = compile_with_jacobian(heat_builder(12));
  ASSERT_GT(cm.sparse_jacobian_program.n_regs, 0u);
  ASSERT_TRUE(cm.jac_sparsity != nullptr);
  ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 1.0);
  cm.bind_symbolic_jacobian(p);
  ASSERT_TRUE(p.sparse_jacobian);

  std::vector<double> y = p.y0;
  CsrMatrix sparse(cm.jac_sparsity);
  p.sparse_jacobian(0.0, y, sparse);
  oracle::Matrix fd(p.n, p.n);
  std::uint64_t calls = 0;
  oracle::finite_difference_jacobian(p.rhs, 0.0, y, fd, calls);

  // Every entry, the ones outside the pattern (exact 0.0 on both sides:
  // f_i does not read y_j there) included.
  for (std::size_t i = 0; i < p.n; ++i) {
    for (std::size_t j = 0; j < p.n; ++j) {
      EXPECT_NEAR(sparse.at(i, j), fd(i, j),
                  1e-6 * std::max(1.0, std::fabs(fd(i, j))))
          << "entry " << i << "," << j;
    }
  }
}

TEST(SparseJacobianTape, EnsembleWorkersEvaluateIndependently) {
  // solve_ensemble runs the BDF scenarios on copies of one Problem from
  // four workers at once; their symbolic Jacobian evaluations must not
  // share scratch state (the TSan pass runs this suite too).
  pipeline::CompiledModel cm = compile_with_jacobian(heat_builder(12));
  ode::Problem base = cm.make_problem(exec::Backend::kReference, 0.0, 0.05);
  cm.bind_symbolic_jacobian(base);
  ode::EnsembleSpec spec;
  spec.workers = 4;
  for (int s = 0; s < 16; ++s) {
    std::vector<double> y0 = base.y0;
    for (std::size_t i = 0; i < y0.size(); ++i) {
      y0[i] = std::sin(0.3 * (s + 1) * static_cast<double>(i + 1));
    }
    spec.initial_states.push_back(std::move(y0));
  }
  const ode::SolverOptions o;
  const ode::EnsembleResult r =
      ode::solve_ensemble(base, ode::Method::kBdf, o, spec);
  ASSERT_EQ(r.solutions.size(), spec.initial_states.size());
  for (std::size_t s = 0; s < spec.initial_states.size(); ++s) {
    ode::Problem p = base;
    p.y0 = spec.initial_states[s];
    const ode::Solution want = ode::solve(p, ode::Method::kBdf, o);
    const std::span<const double> got = r.solutions[s].final_state();
    const std::span<const double> ref = want.final_state();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), ref.begin(), ref.end()))
        << "scenario " << s;
    EXPECT_GT(want.stats.jac_calls, 0u);
  }
}

// -- sparse LU vs dense LU ---------------------------------------------------

CsrMatrix tridiagonal_matrix(std::size_t n) {
  std::vector<std::pair<std::size_t, std::size_t>> trips;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) trips.emplace_back(i, i - 1);
    trips.emplace_back(i, i);
    if (i + 1 < n) trips.emplace_back(i, i + 1);
  }
  auto pat = std::make_shared<SparsityPattern>(
      SparsityPattern::from_triplets(n, n, std::move(trips)));
  CsrMatrix a(pat);
  const SparsityPattern& sp = a.pattern();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = sp.row_ptr[i]; k < sp.row_ptr[i + 1]; ++k) {
      const std::size_t j = sp.col_idx[k];
      // Deterministic, non-symmetric, diagonally non-dominant enough to
      // exercise pivoting on some columns.
      a.values()[k] = (i == j)
                          ? 0.5 + 0.125 * static_cast<double>(i % 4)
                          : 1.0 + 0.0625 * static_cast<double>((i + j) % 5);
    }
  }
  return a;
}

TEST(SparseLu, BitwiseIdenticalToDenseLuOnBandedMatrix) {
  const std::size_t n = 12;
  CsrMatrix a = tridiagonal_matrix(n);
  la::SparseLu sparse(a);
  oracle::LuFactors dense(oracle::to_dense(a));

  std::vector<double> b(n), xs(n), xd(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 1.0 - 0.25 * static_cast<double>(i % 3);
  }
  sparse.solve(b, xs);
  dense.solve(b, xd);
  for (std::size_t i = 0; i < n; ++i) {
    // Same floating-point operations in the same order: exact equality,
    // not just 1e-12 closeness.
    EXPECT_EQ(xs[i], xd[i]) << "component " << i;
  }
  // Banded fast path: tridiagonal factors stay tridiagonal (plus pivot
  // spill into the first superdiagonals), far below n^2.
  EXPECT_LT(sparse.factor_nnz(), n * n / 2);
}

TEST(SparseLu, SingularColumnThrowsDiagnostic) {
  auto pat = std::make_shared<SparsityPattern>(SparsityPattern::from_triplets(
      3, 3, {{0, 0}, {1, 1}, {1, 2}, {2, 2}}));
  CsrMatrix a(pat);
  a.values()[pat->find(0, 0)] = 1.0;
  a.values()[pat->find(1, 1)] = 0.0;  // structurally present, numerically 0
  a.values()[pat->find(1, 2)] = 1.0;
  a.values()[pat->find(2, 2)] = 1.0;
  try {
    la::SparseLu lu(a);
    FAIL() << "expected omx::Error";
  } catch (const omx::Error& e) {
    EXPECT_NE(std::string(e.what()).find("singular at column"),
              std::string::npos)
        << e.what();
  }
}

CsrMatrix arrow_matrix(std::size_t n) {
  // Dense first row and column: the natural elimination order fills the
  // whole matrix.
  std::vector<std::pair<std::size_t, std::size_t>> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.emplace_back(0, i);
    trips.emplace_back(i, 0);
    trips.emplace_back(i, i);
  }
  auto pat = std::make_shared<SparsityPattern>(
      SparsityPattern::from_triplets(n, n, std::move(trips)));
  CsrMatrix a(pat);
  const SparsityPattern& sp = a.pattern();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = sp.row_ptr[i]; k < sp.row_ptr[i + 1]; ++k) {
      const std::size_t j = sp.col_idx[k];
      a.values()[k] = (i == j) ? 8.0 + static_cast<double>(i)
                               : 1.0 / static_cast<double>(2 + i + j);
    }
  }
  return a;
}

TEST(SparseLu, PathologicalFillStaysCorrectAndRcmReducesIt) {
  const std::size_t n = 16;
  CsrMatrix a = arrow_matrix(n);
  la::SparseLu natural(a);
  oracle::LuFactors dense(oracle::to_dense(a));

  std::vector<double> b(n), xn(n), xd(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = 0.5 + 0.125 * static_cast<double>(i % 7);
  }
  natural.solve(b, xn);
  dense.solve(b, xd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(xn[i], xd[i]) << "natural component " << i;
  }
  // Natural elimination of the hub-first arrow fills everything.
  EXPECT_EQ(natural.factor_nnz(), n * n);
}

// -- SparseLu::refactor vs a fresh factorization ----------------------------

/// Solution of a x = b through `lu` (a SparseLu or the oracle's
/// LuFactors), with b fixed per size.
template <typename Lu>
std::vector<double> lu_solve(const Lu& lu) {
  std::vector<double> x(lu.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.75 - 0.125 * static_cast<double>(i % 5);
  }
  lu.solve(x, x);  // in place: x may alias b
  return x;
}

/// Factors the first of `value_sets` (each a full set of CSR values for
/// `a`'s pattern), refactors one SparseLu through all of them, and checks
/// every step against a freshly constructed SparseLu and the dense
/// oracle LuFactors, bitwise.
void expect_refactor_matches_fresh(
    CsrMatrix a, const std::vector<std::vector<double>>& value_sets) {
  std::copy(value_sets.front().begin(), value_sets.front().end(),
            a.values().begin());
  la::SparseLu lu(a);
  for (std::size_t v = 0; v < value_sets.size(); ++v) {
    SCOPED_TRACE("value set " + std::to_string(v));
    ASSERT_EQ(value_sets[v].size(), a.values().size());
    std::copy(value_sets[v].begin(), value_sets[v].end(),
              a.values().begin());
    lu.refactor(a);
    const la::SparseLu fresh(a);
    const std::vector<double> got = lu_solve(lu);
    const std::vector<double> want = lu_solve(fresh);
    // A reused structure may keep fill whose multiplier is now zero.
    EXPECT_GE(lu.factor_nnz(), fresh.factor_nnz());
    EXPECT_EQ(lu.pivot_growth(), fresh.pivot_growth());
    const std::vector<double> dense =
        lu_solve(oracle::LuFactors(oracle::to_dense(a)));
    EXPECT_EQ(want, dense);
    EXPECT_EQ(got, want);
  }
}

/// `a`'s values as the Newton matrix I - s * a.
std::vector<double> newton_values(const CsrMatrix& a, double s) {
  const SparsityPattern& sp = a.pattern();
  std::vector<double> v(a.values().begin(), a.values().end());
  for (std::size_t r = 0; r < sp.rows; ++r) {
    for (std::size_t k = sp.row_ptr[r]; k < sp.row_ptr[r + 1]; ++k) {
      v[k] = (sp.col_idx[k] == r ? 1.0 : 0.0) - s * v[k];
    }
  }
  return v;
}

TEST(SparseLu, RefactorMatchesFreshOnBandedMatrix) {
  const CsrMatrix a = tridiagonal_matrix(12);
  // The first set pivots (the matrix is not diagonally dominant); the
  // Newton-matrix sets do not, so refactor reuses their structure.
  std::vector<std::vector<double>> sets{
      {a.values().begin(), a.values().end()}};
  for (double s : {-0.01, -0.02, -0.04, -0.5, -0.01}) {
    sets.push_back(newton_values(a, s));
  }
  sets.push_back(sets.front());  // pivoting again after reuse
  sets.push_back(newton_values(a, -0.03));
  expect_refactor_matches_fresh(a, sets);
}

TEST(SparseLu, RefactorMatchesFreshOnArrowMatrix) {
  const CsrMatrix a = arrow_matrix(16);
  std::vector<std::vector<double>> sets;
  for (double s : {1.0, 0.5, -2.0, 0.25}) {
    std::vector<double> v(a.values().begin(), a.values().end());
    for (double& x : v) {
      x *= s;
    }
    sets.push_back(std::move(v));
  }
  expect_refactor_matches_fresh(a, sets);
}

TEST(SparseLu, RefactorFallsBackOnPivotSwap) {
  // Diagonally dominant first, then column 3's subdiagonal outgrows its
  // pivot: the strict `>` rule swaps rows, as the fresh factor does.
  const CsrMatrix a = tridiagonal_matrix(8);
  std::vector<double> dominant = newton_values(a, -0.05);
  std::vector<double> swapping = dominant;
  const std::size_t sub = a.pattern().find(4, 3);
  swapping[sub] = 10.0 * std::fabs(dominant[a.pattern().find(3, 3)]);
  expect_refactor_matches_fresh(a, {dominant, swapping, dominant});
}

TEST(SparseLu, RefactorFallsBackWhenAZeroMultiplierNeedsFill) {
  // Arrow matrix with its first column zero below the diagonal: every
  // multiplier of column 0 is 0, so the first factorization creates no
  // fill. Making them nonzero needs fill the stored structure lacks.
  const CsrMatrix a = arrow_matrix(10);
  const SparsityPattern& sp = a.pattern();
  std::vector<double> no_fill(a.values().begin(), a.values().end());
  for (std::size_t i = 1; i < sp.rows; ++i) {
    no_fill[sp.find(i, 0)] = 0.0;
  }
  const std::vector<double> fill(a.values().begin(), a.values().end());
  expect_refactor_matches_fresh(a, {no_fill, fill, no_fill});
}

TEST(SparseLu, RefactorZeroPivotThrowsSameDiagnostic) {
  CsrMatrix a = tridiagonal_matrix(6);
  const std::vector<double> dominant = newton_values(a, -0.05);
  std::copy(dominant.begin(), dominant.end(), a.values().begin());
  la::SparseLu lu(a);  // no pivoting: refactor reuses the structure
  const SparsityPattern& sp = a.pattern();
  std::vector<double> singular = dominant;
  singular[sp.find(2, 2)] = 0.0;  // column 2: zero pivot, zero below it
  singular[sp.find(3, 2)] = 0.0;
  singular[sp.find(2, 1)] = 0.0;  // row 2 gets no update from column 1
  std::copy(singular.begin(), singular.end(), a.values().begin());
  std::string fresh_what;
  try {
    la::SparseLu fresh(a);
  } catch (const omx::Error& e) {
    fresh_what = e.what();
  }
  ASSERT_NE(fresh_what.find("singular at column 2"), std::string::npos)
      << fresh_what;
  try {
    lu.refactor(a);
    FAIL() << "expected omx::Error";
  } catch (const omx::Error& e) {
    EXPECT_EQ(std::string(e.what()), fresh_what);
  }
}

// -- full-pattern refactor: the run fast path and pivot replay -------------

/// An n x n matrix on the full pattern: D = n I + R, R pseudo-random in
/// [-1, 1), so D's diagonal dominates its columns and partial pivoting
/// never swaps; `reversed` stores D's rows in reverse order, so every
/// pivot is a row swap and the strict unique maximum of its column.
CsrMatrix full_matrix(std::size_t n, bool reversed, std::uint64_t seed) {
  CsrMatrix a(std::make_shared<SparsityPattern>(SparsityPattern::dense(n)));
  std::uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double r =
          static_cast<double>(state >> 11) * 0x1.0p-53 * 2.0 - 1.0;
      a.values()[(reversed ? n - 1 - i : i) * n + j] =
          r + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  return a;
}

std::vector<double> values_of(const CsrMatrix& a) {
  return {a.values().begin(), a.values().end()};
}

std::vector<double> scaled(std::vector<double> v, double s) {
  for (double& x : v) {
    x *= s;
  }
  return v;
}

TEST(SparseLu, RefactorOnFullPatternMatchesFreshAndDenseLu) {
  // Refactors of unpivoted full structures take the straight-loop run
  // update; refactors of pivoted ones replay the stored row order while
  // every pivot repeats. Both must be bitwise a fresh SparseLu and the
  // dense LuFactors, also across switches between the two.
  for (const std::size_t n : {2, 4, 8, 16, 32}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    const CsrMatrix plain = full_matrix(n, false, 11 + n);
    const CsrMatrix swapped = full_matrix(n, true, 11 + n);
    const std::vector<double> p = values_of(plain);
    const std::vector<double> w = values_of(swapped);
    expect_refactor_matches_fresh(
        plain, {p, newton_values(plain, 0.01), scaled(p, 0.5),
                newton_values(plain, -0.2)});
    expect_refactor_matches_fresh(
        swapped, {w, scaled(w, 3.0), scaled(w, -0.25), w});
    expect_refactor_matches_fresh(plain, {p, w, scaled(w, 2.0), p, w});
  }
}

TEST(SparseLu, RefactorReplayFallsBackWhenAnotherPivotWins) {
  // The stored order pivots column 0 on input row n - 1. Swapping the
  // values of input rows n - 1 and n - 2 makes row n - 2 win column 0:
  // the replay must give way to the general path.
  const std::size_t n = 8;
  const CsrMatrix a = full_matrix(n, true, 5);
  const std::vector<double> w = values_of(a);
  std::vector<double> other = w;
  std::swap_ranges(other.begin() + (n - 1) * n, other.begin() + n * n,
                   other.begin() + (n - 2) * n);
  expect_refactor_matches_fresh(a, {w, other, w, scaled(other, 0.5)});
}

TEST(SparseLu, RefactorReplayFallsBackOnATie) {
  // Input row 0 gets the magnitude of column 0's stored pivot (input row
  // n - 1) with the other sign. The general path keeps the first of
  // equal candidates in its current row order, input row 0, so the
  // replay, which cannot tell that order, must give way.
  const std::size_t n = 8;
  const CsrMatrix a = full_matrix(n, true, 7);
  const std::vector<double> w = values_of(a);
  std::vector<double> tie = w;
  tie[0] = -w[(n - 1) * n];
  expect_refactor_matches_fresh(a, {w, tie, w});
}

TEST(SparseLu, RefactorOfPivotedBandedMatrixMatchesFresh) {
  // Tridiagonal with a full first row, and a subdiagonal that dominates:
  // every column swaps rows, and input row 0 sinks to the last row. Its
  // L entries then lie left of their columns' band windows, where a
  // replay of the stored order would not look, while its diagonal is an
  // input entry, so no zero pivot would give the replay away. Each
  // refactor must take the general path and match a fresh factorization.
  const std::size_t n = 8;
  std::vector<std::pair<std::size_t, std::size_t>> trips;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t hi = i == 0 ? n : std::min(n, i + 2);
    for (std::size_t j = i == 0 ? 0 : i - 1; j < hi; ++j) {
      trips.emplace_back(i, j);
    }
  }
  CsrMatrix a(std::make_shared<SparsityPattern>(
      SparsityPattern::from_triplets(n, n, std::move(trips))));
  const SparsityPattern& sp = a.pattern();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = sp.row_ptr[i]; k < sp.row_ptr[i + 1]; ++k) {
      const std::size_t j = sp.col_idx[k];
      a.values()[k] = j + 1 == i ? 10.0 + static_cast<double>(i)
                                 : 1.0 / static_cast<double>(1 + i + 2 * j);
    }
  }
  const std::vector<double> v = values_of(a);
  expect_refactor_matches_fresh(a, {v, scaled(v, 2.0), scaled(v, -0.5), v});
}

// -- la::LaneSolver vs per-lane solves ---------------------------------------

/// The heat PDE's Newton matrices I - s J at n = 128, J its symbolic
/// Jacobian at y0, one scale s per lane.
CsrMatrix heat_jacobian(std::size_t n) {
  pipeline::CompiledModel cm = compile_with_jacobian(heat_builder(static_cast<int>(n)));
  ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 1.0);
  cm.bind_symbolic_jacobian(p);
  const std::shared_ptr<const ode::JacPlan> plan = ode::make_jac_plan(p);
  CsrMatrix jac(plan->pattern);
  p.sparse_jacobian(p.t0, p.y0, jac);
  return jac;
}

/// Checks LaneSolver::solve against each lane's own solve, bitwise, for
/// the lanes `solvers` over the slots `slots`, both into a separate x
/// and in place.
void expect_lanes_match(la::LaneSolver& lanes,
                        const std::vector<const la::SparseLu*>& solvers,
                        const std::vector<std::size_t>& slots,
                        const std::string& label) {
  SCOPED_TRACE(label);
  const std::size_t m = solvers.size();
  const std::size_t n = solvers.front()->size();
  std::vector<double> b(n * m), x(n * m);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t q = 0; q < m; ++q) {
      b[i * m + q] = std::sin(0.37 * static_cast<double>(i + 1) +
                              1.3 * static_cast<double>(q));
    }
  }
  std::vector<double> in_place = b;
  lanes.solve(solvers, slots, b.data(), x.data());
  lanes.solve(solvers, slots, in_place.data(), in_place.data());
  for (std::size_t q = 0; q < m; ++q) {
    std::vector<double> bq(n), want(n);
    for (std::size_t i = 0; i < n; ++i) {
      bq[i] = b[i * m + q];
    }
    solvers[q]->solve(bq, want);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::memcmp(&x[i * m + q], &want[i], sizeof(double)), 0)
          << "lane " << q << " of " << m << ", row " << i;
      ASSERT_EQ(std::memcmp(&in_place[i * m + q], &want[i], sizeof(double)),
                0)
          << "in place: lane " << q << " of " << m << ", row " << i;
    }
  }
}

TEST(SparseLu, SolveLanesMatchesPerLaneSolveBitwise) {
  struct Case {
    const char* label;
    CsrMatrix a;
    double scale;  // lane q's matrix is I - scale (q + 1) a
  };
  // The heat Newton matrices factor without fill; the arrow's natural
  // order fills the whole matrix, so lanes compare their fill too.
  std::vector<Case> cases;
  cases.push_back({"heat n=128", heat_jacobian(128), 1e-5});
  cases.push_back({"arrow", arrow_matrix(16), -0.05});
  for (const Case& c : cases) {
    std::vector<std::unique_ptr<la::SparseLu>> lus;
    for (std::size_t q = 0; q < 16; ++q) {
      CsrMatrix mq(c.a.pattern_ptr());
      const std::vector<double> v =
          newton_values(c.a, c.scale * static_cast<double>(q + 1));
      std::copy(v.begin(), v.end(), mq.values().begin());
      lus.push_back(std::make_unique<la::SparseLu>(mq));
    }
    // A lane whose factors swap rows and one over another pattern (the
    // full one): each must solve alone beside the walking lanes.
    CsrMatrix pivoting(c.a.pattern_ptr());
    {
      std::vector<double> v = newton_values(c.a, c.scale);
      const std::size_t n = c.a.rows();
      v[c.a.pattern().find(n - 1, 0) == SparsityPattern::npos
            ? c.a.pattern().find(1, 0)
            : c.a.pattern().find(n - 1, 0)] = 1e3;
      std::copy(v.begin(), v.end(), pivoting.values().begin());
    }
    const la::SparseLu pivoted(pivoting);
    CsrMatrix full(std::make_shared<SparsityPattern>(
        SparsityPattern::dense(c.a.rows())));
    {
      CsrMatrix m(c.a.pattern_ptr());
      const std::vector<double> v = newton_values(c.a, c.scale);
      std::copy(v.begin(), v.end(), m.values().begin());
      // Row-major: the full CSR order.
      const oracle::Matrix d = oracle::to_dense(m);
      std::copy(d.data().begin(), d.data().end(), full.values().begin());
    }
    const la::SparseLu other(full);

    la::LaneSolver lanes;
    for (const std::size_t m : {1, 3, 8, 16}) {
      std::vector<const la::SparseLu*> solvers;
      std::vector<std::size_t> slots;
      for (std::size_t q = 0; q < m; ++q) {
        solvers.push_back(lus[q].get());
        slots.push_back(q);
      }
      const std::string at = std::string(c.label) + ", width " +
                             std::to_string(m);
      expect_lanes_match(lanes, solvers, slots, at);
      // Scattered slots: the lanes' values are not a contiguous run.
      std::vector<std::size_t> spread;
      for (std::size_t q = 0; q < m; ++q) {
        spread.push_back(2 * (m - q));
      }
      expect_lanes_match(lanes, solvers, spread, at + ", spread slots");
      if (m > 1) {
        solvers[m / 2] = &pivoted;
        solvers[m - 1] = &other;
        expect_lanes_match(lanes, solvers, slots, at + ", lanes alone");
      }
    }
    // A lane that refactors keeps its slot; the copy must follow.
    CsrMatrix again(c.a.pattern_ptr());
    const std::vector<double> v = newton_values(c.a, 3.0 * c.scale);
    std::copy(v.begin(), v.end(), again.values().begin());
    lus[2]->refactor(again);
    std::vector<const la::SparseLu*> solvers;
    std::vector<std::size_t> slots;
    for (std::size_t q = 0; q < 8; ++q) {
      solvers.push_back(lus[q].get());
      slots.push_back(q);
    }
    expect_lanes_match(lanes, solvers, slots,
                       std::string(c.label) + ", after a refactor");
  }
}

// -- dense vs sparse BDF trajectories ----------------------------------------

TEST(StiffPath, DenseAndSparseBackendsBitwiseIdentical) {
  // A problem over the full pattern and the same problem over its
  // structural pattern must step bit for bit alike. Both sides evaluate
  // the same symbolic Jacobian: the structural side through its sparse
  // tape, the full side through that tape's values scattered into the
  // full pattern's.
  pipeline::CompiledModel cm = compile_with_jacobian(heat_builder(24));
  ode::SolverOptions opts;
  opts.tol.rtol = 1e-7;
  opts.tol.atol = 1e-10;

  ode::Solution dense_sol;
  {
    ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 0.25);
    oracle::bind_full_pattern_jacobian(cm, p);
    ASSERT_EQ(ode::make_jac_plan(p)->pattern->nnz(), p.n * p.n);
    dense_sol = ode::solve(p, ode::Method::kBdf, opts);
  }
  ode::Solution sparse_sol;
  {
    ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 0.25);
    cm.bind_symbolic_jacobian(p);
    ASSERT_LT(ode::make_jac_plan(p)->pattern->nnz(), 3 * p.n);
    sparse_sol = ode::solve(p, ode::Method::kBdf, opts);
  }

  ASSERT_EQ(dense_sol.size(), sparse_sol.size());
  EXPECT_EQ(dense_sol.stats.steps, sparse_sol.stats.steps);
  EXPECT_EQ(dense_sol.stats.rhs_calls, sparse_sol.stats.rhs_calls);
  EXPECT_EQ(dense_sol.stats.newton_iters, sparse_sol.stats.newton_iters);
  for (std::size_t s = 0; s < dense_sol.size(); ++s) {
    ASSERT_EQ(dense_sol.time(s), sparse_sol.time(s)) << "step " << s;
    std::span<const double> yd = dense_sol.state(s);
    std::span<const double> ys = sparse_sol.state(s);
    for (std::size_t i = 0; i < yd.size(); ++i) {
      ASSERT_EQ(yd[i], ys[i]) << "step " << s << " component " << i;
    }
  }
}

TEST(StiffPath, ColoredFdCutsRhsCalls) {
  // n = 40 tridiagonal: a dense FD Jacobian costs 41 RHS calls per
  // evaluation, the colored one costs 4. The total over a solve must
  // reflect that.
  pipeline::CompiledModel cm = pipeline::compile_model(heat_builder(40));
  ode::SolverOptions opts;
  opts.tol.rtol = 1e-6;
  opts.tol.atol = 1e-9;

  ode::Problem with_pattern = cm.make_problem(exec::Backend::kReference,
                                              0.0, 0.2);
  ode::Solution colored = ode::solve(with_pattern, ode::Method::kBdf, opts);

  ode::Problem no_pattern = cm.make_problem(exec::Backend::kReference,
                                            0.0, 0.2);
  no_pattern.sparsity.reset();  // legacy dense path
  ode::Solution legacy = ode::solve(no_pattern, ode::Method::kBdf, opts);

  EXPECT_EQ(colored.stats.steps, legacy.stats.steps);
  EXPECT_EQ(colored.stats.jac_calls, legacy.stats.jac_calls);
  // Each Jacobian evaluation: 4 extra RHS calls instead of 41.
  EXPECT_LT(colored.stats.rhs_calls,
            legacy.stats.rhs_calls -
                30 * std::max<std::uint64_t>(colored.stats.jac_calls, 1));
}

TEST(StiffPath, EnsembleColoredFdOnMultiLaneInterpMatchesSequential) {
  // Interpreter kernels keep one register file per lane, so a worker
  // must evaluate its colored-FD Jacobian on its own lane. Four workers
  // sharing lane 0 race on its registers and, now and then, step a
  // scenario off its sequential trajectory; many sweeps make that show.
  pipeline::CompiledModel cm = pipeline::compile_model(heat_builder(64));
  pipeline::KernelOptions kopts;
  kopts.lanes = 4;
  exec::KernelInstance kernel = cm.make_kernel(exec::Backend::kInterp, kopts);
  ode::Problem base = cm.make_problem(kernel, 0.0, 0.005);
  ASSERT_TRUE(base.batch_rhs);
  ASSERT_FALSE(base.sparse_jacobian);  // colored FD, not the symbolic tape
  ode::EnsembleSpec spec;
  spec.workers = 4;
  for (int s = 0; s < 32; ++s) {
    std::vector<double> y0 = base.y0;
    for (std::size_t i = 0; i < y0.size(); ++i) {
      y0[i] = std::sin(0.2 * (s + 1) * static_cast<double>(i + 1));
    }
    spec.initial_states.push_back(std::move(y0));
  }
  const ode::SolverOptions o;
  std::vector<std::vector<double>> want;
  for (const std::vector<double>& y0 : spec.initial_states) {
    ode::Problem p = base;
    p.y0 = y0;
    const ode::Solution sol = ode::solve(p, ode::Method::kBdf, o);
    const std::span<const double> y = sol.final_state();
    want.emplace_back(y.begin(), y.end());
  }
  std::size_t mismatched = 0;
  for (int sweep = 0; sweep < 20; ++sweep) {
    const ode::EnsembleResult r =
        ode::solve_ensemble(base, ode::Method::kBdf, o, spec);
    ASSERT_EQ(r.solutions.size(), want.size());
    for (std::size_t s = 0; s < want.size(); ++s) {
      const std::span<const double> got = r.solutions[s].final_state();
      if (!std::equal(got.begin(), got.end(), want[s].begin(),
                      want[s].end())) {
        ++mismatched;
      }
    }
  }
  EXPECT_EQ(mismatched, 0u) << "of " << 20 * want.size() << " lanes";
}

/// `p` with a batched RHS that evaluates every lane's column through
/// p.rhs: lane-independent by construction.
ode::Problem with_batch_rhs(ode::Problem p) {
  auto scalar = std::make_shared<ode::Problem>(p);
  p.set_batch_rhs([scalar](std::size_t, std::size_t nb, const double* t,
                           const double* y, double* f) {
    const std::size_t n = scalar->n;
    thread_local std::vector<double> yl, fl;
    yl.resize(n);
    fl.resize(n);
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        yl[i] = y[i * nb + j];
      }
      scalar->rhs(t[j], yl, fl);
      for (std::size_t i = 0; i < n; ++i) {
        f[i * nb + j] = fl[i];
      }
    }
  });
  return p;
}

TEST(ColoredFd, FullPatternMatchesDenseFdBitwise) {
  // Without a pattern the solvers color the full one: every column its
  // own group, so colored FD must be the n+1-call dense forward
  // differences bit for bit, one rhs call per column or one batched call
  // with a lane per column.
  ode::Problem p;
  p.n = 5;
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    double sum = 0.0;
    for (std::size_t j = 0; j < y.size(); ++j) {
      sum += std::sin(static_cast<double>(j + 1) * y[j]);
    }
    for (std::size_t i = 0; i < y.size(); ++i) {
      f[i] = -3.0 * y[i] * y[(i + 1) % y.size()] +
             sum / (1.0 + t + y[i] * y[i]);
    }
  });
  const std::vector<double> y{0.3, -1.7, 2.5e3, -4.1e-2, 0.9};
  oracle::Matrix dense(p.n, p.n);
  std::uint64_t dense_calls = 0;
  oracle::finite_difference_jacobian(p.rhs, 0.5, y, dense, dense_calls);
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "one call per column");
    const ode::Problem q = batched ? with_batch_rhs(p) : p;
    const std::shared_ptr<const ode::JacPlan> plan = ode::make_jac_plan(q);
    ASSERT_EQ(plan->pattern->nnz(), p.n * p.n);
    ASSERT_EQ(plan->coloring.num_colors, static_cast<int>(p.n));
    CsrMatrix colored(plan->pattern);
    std::uint64_t calls = 0;
    ode::FdScratch scratch;
    ode::LaneRhs f(q, 0);
    ode::colored_fd_jacobian(f, *plan, 0.5, y, colored, calls, scratch);
    EXPECT_EQ(calls, dense_calls);
    for (std::size_t i = 0; i < p.n; ++i) {
      for (std::size_t j = 0; j < p.n; ++j) {
        const double c = colored.at(i, j);
        EXPECT_EQ(std::memcmp(&c, &dense(i, j), sizeof c), 0)
            << "entry " << i << "," << j;
      }
    }
  }
}

bool same_rows(const ode::Solution& a, const ode::Solution& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t r = 0; r < a.size(); ++r) {
    const double ta = a.time(r), tb = b.time(r);
    const std::span<const double> ya = a.state(r), yb = b.state(r);
    if (std::memcmp(&ta, &tb, sizeof ta) != 0 ||
        std::memcmp(ya.data(), yb.data(), ya.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

bool same_stats(const ode::SolverStats& a, const ode::SolverStats& b) {
  return a.rhs_calls == b.rhs_calls && a.jac_calls == b.jac_calls &&
         a.steps == b.steps && a.rejected == b.rejected &&
         a.newton_iters == b.newton_iters &&
         a.method_switches == b.method_switches &&
         a.jac_factorizations == b.jac_factorizations &&
         a.jac_reuse_hits == b.jac_reuse_hits && a.events == b.events &&
         a.events_terminal == b.events_terminal;
}

TEST(StiffPath, LockstepWidthSweepMatchesSequentialBitwise) {
  // BDF lanes take their Newton iterations in lockstep: one batched RHS
  // and one lanes solve per iteration. Every width (1, odd, a vector
  // block, two), one and two workers, a structural pattern with the
  // symbolic and the colored-FD Jacobian, the full pattern, and events
  // that restart lanes or retire them early must leave each lane's rows
  // and counters exactly those of its own solve.
  struct Case {
    std::string label;
    ode::Problem p;
    std::vector<std::vector<double>> y0;
    // The sequential solves call the kernel's scalar entry (batch_rhs
    // cleared), the ensemble its batched one.
    bool scalar_sequential = false;
  };
  std::vector<Case> cases;
  pipeline::KernelOptions kopts;
  kopts.lanes = 2;
  const pipeline::CompiledModel symbolic =
      compile_with_jacobian(heat_builder(32));
  const pipeline::CompiledModel colored =
      pipeline::compile_model(heat_builder(32));
  const exec::KernelInstance symbolic_kernel =
      symbolic.make_kernel(exec::Backend::kInterp, kopts);
  const exec::KernelInstance colored_kernel =
      colored.make_kernel(exec::Backend::kInterp, kopts);
  std::vector<std::vector<double>> heat_y0, track_y0, drops;
  for (std::size_t s = 0; s < 12; ++s) {
    const double d = static_cast<double>(s);
    std::vector<double> y(32);
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = (1.0 + 0.1 * d) *
             std::sin(0.1 * (1.0 + d) * static_cast<double>(i + 1));
    }
    heat_y0.push_back(std::move(y));
    track_y0.push_back({0.2 * d - 1.0});
    drops.push_back({0.5 + 0.07 * d, 0.0});
  }
  {
    ode::Problem p = symbolic.make_problem(symbolic_kernel, 0.0, 0.05);
    symbolic.bind_symbolic_jacobian(p);
    cases.push_back({"heat n=32, symbolic Jacobian", p, heat_y0});
  }
  cases.push_back({"heat n=32, colored FD",
                   colored.make_problem(colored_kernel, 0.0, 0.05),
                   heat_y0});
  cases.push_back({"heat n=32, colored FD, scalar-entry sequential solves",
                   colored.make_problem(colored_kernel, 0.0, 0.05), heat_y0,
                   true});
  {
    // y' = -1000 (y - cos t) - sin t over the full 1 x 1 pattern.
    ode::Problem p;
    p.n = 1;
    p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
      f[0] = -1000.0 * (y[0] - std::cos(t)) - std::sin(t);
    });
    p.sparsity = std::make_shared<SparsityPattern>(SparsityPattern::dense(1));
    p.set_sparse_jacobian(
        [](double, std::span<const double>, CsrMatrix& j) {
          j.values()[0] = -1000.0;
        });
    p.tend = 1.0;
    cases.push_back({"stiff tracking", with_batch_rhs(p), track_y0});
  }
  const models::BouncingBall ball;
  cases.push_back({"ball", with_batch_rhs(models::bouncing_ball_problem(
                               ball, 1.8)),
                   drops});
  cases.push_back({"terminal ball",
                   with_batch_rhs(models::bouncing_ball_problem(ball, 1.8,
                                                                true)),
                   drops});
  for (const Case& c : cases) {
    for (const ode::Method m : {ode::Method::kBdf, ode::Method::kLsodaLike}) {
      const ode::SolverOptions o;
      std::vector<ode::Solution> want;
      for (const std::vector<double>& y0 : c.y0) {
        ode::Problem p = c.p;
        p.y0 = y0;
        if (c.scalar_sequential) {
          p.batch_rhs = nullptr;
        }
        want.push_back(ode::solve(p, m, o));
      }
      for (const std::size_t workers : {1, 2}) {
        for (const std::size_t width : {1, 3, 8, 16}) {
          ode::EnsembleSpec spec;
          spec.initial_states = c.y0;
          spec.workers = workers;
          spec.max_batch = width;
          const ode::EnsembleResult r = ode::solve_ensemble(c.p, m, o, spec);
          for (std::size_t i = 0; i < c.y0.size(); ++i) {
            const ode::Solution& got = r.solutions[i];
            EXPECT_TRUE(same_rows(got, want[i]) &&
                        same_stats(got.stats, want[i].stats))
                << c.label << ", " << ode::to_string(m) << ", " << workers
                << " workers, batch " << width << ", scenario " << i;
          }
        }
      }
    }
  }
}

TEST(StiffPath, ScalarRhsColoredFdEnsembleMatchesSequentialBitwise) {
  // A problem with only a scalar rhs: every evaluation, the colored-FD
  // Jacobian's call over its color groups included, goes column by
  // column through p.rhs, on two workers at once. Each lane's rows and
  // counters must be exactly those of its own solve.
  constexpr std::size_t n = 24;
  ode::Problem p;
  p.n = n;
  // Nonlinear diffusion with a cubic sink and a forcing term.
  p.set_rhs([](double t, std::span<const double> y, std::span<double> f) {
    const std::size_t m = y.size();
    for (std::size_t i = 0; i < m; ++i) {
      const double left = i > 0 ? y[i - 1] : 0.0;
      const double right = i + 1 < m ? y[i + 1] : 0.0;
      f[i] = 400.0 * (left - 2.0 * y[i] + right) - y[i] * y[i] * y[i] +
             std::cos(t + static_cast<double>(i));
    }
  });
  std::vector<std::pair<std::size_t, std::size_t>> trips;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) trips.emplace_back(i, i - 1);
    trips.emplace_back(i, i);
    if (i + 1 < n) trips.emplace_back(i, i + 1);
  }
  p.sparsity = std::make_shared<SparsityPattern>(
      SparsityPattern::from_triplets(n, n, std::move(trips)));
  p.tend = 0.5;
  ASSERT_FALSE(p.batch_rhs || p.sparse_jacobian);
  ASSERT_EQ(ode::make_jac_plan(p)->coloring.num_colors, 3);

  std::vector<std::vector<double>> y0s;
  for (std::size_t s = 0; s < 10; ++s) {
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = (1.0 + 0.2 * static_cast<double>(s)) *
             std::sin(0.3 * static_cast<double>((s + 1) * (i + 1)));
    }
    y0s.push_back(std::move(y));
  }
  for (const ode::Method m : {ode::Method::kBdf, ode::Method::kLsodaLike}) {
    const ode::SolverOptions o;
    std::vector<ode::Solution> want;
    for (const std::vector<double>& y0 : y0s) {
      ode::Problem q = p;
      q.y0 = y0;
      want.push_back(ode::solve(q, m, o));
      ASSERT_GT(want.back().stats.jac_calls, 0u);
    }
    for (const std::size_t width : {1, 4}) {
      ode::EnsembleSpec spec;
      spec.initial_states = y0s;
      spec.workers = 2;
      spec.max_batch = width;
      const ode::EnsembleResult r = ode::solve_ensemble(p, m, o, spec);
      for (std::size_t i = 0; i < y0s.size(); ++i) {
        const ode::Solution& got = r.solutions[i];
        EXPECT_TRUE(same_rows(got, want[i]) &&
                    same_stats(got.stats, want[i].stats))
            << ode::to_string(m) << ", batch " << width << ", scenario "
            << i;
      }
    }
  }
}

TEST(StiffPath, LockstepMixedLaneStatesMatchSequentialBitwise) {
  // Heat lanes of different modes and amplitudes share their BDF rounds
  // while their states drift apart: lanes at different orders, a lane
  // whose step just doubled by subsampling its history and rejected
  // lanes, side by side in one block. Each lane's rows and counters must
  // be exactly those of its own solve, and its final state must match
  // the semidiscrete heat equation's exact solution.
  constexpr int kCells = 128;
  constexpr double kTend = 0.025;
  constexpr std::size_t kScenarios = 14;
  const pipeline::CompiledModel cm =
      compile_with_jacobian(heat_builder(kCells));
  pipeline::KernelOptions kopts;
  kopts.lanes = 2;
  const exec::KernelInstance kernel =
      cm.make_kernel(exec::Backend::kInterp, kopts);
  ode::Problem p = cm.make_problem(kernel, 0.0, kTend);
  cm.bind_symbolic_jacobian(p);
  // A state's node number is in its name (rod.u[12]).
  std::vector<int> node;
  for (const model::FlatState& st : cm.flat->states()) {
    const std::string& name = cm.ctx->names.name(st.name);
    node.push_back(std::atoi(name.c_str() + name.rfind('[') + 1));
  }
  // Scenario s: amp(s) (sin(m1 pi x) + sin(m2 pi x) / 2), a slow and a
  // fast eigenmode of the discrete Laplacian.
  const auto amp = [](std::size_t s) {
    return 0.02 + 0.3 * static_cast<double>(s);
  };
  const auto exact = [&](std::size_t s, std::size_t i, double t) {
    models::Heat1dConfig cfg;
    cfg.n_cells = kCells;
    cfg.mode = 1 + static_cast<int>(s % 3);
    double u = models::heat1d_semidiscrete_exact(cfg, node[i], t);
    cfg.mode = 5 + static_cast<int>((s * 5) % 11);
    u += 0.5 * models::heat1d_semidiscrete_exact(cfg, node[i], t);
    return amp(s) * u;
  };
  std::vector<std::vector<double>> y0s(kScenarios);
  for (std::size_t s = 0; s < kScenarios; ++s) {
    for (std::size_t i = 0; i < node.size(); ++i) {
      y0s[s].push_back(exact(s, i, 0.0));
    }
  }
  for (const int order : {2, 5}) {
    ode::SolverOptions o;
    o.bdf_max_order = order;
    o.max_steps = 5000;  // a broken lane throws instead of crawling on
    const std::string label = "order " + std::to_string(order);
    std::vector<ode::Solution> want;
    std::uint64_t rejected = 0;
    bool doubled = false;
    for (std::size_t s = 0; s < kScenarios; ++s) {
      ode::Problem ps = p;
      ps.y0 = y0s[s];
      want.push_back(ode::solve(ps, ode::Method::kBdf, o));
      const ode::Solution& sol = want.back();
      rejected += sol.stats.rejected;
      for (std::size_t r = 2; r < sol.size(); ++r) {
        doubled = doubled || sol.time(r) - sol.time(r - 1) ==
                                 2.0 * (sol.time(r - 1) - sol.time(r - 2));
      }
      const std::span<const double> y = sol.final_state();
      double err = 0.0;
      for (std::size_t i = 0; i < y.size(); ++i) {
        err = std::max(err, std::fabs(y[i] - exact(s, i, kTend)));
      }
      EXPECT_LE(err, 1e-3 * amp(s)) << label << ", scenario " << s;
    }
    EXPECT_GT(rejected, 0u) << label;
    EXPECT_TRUE(doubled) << label;
    for (const std::size_t workers : {1, 2}) {
      for (const std::size_t width : {3, 8, 16}) {
        ode::EnsembleSpec spec;
        spec.initial_states = y0s;
        spec.workers = workers;
        spec.max_batch = width;
        const ode::EnsembleResult r =
            ode::solve_ensemble(p, ode::Method::kBdf, o, spec);
        for (std::size_t s = 0; s < kScenarios; ++s) {
          const ode::Solution& got = r.solutions[s];
          EXPECT_TRUE(same_rows(got, want[s]) &&
                      same_stats(got.stats, want[s].stats))
              << label << ", " << workers << " workers, batch " << width
              << ", scenario " << s;
        }
      }
    }
  }
}

// -- reuse policy ------------------------------------------------------------

TEST(ReusePolicy, RefactorsWithoutReevaluatingOnStepChanges) {
  // Linear RHS (no libm): step counts and Newton behaviour are exactly
  // reproducible across platforms.
  pipeline::CompiledModel cm = pipeline::compile_model(heat_builder(16));
  ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 0.5);
  ode::SolverOptions opts;
  opts.tol.rtol = 1e-6;
  opts.tol.atol = 1e-9;
  ode::Solution sol = ode::solve(p, ode::Method::kBdf, opts);

  // The controller changes h (and thus beta*h) far more often than the
  // Jacobian goes stale; most factorizations must be reuse hits. For a
  // linear system the Jacobian never changes, so age is the only
  // refresh trigger.
  EXPECT_GT(sol.stats.jac_factorizations, sol.stats.jac_calls);
  EXPECT_GT(sol.stats.jac_reuse_hits, 0u);
  EXPECT_EQ(sol.stats.jac_factorizations,
            sol.stats.jac_calls + sol.stats.jac_reuse_hits);
  // Age-based refresh: at most ceil(steps / max_age) + rejection-driven
  // evaluations; with the LSODA default of 20 the count stays small.
  EXPECT_LE(sol.stats.jac_calls,
            sol.stats.steps / 20 + sol.stats.rejected + 2);
}

TEST(ReusePolicy, FixedStepLinearProblemPinsCounts) {
  // Fixed h, linear RHS: every quantity is deterministic. 50 steps at
  // max_age 20 -> exactly 3 Jacobian evaluations (steps 0, 20, 40). The
  // order ramp BDF1 -> BDF2 changes beta once, forcing one refactor with
  // the still-fresh Jacobian — the prototypical reuse hit.
  pipeline::CompiledModel cm = pipeline::compile_model(heat_builder(8));
  ode::Problem p = cm.make_problem(exec::Backend::kReference, 0.0, 0.5);
  ode::SolverOptions opts;
  opts.bdf_fixed_h = 0.01;
  opts.bdf_max_order = 2;
  ode::Solution sol = ode::solve(p, ode::Method::kBdf, opts);

  EXPECT_EQ(sol.stats.steps, 50u);
  EXPECT_EQ(sol.stats.rejected, 0u);
  EXPECT_EQ(sol.stats.jac_calls, 3u);
  EXPECT_EQ(sol.stats.jac_factorizations, 4u);
  EXPECT_EQ(sol.stats.jac_reuse_hits, 1u);
}

}  // namespace
}  // namespace omx
