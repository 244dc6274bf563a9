#include "omx/ode/jacobian.hpp"

#include <vector>

#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/support/simd.hpp"
#include "omx/support/timer.hpp"

namespace omx::ode {

namespace {

// Accepted steps a Jacobian may age before a forced re-evaluation
// (LSODA's MSBP is 20).
constexpr std::size_t kMaxAge = 20;
// Newton iteration count at/above which convergence counts as degraded:
// the next prepare() re-evaluates the Jacobian.
constexpr std::size_t kSlowIters = 5;

}  // namespace

std::shared_ptr<const JacPlan> make_jac_plan(const Problem& p) {
  OMX_REQUIRE(!p.sparsity || (p.sparsity->rows == p.n &&
                               p.sparsity->cols == p.n),
              "sparsity pattern shape does not match problem size");
  auto plan = std::make_shared<JacPlan>();
  plan->pattern = std::make_shared<la::SparsityPattern>(
      p.sparsity ? p.sparsity->with_diagonal()
                 : la::SparsityPattern::dense(p.n));
  if (plan->pattern->nnz() == p.n * p.n) {
    // Every column shares every row, so the greedy coloring gives column
    // j color j; built directly, not in color_columns' O(n^3).
    plan->coloring.num_colors = static_cast<int>(p.n);
    for (std::size_t j = 0; j < p.n; ++j) {
      plan->coloring.color.push_back(static_cast<int>(j));
      plan->coloring.groups.push_back({j});
    }
  } else {
    plan->coloring = la::color_columns(*plan->pattern);
  }
  plan->cols = la::columns(*plan->pattern);

  obs::Registry& reg = obs::Registry::global();
  static obs::Gauge& colors = reg.gauge("jac.colors");
  static obs::Gauge& nnz = reg.gauge("jac.nnz");
  colors.set(static_cast<double>(plan->coloring.num_colors));
  nnz.set(static_cast<double>(plan->pattern->nnz()));
  return plan;
}

void colored_fd_jacobian(LaneRhs& f, const JacPlan& plan, double t,
                         std::span<const double> y, la::CsrMatrix& jac,
                         std::uint64_t& rhs_calls, FdScratch& scratch) {
  const std::size_t n = y.size();
  OMX_REQUIRE(jac.rows() == n && jac.cols() == n, "jacobian shape mismatch");
  OMX_REQUIRE(jac.values().size() == plan.pattern->nnz(),
              "jacobian values do not match the plan pattern");

  std::vector<double>& f0 = scratch.f0;
  f0.resize(n);
  f(t, y, f0);
  ++rhs_calls;

  // One call, one lane per color group: lane g carries the base state
  // with all of group g's columns perturbed at once. Lane independence
  // (problem.hpp) makes each lane bitwise the evaluation a one-group
  // call would have done, while a batched kernel vectorizes across the
  // groups. rhs_calls counts lanes, so the colors+1 evaluation ceiling
  // stays comparable.
  const auto& groups = plan.coloring.groups;
  const std::size_t ng = groups.size();
  simd::aligned_vector<double>& ts = scratch.ts;
  simd::aligned_vector<double>& y_soa = scratch.y_soa;
  simd::aligned_vector<double>& f_soa = scratch.f_soa;
  ts.assign(ng, t);
  y_soa.resize(n * ng);
  f_soa.resize(n * ng);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t g = 0; g < ng; ++g) {
      y_soa[i * ng + g] = y[i];
    }
  }
  for (std::size_t g = 0; g < ng; ++g) {
    for (std::size_t j : groups[g]) {
      y_soa[j * ng + g] = y[j] + fd_increment(y[j]);
    }
  }
  f(ng, ts.data(), y_soa.data(), f_soa.data());
  rhs_calls += ng;

  // Group g's compressed differences scatter through the CSC view. Every
  // equation depends on at most one perturbed column of a group (that is
  // what the distance-2 coloring guarantees), so each difference is
  // bitwise what a one-column evaluation would have produced.
  std::span<double> values = jac.values();
  for (std::size_t g = 0; g < ng; ++g) {
    for (std::size_t j : groups[g]) {
      const double inv = 1.0 / fd_increment(y[j]);
      for (std::size_t k = plan.cols.col_ptr[j]; k < plan.cols.col_ptr[j + 1];
           ++k) {
        const std::size_t r = plan.cols.row_idx[k];
        values[plan.cols.csr_pos[k]] = (f_soa[r * ng + g] - f0[r]) * inv;
      }
    }
  }
}

JacobianEngine::JacobianEngine(const Problem& p, LaneRhs& f)
    : p_(p),
      f_(f),
      plan_(p.jac_plan ? p.jac_plan : make_jac_plan(p)),
      jac_(plan_->pattern),
      m_(plan_->pattern) {}

void JacobianEngine::eval_jacobian(double t, std::span<const double> y,
                                   SolverStats& stats) {
  if (p_.sparse_jacobian) {
    obs::Span span("jacobian_sparse", "ode");
    p_.sparse_jacobian(t, y, jac_);
  } else {
    obs::Span span("jacobian_fd_colored", "ode");
    colored_fd_jacobian(f_, *plan_, t, y, jac_, stats.rhs_calls, fd_);
  }
  ++stats.jac_calls;
}

void JacobianEngine::factorize(double beta_h) {
  factored_beta_h_ = -1.0;  // stale until the factorization below succeeds
  const la::SparsityPattern& pat = *plan_->pattern;
  std::span<const double> jv = jac_.values();
  std::span<double> mv = m_.values();
  for (std::size_t r = 0; r < pat.rows; ++r) {
    for (std::size_t k = pat.row_ptr[r]; k < pat.row_ptr[r + 1]; ++k) {
      mv[k] = (pat.col_idx[k] == r ? 1.0 : 0.0) - beta_h * jv[k];
    }
  }
  if (lu_) {
    lu_->refactor(m_);
  } else {
    lu_.emplace(m_);
  }
  factored_beta_h_ = beta_h;
}

bool JacobianEngine::stale() const {
  return !have_jac_ || refresh_requested_ || age_ >= kMaxAge;
}

la::SparseLu& JacobianEngine::prepare(double t, std::span<const double> y,
                                      double beta_h, SolverStats& stats) {
  const bool need_jac = stale();
  const bool need_factor = need_jac || factored_beta_h_ != beta_h;
  if (need_jac) {
    static obs::Histogram& build_hist = obs::Registry::global().histogram(
        "jac.build_seconds", obs::log_spaced_bounds(1e-6, 1.0));
    Stopwatch timer;
    eval_jacobian(t, y, stats);
    const double secs = timer.seconds();
    build_hist.observe(secs);
    obs::record_jac(obs::StepEventKind::kJacEvaluate, "bdf", t, beta_h,
                    secs);
    have_jac_ = true;
    age_ = 0;
    refresh_requested_ = false;
  } else if (need_factor) {
    ++stats.jac_reuse_hits;  // beta*h changed; Jacobian still fresh
    obs::record_jac(obs::StepEventKind::kJacReuse, "bdf", t, beta_h);
  }
  if (need_factor) {
    factorize(beta_h);
    ++stats.jac_factorizations;
    obs::record_jac(obs::StepEventKind::kJacFactorize, "bdf", t, beta_h);
  }
  return *lu_;
}

void JacobianEngine::invalidate() {
  have_jac_ = false;  // forces a re-evaluation, hence a refactorization
  refresh_requested_ = false;
  age_ = 0;
}

void JacobianEngine::on_step_accepted(std::size_t newton_iters) {
  ++age_;
  if (newton_iters >= kSlowIters) {
    refresh_requested_ = true;  // convergence-rate degradation
  }
}

}  // namespace omx::ode
