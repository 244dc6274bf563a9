// Dense oracles the sparse stiff path is checked against: a row-major
// matrix, the textbook LU with partial pivoting that la::SparseLu
// reproduces bit for bit, the one-column-at-a-time forward-difference
// Jacobian that ode::colored_fd_jacobian reproduces bit for bit, and a
// model's symbolic Jacobian bound over the full n x n pattern.
//
// Header-only, outside src/: the tests and bench/partitioned_solver reach
// it through the omx_dense_oracle CMake target, which the library does
// not link, so library code cannot include it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "omx/la/sparse.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/problem.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/diagnostics.hpp"
#include "omx/vm/interp.hpp"

namespace omx::oracle {

/// Dense row-major matrix, zero-initialized.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// `a` as a dense matrix; entries outside its pattern are exact 0.0.
inline Matrix to_dense(const la::CsrMatrix& a) {
  const la::SparsityPattern& p = a.pattern();
  Matrix m(a.rows(), a.cols());
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      m(r, p.col_idx[k]) = a.values()[k];
    }
  }
  return m;
}

/// Textbook dense LU with partial pivoting, PA = LU, and its triangular
/// solves.
class LuFactors {
 public:
  /// Factorizes `a` (copied). Throws omx::Error on a singular pivot.
  explicit LuFactors(Matrix a) : lu_(std::move(a)) {
    OMX_REQUIRE(lu_.rows() == lu_.cols(), "LU needs a square matrix");
    const std::size_t n = lu_.rows();
    perm_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      perm_[i] = i;
    }
    pivot_min_ = std::numeric_limits<double>::infinity();
    pivot_max_ = 0.0;

    for (std::size_t k = 0; k < n; ++k) {
      // Partial pivot: pick the row with the largest |a(i,k)|, i >= k.
      std::size_t piv = k;
      double best = std::fabs(lu_(k, k));
      for (std::size_t i = k + 1; i < n; ++i) {
        const double v = std::fabs(lu_(i, k));
        if (v > best) {
          best = v;
          piv = i;
        }
      }
      if (best == 0.0) {
        throw omx::Error("LU: matrix is singular at column " +
                         std::to_string(k));
      }
      if (piv != k) {
        std::swap(perm_[piv], perm_[k]);
        for (std::size_t c = 0; c < n; ++c) {
          std::swap(lu_(piv, c), lu_(k, c));
        }
      }
      pivot_min_ = std::min(pivot_min_, best);
      pivot_max_ = std::max(pivot_max_, best);

      const double inv_pivot = 1.0 / lu_(k, k);
      for (std::size_t i = k + 1; i < n; ++i) {
        const double m = lu_(i, k) * inv_pivot;
        lu_(i, k) = m;
        if (m != 0.0) {
          for (std::size_t c = k + 1; c < n; ++c) {
            lu_(i, c) -= m * lu_(k, c);
          }
        }
      }
    }
  }

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b; `x` may alias `b`.
  void solve(std::span<const double> b, std::span<double> x) const {
    const std::size_t n = size();
    OMX_REQUIRE(b.size() == n && x.size() == n, "size mismatch");
    // Apply the permutation and forward-substitute L (unit diagonal).
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) {
        acc -= lu_(i, j) * y[j];
      }
      y[i] = acc;
    }
    // Back-substitute U.
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t j = ii + 1; j < n; ++j) {
        acc -= lu_(ii, j) * x[j];
      }
      x[ii] = acc / lu_(ii, ii);
    }
  }

  /// Smallest over largest pivot magnitude.
  double pivot_growth() const { return pivot_min_ / pivot_max_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  double pivot_min_ = 0.0;
  double pivot_max_ = 0.0;
};

/// Forward-difference dense Jacobian: J(:,j) = (f(y + e_j dj) - f(y)) / dj
/// with dj = ode::fd_increment(y_j). Costs n+1 RHS evaluations, added to
/// `rhs_calls`.
inline void finite_difference_jacobian(const ode::RhsFn& rhs, double t,
                                       std::span<const double> y,
                                       Matrix& jac,
                                       std::uint64_t& rhs_calls) {
  const std::size_t n = y.size();
  OMX_REQUIRE(jac.rows() == n && jac.cols() == n, "jacobian shape mismatch");
  std::vector<double> f0(n), f1(n), yp(y.begin(), y.end());
  rhs(t, y, f0);
  ++rhs_calls;
  for (std::size_t j = 0; j < n; ++j) {
    const double dj = ode::fd_increment(y[j]);
    const double saved = yp[j];
    yp[j] = saved + dj;
    rhs(t, yp, f1);
    ++rhs_calls;
    yp[j] = saved;
    const double inv = 1.0 / dj;
    for (std::size_t i = 0; i < n; ++i) {
      jac(i, j) = (f1[i] - f0[i]) * inv;
    }
  }
}

/// Binds `cm`'s symbolic Jacobian into `p` over the full n x n pattern:
/// sets p.sparsity to SparsityPattern::dense(n), and the bound callback
/// evaluates the structural tape and scatters its values into the full
/// row-major values, structural zeros as exact 0.0. Like
/// CompiledModel::bind_symbolic_jacobian, `cm` must outlive `p`, and each
/// thread evaluates in buffers of its own that stop allocating once grown.
inline void bind_full_pattern_jacobian(const pipeline::CompiledModel& cm,
                                       ode::Problem& p) {
  OMX_REQUIRE(cm.sparse_jacobian_program.n_regs > 0,
              "jacobian program not built");
  p.sparsity = std::make_shared<const la::SparsityPattern>(
      la::SparsityPattern::dense(p.n));
  p.set_sparse_jacobian([sp = &cm.sparse_jacobian_program,
                         pattern = cm.jac_sparsity](
                            double t, std::span<const double> y,
                            la::CsrMatrix& jac) {
    const std::size_t n = pattern->rows;
    OMX_REQUIRE(jac.pattern().nnz() == n * n, "full jacobian pattern");
    thread_local std::vector<double> vals;
    vals.resize(sp->n_out);
    thread_local vm::Workspace ws;
    ws.reset(*sp);
    vm::eval_rhs_serial(*sp, t, y, vals, ws);
    std::span<double> full = jac.values();
    std::fill(full.begin(), full.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = pattern->row_ptr[i]; k < pattern->row_ptr[i + 1];
           ++k) {
        full[i * n + pattern->col_idx[k]] = vals[k];
      }
    }
  });
}

}  // namespace omx::oracle
