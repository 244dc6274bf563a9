// Dense LU factorization with partial pivoting and triangular solves:
// the textbook reference that la::SparseLu must reproduce bit for bit
// (the la tests' oracle). The solvers factor through SparseLu.
#pragma once

#include <span>
#include <vector>

#include "omx/la/matrix.hpp"

namespace omx::la {

/// In-place LU factorization of a square matrix, PA = LU.
class LuFactors {
 public:
  /// Factorizes `a` (copied). Throws omx::Error on a singular pivot.
  explicit LuFactors(Matrix a);

  std::size_t size() const { return lu_.rows(); }

  /// Solves A x = b; `x` may alias `b`.
  void solve(std::span<const double> b, std::span<double> x) const;

  /// Reciprocal condition estimate via max-norm of pivots (cheap heuristic,
  /// good enough to detect near-singularity for Newton restarts).
  double pivot_growth() const { return pivot_min_ / pivot_max_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  double pivot_min_ = 0.0;
  double pivot_max_ = 0.0;
};

}  // namespace omx::la
