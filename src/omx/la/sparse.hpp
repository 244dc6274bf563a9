// Sparse linear-algebra substrate for the stiff path: CSR sparsity
// patterns, distance-2 column coloring (compressed finite-difference
// Jacobians), a CSR value matrix, the sparse LU factorization with
// partial pivoting that every implicit solver's Newton matrix goes
// through (a problem without a pattern factors over the full one), and a
// lanes solver that runs many lanes' triangular solves side by side.
//
// Bitwise contract: SparseLu factors in the natural order and performs
// exactly the same floating-point operations as the textbook dense LU
// (the tests' oracle, tests/oracle/dense_oracle.hpp) on the same matrix
// — structural zeros are exact 0.0 in the dense path, so they can never
// win the strict-`>` pivot search, their row updates are numerical
// no-ops, and fill values are computed as `0.0 - m * u` just like the
// dense in-place update. So a full pattern and a structural one give
// bit-for-bit identical trajectories.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace omx::la {

/// Structure-only CSR pattern (row_ptr/col_idx, columns sorted per row).
struct SparsityPattern {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> row_ptr;  // rows + 1 offsets into col_idx
  std::vector<std::size_t> col_idx;  // sorted within each row, no dupes

  static SparsityPattern dense(std::size_t n);
  static SparsityPattern from_dense_mask(
      const std::vector<std::vector<bool>>& mask);
  /// Builds from (row, col) pairs; duplicates are collapsed.
  static SparsityPattern from_triplets(
      std::size_t rows, std::size_t cols,
      std::vector<std::pair<std::size_t, std::size_t>> entries);

  std::size_t nnz() const { return col_idx.size(); }
  /// max(i - j) over stored entries with i > j (0 when none).
  std::size_t lower_bandwidth() const;
  /// max(j - i) over stored entries with j > i (0 when none).
  std::size_t upper_bandwidth() const;

  /// Index into col_idx (and any aligned value array) or npos.
  std::size_t find(std::size_t r, std::size_t c) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Same pattern with every diagonal entry present (square only).
  SparsityPattern with_diagonal() const;

  bool operator==(const SparsityPattern&) const = default;
};

/// CSC companion of a pattern; csr_pos maps each column-major slot back
/// to its index in the CSR col_idx (and any value array aligned with it).
struct ColumnView {
  std::vector<std::size_t> col_ptr;  // cols + 1
  std::vector<std::size_t> row_idx;  // nnz
  std::vector<std::size_t> csr_pos;  // nnz
};

ColumnView columns(const SparsityPattern& p);

/// Greedy distance-2 coloring of the columns: two columns sharing any row
/// get different colors, so all columns of one color can be perturbed in
/// a single finite-difference RHS evaluation.
struct Coloring {
  std::vector<int> color;                         // per column
  int num_colors = 0;
  std::vector<std::vector<std::size_t>> groups;   // columns per color
};

Coloring color_columns(const SparsityPattern& p);

/// CSR value matrix over a shared (immutable) pattern.
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(std::shared_ptr<const SparsityPattern> pattern);

  const SparsityPattern& pattern() const { return *pattern_; }
  std::shared_ptr<const SparsityPattern> pattern_ptr() const {
    return pattern_;
  }

  std::span<double> values() { return values_; }
  std::span<const double> values() const { return values_; }

  std::size_t rows() const { return pattern_ ? pattern_->rows : 0; }
  std::size_t cols() const { return pattern_ ? pattern_->cols : 0; }

  /// Value at (r, c); exact 0.0 for entries outside the pattern.
  double at(std::size_t r, std::size_t c) const;

 private:
  std::shared_ptr<const SparsityPattern> pattern_;
  std::vector<double> values_;
};

/// Sparse LU with partial pivoting. The pivot search is bounded by the
/// lower bandwidth of the input (banded fast path: for a tridiagonal
/// heat-PDE stencil only one subdiagonal row is scanned per column), and
/// row updates merge only structurally nonzero entries, creating fill as
/// needed. Throws omx::Error on a singular pivot column.
///
/// Storage: L\U is one flat CSR. Row i occupies [row_ptr_[i],
/// row_ptr_[i+1]) of col_/val_ with columns ascending; the entries before
/// diag_[i] are the L multipliers (unit diagonal implied), diag_[i] is
/// the pivot, the rest is U.
///
/// Two factorization paths perform the same floating-point operations:
///  * The general path (construction, fallback) pivots and creates fill;
///    it builds the structure and writes it into the flat arrays.
///  * refactor(a) scatters `a` into the stored structure through a map
///    built by the last general factorization and re-runs only the
///    numeric elimination, in the stored row order. A row update whose
///    pivot row holds one run of columns that the target row holds too
///    runs as a straight loop. It falls back to the general path when
///    another pivot would be chosen, when a row update needs an entry
///    the structure lacks, when a pivot is zero (the general path then
///    throws its usual diagnostic), or when `a` is over another pattern
///    object. A pivoted order is replayed only when every pivot is its
///    column's strict unique maximum (a tie's winner depends on where
///    the general path's swaps left the candidate rows) and only when
///    the band window is the whole matrix (after swaps, a banded
///    structure's L entries can lie outside the positional window);
///    other pivoted structures always take the general path.
///
/// The solver owns solve()'s scratch and sizes it when it factors, so
/// solve() allocates nothing; it is therefore not safe to call solve()
/// concurrently on one instance.
class SparseLu {
 public:
  explicit SparseLu(const CsrMatrix& a);

  /// Factors `a` anew, bitwise equal to constructing a fresh SparseLu
  /// from it; reuses the stored structure when it can (see above).
  /// Throws like the constructor, and the solver then stays unusable
  /// until a refactor succeeds.
  void refactor(const CsrMatrix& a);

  std::size_t size() const { return n_; }
  /// Solves A x = b; `x` may alias `b`.
  void solve(std::span<const double> b, std::span<double> x) const;
  /// Nonzeros stored in the factors.
  std::size_t factor_nnz() const { return col_.size(); }

  /// Reciprocal condition estimate: smallest over largest pivot
  /// magnitude (cheap, enough to detect near-singularity).
  double pivot_growth() const { return pivot_min_ / pivot_max_; }

 private:
  friend class LaneSolver;

  void factorize(const CsrMatrix& a);
  bool eliminate_in_place(std::span<const double> a_values);

  std::size_t n_ = 0;
  std::shared_ptr<const SparsityPattern> pattern_;  // of the factored input
  std::vector<std::size_t> row_ptr_;   // n + 1 offsets into col_/val_
  std::vector<std::uint32_t> col_;     // L\U columns, ascending per row
  std::vector<double> val_;            // L multipliers, pivots, U
  std::vector<std::size_t> diag_;      // index of the pivot per row
  std::vector<std::size_t> src_;       // b index feeding each row
  std::vector<std::size_t> a_map_;     // input slot -> val_ slot; empty
                                       // when refactor cannot reuse
  std::vector<std::size_t> next_;      // refactor: next L entry per row
  mutable std::vector<double> work_;   // solve scratch (empty: solve in x)
  std::size_t bandwidth_ = 0;          // lower bandwidth bound for pivots
  double pivot_min_ = 0.0;
  double pivot_max_ = 0.0;
  // Process-wide unique per successful factorization, so a LaneSolver
  // can tell whether its copy of the values is current.
  std::uint64_t generation_ = 0;
};

/// Solves many lanes' systems side by side. A call's lane q solves
/// solvers[q] x = b on column q of the n x m SoA arrays b and x (element
/// i at [i * m + q], m = solvers.size()); x may alias b.
///
/// The SparseLu lanes whose factors share one structure (one pattern
/// object, no row swap, the same fill) walk it together, row by row,
/// the lanes the inner loop, so their divide chains overlap. For that
/// the solver keeps their factor values
/// lane-interleaved, one slot per lane: the caller names lane q's slot,
/// slots[q], and keeps it for that lane from call to call, and a slot's
/// copy is refreshed only when its lane has refactored since. When
/// every lane of a call walks and slots[q] is q, one entry's values for
/// all lanes are contiguous and the walk runs as vector loops. Each
/// walking lane does the operations of its own solve(), in the same
/// order, so its x is bitwise what solve() gives. Every other lane
/// (pivoted factors, another structure) is gathered and solves alone;
/// so is a lone walking lane. Allocates nothing once it has seen its
/// widest call and its structure; not safe to use from two threads at
/// once.
class LaneSolver {
 public:
  void solve(std::span<const SparseLu* const> solvers,
             std::span<const std::size_t> slots, const double* b, double* x);
  /// The same with lane q in column slots[q] of the n x `stride` arrays
  /// b and x (a lane block whose slots are the lanes' slots here); the
  /// walk is a vector loop when the lanes are all `stride` slots in
  /// order.
  void solve(std::span<const SparseLu* const> solvers,
             std::span<const std::size_t> slots, std::size_t stride,
             const double* b, double* x);

 private:
  /// Lane q's column is slots[q] when `by_slot`, else q.
  void run(std::span<const SparseLu* const> solvers,
           std::span<const std::size_t> slots, bool by_slot,
           std::size_t stride, const double* b, double* x);
  /// True when `lu` can walk the held structure; the first such lane
  /// sets it.
  bool fits(const SparseLu& lu);
  /// Makes `slot` hold `lu`'s current values.
  void hold(std::size_t slot, const SparseLu& lu);

  // The walked structure (see SparseLu's storage comment).
  std::shared_ptr<const SparsityPattern> pattern_;
  std::vector<std::size_t> row_ptr_, diag_;
  std::vector<std::uint32_t> col_;
  // Value k of slot j at [k * width_ + j], and the generation each slot
  // holds (0: none).
  std::size_t width_ = 0;
  std::vector<double> vals_;
  std::vector<std::uint64_t> held_;
  // A call's walking lanes: their columns in b and x, and their slots.
  std::vector<std::size_t> cols_, keys_;
  std::vector<double> work_;  // one lane's column for a solve alone
};

}  // namespace omx::la
