#include "omx/la/sparse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>

#include "omx/support/diagnostics.hpp"
#include "omx/support/simd.hpp"

namespace omx::la {

SparsityPattern SparsityPattern::dense(std::size_t n) {
  SparsityPattern p;
  p.rows = n;
  p.cols = n;
  p.row_ptr.resize(n + 1);
  p.col_idx.reserve(n * n);
  for (std::size_t r = 0; r < n; ++r) {
    p.row_ptr[r] = r * n;
    for (std::size_t c = 0; c < n; ++c) {
      p.col_idx.push_back(c);
    }
  }
  p.row_ptr[n] = n * n;
  return p;
}

SparsityPattern SparsityPattern::from_dense_mask(
    const std::vector<std::vector<bool>>& mask) {
  SparsityPattern p;
  p.rows = mask.size();
  p.cols = p.rows == 0 ? 0 : mask.front().size();
  p.row_ptr.resize(p.rows + 1, 0);
  for (std::size_t r = 0; r < p.rows; ++r) {
    OMX_REQUIRE(mask[r].size() == p.cols, "ragged sparsity mask");
    p.row_ptr[r] = p.col_idx.size();
    for (std::size_t c = 0; c < p.cols; ++c) {
      if (mask[r][c]) {
        p.col_idx.push_back(c);
      }
    }
  }
  p.row_ptr[p.rows] = p.col_idx.size();
  return p;
}

SparsityPattern SparsityPattern::from_triplets(
    std::size_t rows, std::size_t cols,
    std::vector<std::pair<std::size_t, std::size_t>> entries) {
  for (const auto& [r, c] : entries) {
    OMX_REQUIRE(r < rows && c < cols, "triplet out of range");
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  SparsityPattern p;
  p.rows = rows;
  p.cols = cols;
  p.row_ptr.resize(rows + 1, 0);
  p.col_idx.reserve(entries.size());
  std::size_t r = 0;
  for (const auto& [er, ec] : entries) {
    while (r <= er) {
      p.row_ptr[r++] = p.col_idx.size();
    }
    p.col_idx.push_back(ec);
  }
  while (r <= rows) {
    p.row_ptr[r++] = p.col_idx.size();
  }
  return p;
}

std::size_t SparsityPattern::lower_bandwidth() const {
  std::size_t b = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (r > col_idx[k]) {
        b = std::max(b, r - col_idx[k]);
      }
    }
  }
  return b;
}

std::size_t SparsityPattern::upper_bandwidth() const {
  std::size_t b = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] > r) {
        b = std::max(b, col_idx[k] - r);
      }
    }
  }
  return b;
}

std::size_t SparsityPattern::find(std::size_t r, std::size_t c) const {
  OMX_REQUIRE(r < rows && c < cols, "pattern index out of range");
  const auto begin = col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r]);
  const auto end =
      col_idx.begin() + static_cast<std::ptrdiff_t>(row_ptr[r + 1]);
  const auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) {
    return npos;
  }
  return static_cast<std::size_t>(it - col_idx.begin());
}

SparsityPattern SparsityPattern::with_diagonal() const {
  OMX_REQUIRE(rows == cols, "with_diagonal needs a square pattern");
  SparsityPattern p;
  p.rows = rows;
  p.cols = cols;
  p.row_ptr.resize(rows + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    p.row_ptr[r] = p.col_idx.size();
    bool placed = false;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (!placed && c >= r) {
        if (c != r) {
          p.col_idx.push_back(r);
        }
        placed = true;
      }
      p.col_idx.push_back(c);
    }
    if (!placed) {
      p.col_idx.push_back(r);
    }
  }
  p.row_ptr[rows] = p.col_idx.size();
  return p;
}

ColumnView columns(const SparsityPattern& p) {
  ColumnView v;
  v.col_ptr.assign(p.cols + 1, 0);
  for (std::size_t c : p.col_idx) {
    ++v.col_ptr[c + 1];
  }
  for (std::size_t c = 0; c < p.cols; ++c) {
    v.col_ptr[c + 1] += v.col_ptr[c];
  }
  v.row_idx.resize(p.nnz());
  v.csr_pos.resize(p.nnz());
  std::vector<std::size_t> cursor(v.col_ptr.begin(), v.col_ptr.end() - 1);
  for (std::size_t r = 0; r < p.rows; ++r) {
    for (std::size_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      const std::size_t c = p.col_idx[k];
      v.row_idx[cursor[c]] = r;
      v.csr_pos[cursor[c]] = k;
      ++cursor[c];
    }
  }
  return v;
}

Coloring color_columns(const SparsityPattern& p) {
  const ColumnView cv = columns(p);
  Coloring out;
  out.color.assign(p.cols, -1);
  // forbidden[c] == j means color c is already taken by a column that
  // shares a row with column j (stamp trick: no per-column reset).
  std::vector<std::size_t> forbidden(p.cols + 1,
                                     std::numeric_limits<std::size_t>::max());
  for (std::size_t j = 0; j < p.cols; ++j) {
    for (std::size_t k = cv.col_ptr[j]; k < cv.col_ptr[j + 1]; ++k) {
      const std::size_t r = cv.row_idx[k];
      for (std::size_t q = p.row_ptr[r]; q < p.row_ptr[r + 1]; ++q) {
        const int c = out.color[p.col_idx[q]];
        if (c >= 0) {
          forbidden[static_cast<std::size_t>(c)] = j;
        }
      }
    }
    int c = 0;
    while (forbidden[static_cast<std::size_t>(c)] == j) {
      ++c;
    }
    out.color[j] = c;
    out.num_colors = std::max(out.num_colors, c + 1);
  }
  out.groups.resize(static_cast<std::size_t>(out.num_colors));
  for (std::size_t j = 0; j < p.cols; ++j) {
    out.groups[static_cast<std::size_t>(out.color[j])].push_back(j);
  }
  return out;
}

CsrMatrix::CsrMatrix(std::shared_ptr<const SparsityPattern> pattern)
    : pattern_(std::move(pattern)) {
  OMX_REQUIRE(pattern_ != nullptr, "CsrMatrix needs a pattern");
  values_.assign(pattern_->nnz(), 0.0);
}

double CsrMatrix::at(std::size_t r, std::size_t c) const {
  const std::size_t k = pattern_->find(r, c);
  return k == SparsityPattern::npos ? 0.0 : values_[k];
}

namespace {

/// One L\U entry of a row under construction on the general path.
struct Entry {
  std::uint32_t col;
  std::uint32_t slot;  // input slot it was loaded from, or kFill
  double val;
};
constexpr std::uint32_t kFill = std::numeric_limits<std::uint32_t>::max();

/// First entry at column >= `c` in a sorted entry row.
std::vector<Entry>::iterator find_col(std::vector<Entry>& row,
                                      std::uint32_t c) {
  return std::lower_bound(
      row.begin(), row.end(), c,
      [](const Entry& e, std::uint32_t col) { return e.col < col; });
}

/// A process-wide unique id for a new factorization.
std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

SparseLu::SparseLu(const CsrMatrix& a) : n_(a.rows()) {
  OMX_REQUIRE(a.rows() == a.cols(), "LU needs a square matrix");
  factorize(a);
  generation_ = next_generation();
}

void SparseLu::refactor(const CsrMatrix& a) {
  OMX_REQUIRE(a.rows() == n_ && a.cols() == n_, "refactor size mismatch");
  if (a_map_.empty() || &a.pattern() != pattern_.get() ||
      !eliminate_in_place(a.values())) {
    factorize(a);
  }
  generation_ = next_generation();
}

void SparseLu::factorize(const CsrMatrix& a) {
  const SparsityPattern& p = a.pattern();
  pattern_ = a.pattern_ptr();
  a_map_.clear();  // stays empty if the elimination below throws

  // Load the matrix into per-row sorted entry vectors.
  std::vector<std::vector<Entry>> rows(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    auto& row = rows[r];
    row.reserve(p.row_ptr[r + 1] - p.row_ptr[r]);
    for (std::size_t k = p.row_ptr[r]; k < p.row_ptr[r + 1]; ++k) {
      row.push_back({static_cast<std::uint32_t>(p.col_idx[k]),
                     static_cast<std::uint32_t>(k), a.values()[k]});
    }
    std::sort(row.begin(), row.end(),
              [](const Entry& x, const Entry& y) { return x.col < y.col; });
  }

  // Lower bandwidth of the loaded matrix bounds how far below the
  // diagonal partial pivoting can ever find a nonzero: rows beyond
  // k + bandwidth_ stay structurally zero in column k throughout the
  // elimination (classic band-LU result), so the pivot scan — and the
  // update loop — only visit that window. For the tridiagonal heat-PDE
  // stencil this is a single row per column.
  bandwidth_ = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    for (const Entry& e : rows[r]) {
      if (r > e.col) {
        bandwidth_ = std::max(bandwidth_, r - e.col);
      }
    }
  }

  std::vector<std::size_t> perm(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    perm[i] = i;
  }
  bool pivoted = false;
  pivot_min_ = std::numeric_limits<double>::infinity();
  pivot_max_ = 0.0;

  std::vector<Entry> merged;
  for (std::size_t k = 0; k < n_; ++k) {
    const std::uint32_t kc = static_cast<std::uint32_t>(k);
    const std::size_t imax = std::min(n_ - 1, k + bandwidth_);

    // Partial pivot over the band window — same strict-`>` rule as the
    // textbook dense LU; structurally absent entries are exact zeros and
    // can never win, so the choice matches the dense scan bit-for-bit.
    std::size_t piv = k;
    double best = 0.0;
    {
      auto it = find_col(rows[k], kc);
      if (it != rows[k].end() && it->col == kc) {
        best = std::fabs(it->val);
      }
    }
    for (std::size_t i = k + 1; i <= imax; ++i) {
      auto it = find_col(rows[i], kc);
      if (it != rows[i].end() && it->col == kc) {
        const double v = std::fabs(it->val);
        if (v > best) {
          best = v;
          piv = i;
        }
      }
    }
    if (best == 0.0) {
      throw omx::Error("sparse LU: matrix is singular at column " +
                       std::to_string(k));
    }
    if (piv != k) {
      std::swap(perm[piv], perm[k]);
      rows[piv].swap(rows[k]);
      pivoted = true;
      // Growing the band window is impossible: the swap happens inside
      // the window, so bandwidth_ keeps bounding later pivot columns.
    }
    pivot_min_ = std::min(pivot_min_, best);
    pivot_max_ = std::max(pivot_max_, best);

    auto kdiag = find_col(rows[k], kc);
    const double inv_pivot = 1.0 / kdiag->val;
    const std::size_t kdiag_pos =
        static_cast<std::size_t>(kdiag - rows[k].begin());

    for (std::size_t i = k + 1; i <= imax; ++i) {
      auto& row = rows[i];
      auto lcol = find_col(row, kc);
      if (lcol == row.end() || lcol->col != kc) {
        // Dense stores m = 0 * inv_pivot here and skips the update — a
        // numerical no-op, so the entry can stay structurally absent.
        continue;
      }
      const double m = lcol->val * inv_pivot;
      lcol->val = m;
      if (m == 0.0) {
        continue;  // same skip as dense `if (m != 0.0)`
      }
      // row_i(c) -= m * row_k(c) for c > k, merging in fill. First pass
      // updates matching entries in place and counts the fill, so a row
      // whose pattern already holds the update needs no rebuild.
      const std::size_t head =
          static_cast<std::size_t>(lcol - row.begin()) + 1;
      std::size_t ai = head;
      std::size_t bi = kdiag_pos + 1;
      const auto& krow = rows[k];
      std::size_t fill = 0;
      while (ai < row.size() && bi < krow.size()) {
        if (row[ai].col < krow[bi].col) {
          ++ai;
        } else if (row[ai].col > krow[bi].col) {
          ++fill;
          ++bi;
        } else {
          row[ai].val -= m * krow[bi].val;
          ++ai;
          ++bi;
        }
      }
      fill += krow.size() - bi;
      if (fill == 0) {
        continue;
      }
      // Second pass: rebuild the tail with the fill entries. Fill values
      // are `0.0 - m * u`, exactly what the dense update computes when
      // the target started as an exact zero (signed-zero faithful).
      merged.clear();
      merged.reserve(row.size() - head + fill);
      ai = head;
      bi = kdiag_pos + 1;
      while (ai < row.size() && bi < krow.size()) {
        if (row[ai].col < krow[bi].col) {
          merged.push_back(row[ai]);
          ++ai;
        } else if (row[ai].col > krow[bi].col) {
          merged.push_back({krow[bi].col, kFill, 0.0 - m * krow[bi].val});
          ++bi;
        } else {
          merged.push_back(row[ai]);  // already updated in the first pass
          ++ai;
          ++bi;
        }
      }
      for (; ai < row.size(); ++ai) {
        merged.push_back(row[ai]);
      }
      for (; bi < krow.size(); ++bi) {
        merged.push_back({krow[bi].col, kFill, 0.0 - m * krow[bi].val});
      }
      row.resize(head);
      row.insert(row.end(), merged.begin(), merged.end());
    }
  }

  // Flatten into the CSR arrays solve() and refactor() read. Every input
  // entry ends in the row its input row was swapped to, so each input
  // slot has a fixed home for refactor(); a pivoted order is kept for
  // replay only when the band window is the whole matrix.
  const bool mapped = !pivoted || bandwidth_ + 1 == n_;
  row_ptr_.assign(n_ + 1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    row_ptr_[i + 1] = row_ptr_[i] + rows[i].size();
  }
  col_.resize(row_ptr_[n_]);
  val_.resize(row_ptr_[n_]);
  diag_.resize(n_);
  a_map_.resize(mapped ? p.nnz() : 0);
  next_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    auto it = find_col(rows[i], static_cast<std::uint32_t>(i));
    OMX_REQUIRE(it != rows[i].end() && it->col == i,
                "sparse LU lost a diagonal");
    diag_[i] = row_ptr_[i] + static_cast<std::size_t>(it - rows[i].begin());
    for (std::size_t k = 0; k < rows[i].size(); ++k) {
      const Entry& e = rows[i][k];
      col_[row_ptr_[i] + k] = e.col;
      val_[row_ptr_[i] + k] = e.val;
      if (mapped && e.slot != kFill) {
        a_map_[e.slot] = row_ptr_[i] + k;
      }
    }
  }
  src_.assign(perm.begin(), perm.end());
  work_.assign(pivoted ? n_ : 0, 0.0);
}

bool SparseLu::eliminate_in_place(std::span<const double> a_values) {
  if (col_.size() != a_values.size()) {
    std::fill(val_.begin(), val_.end(), 0.0);  // fill slots start at zero
    for (std::size_t k = 0; k < a_values.size(); ++k) {
      val_[a_map_[k]] = a_values[k];
    }
  } else {
    // No fill: row i holds exactly input row src_[i], in its order (the
    // identity without a row swap), so the scatter is row copies.
    const std::vector<std::size_t>& in = pattern_->row_ptr;
    for (std::size_t i = 0; i < n_; ++i) {
      std::copy(a_values.begin() + static_cast<std::ptrdiff_t>(in[src_[i]]),
                a_values.begin() + static_cast<std::ptrdiff_t>(in[src_[i] + 1]),
                val_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]));
    }
  }
  std::copy(row_ptr_.begin(), row_ptr_.end() - 1, next_.begin());
  pivot_min_ = std::numeric_limits<double>::infinity();
  pivot_max_ = 0.0;

  // The general path's elimination without its searches. Columns are
  // eliminated in ascending order and every L entry of row i lies in the
  // band window of its column, so next_[i] always points at the L entry
  // the current column can touch. Slots the general path would leave
  // absent hold exact zeros here, which neither win a pivot nor change a
  // value they are subtracted from. A stored row swap (work_ is sized
  // then) is replayed only while each pivot strictly beats every other
  // candidate. A failed check returns at once and leaves val_ half
  // updated; the general path then starts over.
  const bool replay = !work_.empty();
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t imax = std::min(n_ - 1, k + bandwidth_);
    const std::size_t kd = diag_[k];
    const double best = std::fabs(val_[kd]);
    if (best == 0.0) {
      return false;  // the general path swaps or throws
    }
    pivot_min_ = std::min(pivot_min_, best);
    pivot_max_ = std::max(pivot_max_, best);

    const double inv_pivot = 1.0 / val_[kd];
    const std::size_t kend = row_ptr_[k + 1];
    // Row k's U part is one run of columns when its span equals its
    // length (columns strictly ascend); so is a target row's stretch
    // with the same first and last column and length.
    const std::size_t len = kend - kd - 1;
    const bool run = len > 0 && col_[kend - 1] - col_[kd + 1] == len - 1;
    for (std::size_t i = k + 1; i <= imax; ++i) {
      std::size_t q = next_[i];
      if (q >= diag_[i] || col_[q] != k) {
        continue;
      }
      const double v = std::fabs(val_[q]);
      if (v > best || (replay && v == best)) {
        return false;  // another pivot
      }
      const double m = val_[q] * inv_pivot;
      val_[q] = m;
      next_[i] = ++q;
      if (m == 0.0) {
        continue;
      }
      const std::size_t iend = row_ptr_[i + 1];
      if (run) {
        while (q < iend && col_[q] < col_[kd + 1]) {
          ++q;
        }
        if (q + len > iend || col_[q] != col_[kd + 1] ||
            col_[q + len - 1] != col_[kend - 1]) {
          return false;  // needs fill the stored structure lacks
        }
        // Rows i and k are disjoint stretches of val_, and each element's
        // update is its own, so packing them into vectors keeps the bits.
        double* dst = val_.data() + q;
        const double* src = val_.data() + kd + 1;
        OMX_PRAGMA_SIMD
        for (std::size_t u = 0; u < len; ++u) {
          dst[u] -= m * src[u];
        }
        continue;
      }
      for (std::size_t u = kd + 1; u < kend; ++u) {
        while (q < iend && col_[q] < col_[u]) {
          ++q;
        }
        if (q == iend || col_[q] != col_[u]) {
          return false;  // needs fill the stored structure lacks
        }
        val_[q] -= m * val_[u];
        ++q;
      }
    }
  }
  return true;
}

void SparseLu::solve(std::span<const double> b, std::span<double> x) const {
  OMX_REQUIRE(b.size() == n_ && x.size() == n_, "size mismatch");
  // Forward-substitute L (unit diagonal) from the permuted b, then
  // back-substitute U — entry-for-entry the dense loops with the exact
  // zeros skipped. Without a row swap y lives in x itself (x may alias
  // b: b[i] is read before x[i] is written); otherwise in work_.
  double* y = work_.empty() ? x.data() : work_.data();
  // y[i-1] and x[i+1] are, when present, the last L term and the
  // first U term of a row in ascending column order; carrying them in a
  // register keeps the operands and their order while sparing the
  // dependency chain a store-to-load round trip.
  double carry = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    double acc = b[src_[i]];
    const std::size_t d = diag_[i];
    std::size_t k = row_ptr_[i];
    const bool near = d > k && col_[d - 1] + 1 == i;
    for (const std::size_t end = near ? d - 1 : d; k < end; ++k) {
      acc -= val_[k] * y[col_[k]];
    }
    if (near) {
      acc -= val_[k] * carry;
    }
    y[i] = acc;
    carry = acc;
  }
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    const std::size_t d = diag_[ii];
    const std::size_t end = row_ptr_[ii + 1];
    std::size_t k = d + 1;
    if (k < end && col_[k] == ii + 1) {
      acc -= val_[k++] * carry;
    }
    for (; k < end; ++k) {
      acc -= val_[k] * x[col_[k]];
    }
    x[ii] = acc / val_[d];
    carry = x[ii];
  }
}

namespace {

/// The L\U walk of solve() for several lanes at once, y and out both in
/// x (no permutation): per row, an entry's update runs over the lanes
/// innermost. Lane r has column cx(r) of the stride-m arrays b and x and
/// slot kv(r) of the stride-w values v. Each lane's element is its own
/// accumulator, so its operands and their order are solve()'s; the lanes'
/// chains are independent and overlap. kDense: cx(r) = kv(r) = r, so the
/// lane loops are contiguous vector loops.
template <bool kDense, typename Col, typename Key>
void walk(std::size_t n, const std::size_t* row_ptr, const std::uint32_t* col,
          const std::size_t* diag, const double* v, std::size_t w,
          std::size_t lanes, Col cx, Key kv, std::size_t m, const double* b,
          double* x) {
  auto each = [lanes](auto&& f) {
    if constexpr (kDense) {
      OMX_PRAGMA_SIMD
      for (std::size_t r = 0; r < lanes; ++r) {
        f(r);
      }
    } else {
      for (std::size_t r = 0; r < lanes; ++r) {
        f(r);
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    double* xi = x + i * m;
    const double* bi = b + i * m;
    each([&](std::size_t r) { xi[cx(r)] = bi[cx(r)]; });
    for (std::size_t k = row_ptr[i]; k < diag[i]; ++k) {
      const double* xc = x + col[k] * m;
      const double* vk = v + k * w;
      each([&](std::size_t r) { xi[cx(r)] -= vk[kv(r)] * xc[cx(r)]; });
    }
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double* xi = x + ii * m;
    const std::size_t d = diag[ii];
    for (std::size_t k = d + 1; k < row_ptr[ii + 1]; ++k) {
      const double* xc = x + col[k] * m;
      const double* vk = v + k * w;
      each([&](std::size_t r) { xi[cx(r)] -= vk[kv(r)] * xc[cx(r)]; });
    }
    const double* vd = v + d * w;
    each([&](std::size_t r) { xi[cx(r)] /= vd[kv(r)]; });
  }
}

}  // namespace

bool LaneSolver::fits(const SparseLu& lu) {
  if (!lu.work_.empty()) {
    return false;  // pivoted: a row permutation
  }
  if (!pattern_) {
    pattern_ = lu.pattern_;
    row_ptr_ = lu.row_ptr_;
    col_ = lu.col_;
    diag_ = lu.diag_;
    std::fill(held_.begin(), held_.end(), 0);
    return true;
  }
  // Unpermuted factors of one pattern hold every input entry at the
  // input's place; equal counts then mean no fill on either side, so
  // both structures are the pattern's. Otherwise the fill is compared.
  return lu.pattern_ == pattern_ && lu.col_.size() == col_.size() &&
         (col_.size() == pattern_->nnz() ||
          (lu.row_ptr_ == row_ptr_ && lu.col_ == col_));
}

void LaneSolver::hold(std::size_t slot, const SparseLu& lu) {
  if (vals_.size() != col_.size() * width_) {
    vals_.resize(col_.size() * width_);
  }
  if (held_[slot] == lu.generation_) {
    return;
  }
  for (std::size_t k = 0; k < col_.size(); ++k) {
    vals_[k * width_ + slot] = lu.val_[k];
  }
  held_[slot] = lu.generation_;
}

void LaneSolver::solve(std::span<const SparseLu* const> solvers,
                       std::span<const std::size_t> slots, const double* b,
                       double* x) {
  run(solvers, slots, false, solvers.size(), b, x);
}

void LaneSolver::solve(std::span<const SparseLu* const> solvers,
                       std::span<const std::size_t> slots, std::size_t stride,
                       const double* b, double* x) {
  run(solvers, slots, true, stride, b, x);
}

void LaneSolver::run(std::span<const SparseLu* const> solvers,
                     std::span<const std::size_t> slots, bool by_slot,
                     std::size_t stride, const double* b, double* x) {
  OMX_REQUIRE(slots.size() == solvers.size(), "one slot per lane");
  const std::size_t m = solvers.size();
  if (m == 0) {
    return;
  }
  auto alone = [&](std::size_t q, std::size_t c) {
    const std::size_t n = solvers[q]->size();
    if (stride == 1) {
      solvers[q]->solve({b, n}, {x, n});
      return;
    }
    work_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      work_[i] = b[i * stride + c];
    }
    solvers[q]->solve(work_, work_);
    for (std::size_t i = 0; i < n; ++i) {
      x[i * stride + c] = work_[i];
    }
  };
  if (m == 1) {
    alone(0, by_slot ? slots[0] : 0);  // a lone lane walks nothing
    return;
  }
  const std::size_t top = *std::max_element(slots.begin(), slots.end());
  if (top >= width_) {
    // Re-stride to the wider block; every slot is copied again.
    width_ = top + 1;
    held_.assign(width_, 0);
  }
  cols_.clear();
  keys_.clear();
  std::size_t walker = 0;  // the last walking lane
  for (std::size_t q = 0; q < m; ++q) {
    const std::size_t c = by_slot ? slots[q] : q;
    if (fits(*solvers[q])) {
      hold(slots[q], *solvers[q]);
      cols_.push_back(c);
      keys_.push_back(slots[q]);
      walker = q;
    } else {
      alone(q, c);
    }
  }
  const std::size_t lanes = cols_.size();
  if (lanes <= 1) {
    if (lanes == 1) {
      alone(walker, cols_[0]);
    }
    return;
  }
  bool dense = lanes == stride;
  for (std::size_t r = 0; dense && r < lanes; ++r) {
    dense = keys_[r] == r && cols_[r] == r;
  }
  const std::size_t n = row_ptr_.size() - 1;
  if (dense) {
    const auto id = [](std::size_t r) { return r; };
    walk<true>(n, row_ptr_.data(), col_.data(), diag_.data(), vals_.data(),
               width_, lanes, id, id, stride, b, x);
  } else {
    walk<false>(n, row_ptr_.data(), col_.data(), diag_.data(), vals_.data(),
                width_, lanes, [&](std::size_t r) { return cols_[r]; },
                [&](std::size_t r) { return keys_[r]; }, stride, b, x);
  }
}

}  // namespace omx::la
