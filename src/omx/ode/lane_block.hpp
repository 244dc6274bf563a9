// Lane blocks: the SoA layout the lane steppers keep their lanes' state
// in (ode/ensemble.cpp) and the BDF lanes their Newton state and history
// in (ode/bdf.cpp). Internal to the ode library.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "omx/support/simd.hpp"

namespace omx::ode {

/// Lane j's column of a stride-nb SoA array, gathered into / scattered
/// from a contiguous vector. Only the paths that need one lane's state as
/// a span use these: records, armed events, dense output and width-1
/// evaluations.
inline void gather(const double* soa, std::size_t nb, std::size_t j,
                   std::span<double> v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = soa[i * nb + j];
  }
}

inline void scatter(std::span<const double> v, double* soa, std::size_t nb,
                    std::size_t j) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    soa[i * nb + j] = v[i];
  }
}

/// f(e, j) for every element e = i * nb + j of an n x nb lane block, the
/// lane loop innermost, so a lane loop vectorizes over the lanes with
/// each element's operations unchanged. A width-1 block (ode::solve) is
/// a plain vector walked by a plain loop: a forced vector loop's set-up
/// costs more than it saves on the small systems single solves run.
/// The explicit steppers' arithmetic goes through the lane ops
/// (ode/lane_ops.cpp), whose per-ISA builds inline this walk at host
/// width; called elsewhere (BDF's lane walks below), it runs at the
/// library's baseline ISA.
template <typename F>
void for_lanes(std::size_t n, std::size_t nb, F&& f) {
  if (nb == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      f(i, std::size_t{0});
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = i * nb;
    OMX_PRAGMA_SIMD
    for (std::size_t j = 0; j < nb; ++j) {
      f(row + j, j);
    }
  }
}

/// for_lanes over the slots `lanes` (ascending) of an n x nb block only:
/// a contiguous vector loop when they are every slot, else an indexed
/// one, still lane-inner.
template <typename F>
void for_lanes(std::size_t n, std::size_t nb,
               std::span<const std::size_t> lanes, F&& f) {
  if (lanes.size() == nb) {
    for_lanes(n, nb, f);
    return;
  }
  if (lanes.empty()) {
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = i * nb;
    for (const std::size_t j : lanes) {
      f(row + j, j);
    }
  }
}

/// A worker's lanes in SoA: `arrays` arrays of n x width() doubles, the
/// element i of the lane in slot j at [i * width() + j]. That is the
/// batched kernel's layout at call width width(), so a stage hands the
/// block straight to batch_rhs. The first `kept` arrays carry a lane's
/// state from one round to the next and move with it when the block is
/// re-strided; the others are scratch within a round. Storage grows with
/// the widest block and never shrinks.
class LaneBlock {
 public:
  LaneBlock(std::size_t n, std::size_t arrays, std::size_t kept)
      : n_(n), kept_(kept), a_(arrays) {}

  std::size_t width() const { return w_; }
  double* operator[](std::size_t a) { return a_[a].data(); }
  const double* operator[](std::size_t a) const { return a_[a].data(); }
  void swap(std::size_t a, std::size_t b) { a_[a].swap(a_[b]); }

  /// Adds k empty slots at the end: one resize and one pass over the
  /// kept arrays, whatever k.
  void grow(std::size_t k) {
    const std::size_t w = w_ + k;
    if (a_[0].size() < n_ * w) {
      for (simd::aligned_vector<double>& v : a_) {
        v.resize(n_ * w);
      }
    }
    for (std::size_t a = 0; a < kept_; ++a) {
      // Every element moves up (or stays), so walk down.
      double* v = a_[a].data();
      for (std::size_t i = n_; i-- > 0;) {
        for (std::size_t j = w_; j-- > 0;) {
          v[i * w + j] = v[i * w_ + j];
        }
      }
    }
    w_ = w;
  }

  /// Widens the block to hold `slot`, at least doubling it: a batch that
  /// fills one lane at a time then re-strides O(log w) times, not once
  /// per lane. The slots no lane takes stay until trim() or restride().
  void widen(std::size_t slot) {
    if (slot >= w_) {
      grow(std::max(slot + 1, 2 * w_) - w_);
    }
  }

  /// Re-strides to keep.size() slots: new slot j takes the lane of old
  /// slot keep[j] (keep ascending).
  void restride(std::span<const std::size_t> keep) {
    move_down(keep.size(), [&](std::size_t j) { return keep[j]; });
  }

  /// Drops the slots from `w` on, which hold no lane.
  void trim(std::size_t w) {
    move_down(w, [](std::size_t j) { return j; });
  }

 private:
  /// Re-strides to w slots, new slot j taking old slot from(j) (from
  /// ascending, from(j) >= j).
  template <typename From>
  void move_down(std::size_t w, From from) {
    for (std::size_t a = 0; a < kept_; ++a) {
      // Every element moves down (or stays), so walk up.
      double* v = a_[a].data();
      for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = 0; j < w; ++j) {
          v[i * w + j] = v[i * w_ + from(j)];
        }
      }
    }
    w_ = w;
  }

  std::size_t n_, kept_, w_ = 0;
  std::vector<simd::aligned_vector<double>> a_;
};

}  // namespace omx::ode
