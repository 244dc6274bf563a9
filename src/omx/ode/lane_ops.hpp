// Lane ops: the explicit steppers' SoA arithmetic (ode/ensemble.cpp) as
// raw-pointer functions over an n x nb lane block, element i of the lane
// in slot j at [i * nb + j]. Per-lane scalars (step sizes h, sums acc)
// are slot-indexed. Each op is built for baseline x86-64, AVX and
// AVX-512F, and the build for simd::lane_width() is picked once, so the
// lane loops run at host width. Every element keeps the operation order
// written below, and the library builds with -ffp-contract=off, so every
// build gives the same bits. Internal to the ode library.
#pragma once

#include <cstddef>

namespace omx::ode::lane_ops {

/// Most terms a stage_sum takes (DOPRI5's last stage input has five).
inline constexpr std::size_t kMaxStageTerms = 5;

/// out = y + (h[j] a[0]) k[0] + ... + (h[j] a[m-1]) k[m-1], summed left
/// to right, for 1 <= m <= kMaxStageTerms: a stage input in one pass.
/// out may be y.
void stage_sum(std::size_t n, std::size_t nb, double* out, const double* y,
               const double* h, const double* a, const double* const* k,
               std::size_t m);

/// out = y + h[j] * (b[0] k[0] + b[1] k[1] + ... + b[4] k[4]), summed left
/// to right: DOPRI5's 5th-order solution.
void combine5(std::size_t n, std::size_t nb, double* out, const double* y,
              const double* h, const double* b, const double* const* k);

/// y += c[j] * (k1 + 2 k2 + 2 k3 + k4), summed left to right: RK4's
/// update.
void rk4_update(std::size_t n, std::size_t nb, double* y, const double* c,
                const double* k1, const double* k2, const double* k3,
                const double* k4);

/// acc[j] += q * q over i in order, q = yerr / (atol + rtol |y|) and
/// yerr = h[j] * (e[0] k[0] + ... + e[5] k[5]) summed left to right:
/// DOPRI5's error norm before the mean and the root.
void error_sumsq(std::size_t n, std::size_t nb, double* acc, const double* y,
                 const double* h, const double* e, const double* const* k,
                 double atol, double rtol);

}  // namespace omx::ode::lane_ops
