#include "omx/ode/lane_rhs.hpp"

#include <algorithm>

#include "omx/la/norms.hpp"
#include "omx/ode/lane_block.hpp"

namespace omx::ode {

void LaneRhs::by_columns(std::size_t nb, const double* t, const double* y,
                         double* f) {
  const std::size_t n = p_->n;
  if (nb == 1) {
    p_->rhs(t[0], {y, n}, {f, n});
    return;
  }
  ya_.resize(n);
  fa_.resize(n);
  for (std::size_t j = 0; j < nb; ++j) {
    gather(y, nb, j, ya_);
    p_->rhs(t[j], ya_, fa_);
    scatter(fa_, f, nb, j);
  }
}

double rk4_substeps(LaneRhs& f, double t, double h, int sub,
                    std::span<double> y, std::vector<double>& k,
                    SolverStats& stats) {
  const std::size_t n = y.size();
  k.resize(5 * n);
  const std::span<double> k1{k.data(), n}, k2{k.data() + n, n},
      k3{k.data() + 2 * n, n}, k4{k.data() + 3 * n, n},
      tmp{k.data() + 4 * n, n};
  const double hs = h / sub;
  for (int s = 0; s < sub; ++s) {
    f(t, y, k1);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * hs * k1[i];
    f(t + 0.5 * hs, tmp, k2);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + 0.5 * hs * k2[i];
    f(t + 0.5 * hs, tmp, k3);
    for (std::size_t i = 0; i < n; ++i) tmp[i] = y[i] + hs * k3[i];
    f(t + hs, tmp, k4);
    stats.rhs_calls += 4;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += hs / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    t += hs;
  }
  return t;
}

double initial_step(std::span<const double> y, std::span<const double> f,
                    const Tolerances& tol, double span, double hmax,
                    std::span<double> w) {
  error_weights(y, tol, w);
  const double d0 = la::wrms_norm(y, w);
  const double d1 = la::wrms_norm(f, w);
  const double h =
      (d0 > 1e-5 && d1 > 1e-5) ? 0.01 * d0 / d1 : 1e-3 * span;
  return std::min(h, hmax);
}

}  // namespace omx::ode
