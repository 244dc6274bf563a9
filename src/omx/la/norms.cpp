#include "omx/la/norms.hpp"

#include <cmath>

#include "omx/support/diagnostics.hpp"

namespace omx::la {

double norm2(std::span<const double> a) {
  double acc = 0.0;
  for (double v : a) {
    acc += v * v;
  }
  return std::sqrt(acc);
}

double wrms_norm(std::span<const double> v, std::span<const double> w) {
  OMX_REQUIRE(v.size() == w.size() && !v.empty(), "size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double q = v[i] / w[i];
    acc += q * q;
  }
  return std::sqrt(acc / static_cast<double>(v.size()));
}

}  // namespace omx::la
