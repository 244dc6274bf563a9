// Vector norms the solvers' step-size and error control use.
#pragma once

#include <span>

namespace omx::la {

/// Euclidean norm.
double norm2(std::span<const double> a);
/// Weighted RMS norm used for ODE error control: sqrt(mean((v_i / w_i)^2)).
double wrms_norm(std::span<const double> v, std::span<const double> w);

}  // namespace omx::la
