// Accuracy and special-value tests for the branch-free vector-math
// runtime the native backend links into every compiled kernel
// (exec/vmath_functions.h) and the selects every kernel carries inline
// (exec/vmath_select.h). The same headers are compiled here directly,
// so these bounds hold for the exact code the JIT'd kernels run.
//
// The solver-facing accuracy contract is the cross-backend 1e-12
// relative bar (exec_backend_test): vmath vs libm must stay well under
// it on solver-typical ranges. Observed worst case is ~1e-15 relative;
// the bounds below leave an order of magnitude of slack.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "omx/exec/vmath_functions.h"
#include "omx/exec/vmath_select.h"

namespace {

constexpr double kRelTol = 1e-13;

void expect_close(double got, double want, double x) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << "x = " << x;
    return;
  }
  if (std::isinf(want)) {
    EXPECT_EQ(got, want) << "x = " << x;
    return;
  }
  const double scale = std::fmax(std::fabs(want), 1e-300);
  EXPECT_LE(std::fabs(got - want), kRelTol * scale)
      << "x = " << x << " got " << got << " want " << want;
}

/// Log-spaced magnitudes covering the solver-typical range plus a wide
/// margin, both signs, plus denormal-boundary and near-one points.
template <typename F>
void sweep(F&& check, double lo_exp, double hi_exp) {
  for (double e = lo_exp; e <= hi_exp; e += 0.17) {
    const double m = std::pow(10.0, e);
    check(m);
    check(-m);
    check(m * (1.0 + 1e-9));
  }
  for (double x : {0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1.0 - 1e-15,
                   1.0 + 1e-15, 0.70710678118654752, 0.70710678118654757}) {
    check(x);
  }
}

TEST(Vmath, ExpMatchesLibm) {
  sweep([](double x) { expect_close(omx_exp(x), std::exp(x), x); }, -3.0,
        2.84);  // |x| up to ~700
  EXPECT_EQ(omx_exp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(omx_exp(-745.0), 0.0);  // flushes past the subnormal tail
  EXPECT_EQ(omx_exp(0.0), 1.0);
  EXPECT_TRUE(std::isnan(omx_exp(std::nan(""))));
}

TEST(Vmath, LogMatchesLibm) {
  sweep(
      [](double x) {
        if (x > 0.0) {
          expect_close(omx_log(x), std::log(x), x);
        }
      },
      -300.0, 300.0);
  EXPECT_EQ(omx_log(0.0), -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(omx_log(-1.0)));
  EXPECT_EQ(omx_log(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(omx_log(std::nan(""))));
  // Subnormals hit the 2^54 renormalization path.
  expect_close(omx_log(1e-310), std::log(1e-310), 1e-310);
  EXPECT_EQ(omx_log(1.0), 0.0);
}

TEST(Vmath, SinCosMatchLibm) {
  // The two-term Cody-Waite head product n*pio2_1 is exact only while
  // |n| < 2^20 (|x| below ~1.6e6); past that the reduction error grows
  // as |x|*2^-53. Solver angles live many orders of magnitude below.
  sweep(
      [](double x) {
        if (std::fabs(x) < 1.0e6) {
          expect_close(omx_sin(x), std::sin(x), x);
          expect_close(omx_cos(x), std::cos(x), x);
        }
      },
      -6.0, 9.0);
  for (int q = -8; q <= 8; ++q) {  // quadrant boundaries
    const double x = q * 0.78539816339744831;
    // At multiples of pi/2 one of the pair is a ~1e-16 residual whose
    // exact value is reduction round-off — relative comparison is
    // ill-conditioned there, so fall back to an absolute bound.
    for (bool cos_branch : {false, true}) {
      const double want = cos_branch ? std::cos(x) : std::sin(x);
      const double got = cos_branch ? omx_cos(x) : omx_sin(x);
      if (std::fabs(want) > 1e-10) {
        expect_close(got, want, x);
      } else {
        EXPECT_NEAR(got, want, 1e-15) << "x = " << x;
      }
    }
  }
  EXPECT_EQ(omx_sin(0.0), 0.0);
  EXPECT_TRUE(std::isnan(omx_sin(std::numeric_limits<double>::infinity())));
  EXPECT_TRUE(std::isnan(omx_cos(std::nan(""))));
}

TEST(Vmath, TanhMatchesLibm) {
  sweep(
      [](double x) {
        const double want = std::tanh(x);
        const double got = omx_tanh(x);
        // The 1 - 2/(e^{2x}+1) form cancels around 1.0, leaving ~2^-52
        // *absolute* error; that only stays under 1e-13 relative once
        // |tanh x| clears ~2e-3, so test relative above 1e-2 and
        // absolute below.
        if (std::fabs(x) >= 1e-2) {
          expect_close(got, want, x);
        } else {
          EXPECT_LE(std::fabs(got - want), 3e-16) << "x = " << x;
        }
      },
      -6.0, 3.0);
  EXPECT_EQ(omx_tanh(1000.0), 1.0);
  EXPECT_EQ(omx_tanh(-1000.0), -1.0);
}

TEST(Vmath, HypotMatchesLibm) {
  const double xs[] = {0.0, 1e-300, 3e-5, 0.5, 1.0, 3.0, 4.0, 1e155, 1e300};
  for (double a : xs) {
    for (double b : xs) {
      const double want = std::hypot(a, b);
      const double got = omx_hypot(a, b);
      if (std::isinf(want)) {
        EXPECT_EQ(got, want);
      } else {
        const double scale = std::fmax(std::fabs(want), 1e-300);
        EXPECT_LE(std::fabs(got - want), 1e-12 * scale)
            << "hypot(" << a << ", " << b << ")";
      }
    }
  }
  EXPECT_EQ(omx_hypot(std::numeric_limits<double>::infinity(), 1.0),
            std::numeric_limits<double>::infinity());
}

TEST(Vmath, PowMatchesLibm) {
  const double bases[] = {1e-8, 0.3, 1.0, 1.5, 2.0, 7.0, 123.456, 1e8};
  const double exps[] = {-3.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.5, 10.0};
  for (double a : bases) {
    for (double b : exps) {
      const double want = std::pow(a, b);
      const double got = omx_pow(a, b);
      // exp(b log a) amplifies: |b ln a| * 2^-52 relative.
      const double rel =
          1e-13 * std::fmax(1.0, std::fabs(b * std::log(a)));
      const double scale = std::fmax(std::fabs(want), 1e-300);
      EXPECT_LE(std::fabs(got - want), rel * scale)
          << "pow(" << a << ", " << b << ")";
    }
  }
  // Sign/special handling. Results go through exp(b log|a|), so integer
  // cases land within a few ulp of the exact value, not on it.
  EXPECT_NEAR(omx_pow(-2.0, 3.0), -8.0, 8.0 * 1e-13);
  EXPECT_NEAR(omx_pow(-2.0, 2.0), 4.0, 4.0 * 1e-13);
  EXPECT_TRUE(std::isnan(omx_pow(-2.0, 0.5)));
  EXPECT_EQ(omx_pow(5.0, 0.0), 1.0);
  EXPECT_EQ(omx_pow(1.0, 1e9), 1.0);
}

TEST(Vmath, FmaxFminMatchLibmOnOrderedInputs) {
  const double xs[] = {-3.0, -0.5, 0.0, 0.25, 1.0, 1e300};
  for (double a : xs) {
    for (double b : xs) {
      EXPECT_EQ(omx_fmax(a, b), std::fmax(a, b))
          << "fmax(" << a << ", " << b << ")";
      EXPECT_EQ(omx_fmin(a, b), std::fmin(a, b))
          << "fmin(" << a << ", " << b << ")";
    }
  }
  // libm NaN rule: a NaN operand yields the other operand.
  const double qnan = std::nan("");
  EXPECT_EQ(omx_fmax(qnan, 2.0), 2.0);
  EXPECT_EQ(omx_fmax(2.0, qnan), 2.0);
  EXPECT_EQ(omx_fmin(qnan, 2.0), 2.0);
  EXPECT_EQ(omx_fmin(2.0, qnan), 2.0);
  EXPECT_TRUE(std::isnan(omx_fmax(qnan, qnan)));
}

TEST(Vmath, BitwiseReproducible) {
  // The same input must give the same bits call to call (the ensemble
  // determinism contract leans on this); spot-check a few evaluations.
  for (double x : {0.123, 4.567, -89.0, 1e-7}) {
    const auto bits = [](double d) {
      std::uint64_t u;
      std::memcpy(&u, &d, sizeof(u));
      return u;
    };
    EXPECT_EQ(bits(omx_sin(x)), bits(omx_sin(x)));
    EXPECT_EQ(bits(omx_exp(x)), bits(omx_exp(x)));
    EXPECT_EQ(bits(omx_log(std::fabs(x))), bits(omx_log(std::fabs(x))));
  }
}

}  // namespace
