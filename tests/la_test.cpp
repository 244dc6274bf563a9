#include <gtest/gtest.h>

#include <cmath>

#include "dense_oracle.hpp"
#include "omx/la/norms.hpp"
#include "omx/support/diagnostics.hpp"
#include "omx/support/rng.hpp"

namespace omx::la {
namespace {

using oracle::LuFactors;
using oracle::Matrix;

/// The n x n identity.
Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    m(i, i) = 1.0;
  }
  return m;
}

TEST(Matrix, IdentityAndIndexing) {
  Matrix m = identity(3);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  m(1, 2) = 5.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 5.0);
  EXPECT_DOUBLE_EQ(m.data()[1 * 3 + 2], 5.0);  // row-major
}

TEST(VectorOps, NormsAndDot) {
  const std::vector<double> a{3.0, -4.0};
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(VectorOps, WrmsNorm) {
  const std::vector<double> v{2.0, -2.0};
  const std::vector<double> w{1.0, 2.0};
  EXPECT_DOUBLE_EQ(wrms_norm(v, w), std::sqrt((4.0 + 1.0) / 2.0));
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  LuFactors lu(a);
  const std::vector<double> b{5.0, 10.0};
  std::vector<double> x(2);
  lu.solve(b, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  Matrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  LuFactors lu(a);
  const std::vector<double> b{2.0, 7.0};
  std::vector<double> x(2);
  lu.solve(b, x);
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(LuFactors{a}, omx::Error);
}

TEST(Lu, SolveAllowsAliasing) {
  Matrix a = identity(3);
  a(0, 2) = 1.0;
  LuFactors lu(a);
  std::vector<double> b{4.0, 5.0, 6.0};
  lu.solve(b, b);
  EXPECT_NEAR(b[0], -2.0, 1e-12);
  EXPECT_NEAR(b[1], 5.0, 1e-12);
  EXPECT_NEAR(b[2], 6.0, 1e-12);
}

class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, RandomSystemsRoundTrip) {
  omx::SplitMix64 rng(123 + static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 1 + rng.below(12);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
    }
    a(i, i) += 4.0;  // diagonally dominant: comfortably nonsingular
  }
  std::vector<double> x_true(n);
  for (double& v : x_true) {
    v = rng.uniform(-10.0, 10.0);
  }
  std::vector<double> b(n, 0.0), x(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      b[i] += a(i, j) * x_true[j];
    }
  }
  LuFactors lu(a);
  lu.solve(b, x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-9 * std::max(1.0, std::fabs(x_true[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace omx::la
