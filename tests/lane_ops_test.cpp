// The lane ops (ode/lane_ops.hpp) run in the running host's ISA build.
// Each is pinned bitwise against a plain scalar loop written here, built
// without floating-point contraction, at widths 1-17 over an odd number
// of rows, with the rows both 64-byte aligned and not. A build that
// fused a multiply-add, or reordered a sum, fails these.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "omx/ode/lane_ops.hpp"
#include "omx/support/simd.hpp"

namespace omx::ode {
namespace {

constexpr std::size_t kRows = 7;  // odd: no width divides the block evenly

/// One n x nb SoA array of seeded values spread over several binades,
/// starting on a 64-byte boundary or one double past it.
class Array {
 public:
  Array(std::size_t size, bool aligned, std::uint64_t seed)
      : off_(aligned ? 0 : 1), v_(size + 1) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> mant(-1.0, 1.0);
    std::uniform_int_distribution<int> exp(-4, 4);
    for (double& x : v_) {
      x = std::ldexp(mant(rng), exp(rng));
    }
  }
  double* data() { return v_.data() + off_; }
  const double* data() const { return v_.data() + off_; }
  std::vector<double> copy(std::size_t size) const {
    return {data(), data() + size};
  }

 private:
  std::size_t off_;
  simd::aligned_vector<double> v_;
};

void expect_bitwise(const double* got, const std::vector<double>& want,
                    const std::string& what) {
  for (std::size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[e]),
              std::bit_cast<std::uint64_t>(want[e]))
        << what << " element " << e << ": " << got[e] << " vs " << want[e];
  }
}

/// Calls f(nb, aligned, label) for widths 1-17, aligned and not.
template <typename F>
void for_shapes(F f) {
  for (std::size_t nb = 1; nb <= 17; ++nb) {
    for (const bool aligned : {true, false}) {
      f(nb, aligned,
        "nb=" + std::to_string(nb) + (aligned ? " aligned" : " unaligned"));
    }
  }
}

constexpr double kB[5] = {35.0 / 384, 500.0 / 1113, 125.0 / 192,
                          -2187.0 / 6784, 11.0 / 84};
constexpr double kE[6] = {71.0 / 57600, -71.0 / 16695, 71.0 / 1920,
                          -17253.0 / 339200, 22.0 / 525, -1.0 / 40};

TEST(LaneOps, StageSumMatchesScalarBitwise) {
  // DOPRI5's row 5 of a: terms of mixed sign and size.
  const double a[5] = {9017.0 / 3168, -355.0 / 33, 46732.0 / 5247,
                       49.0 / 176, -5103.0 / 18656};
  for (std::size_t terms = 1; terms <= lane_ops::kMaxStageTerms; ++terms) {
    for_shapes([&](std::size_t nb, bool aligned, const std::string& shape) {
      const std::string what = std::to_string(terms) + " terms, " + shape;
      const std::size_t m = kRows * nb;
      Array out(m, aligned, 1), y(m, aligned, 2), h(nb, aligned, 3);
      std::vector<Array> ks;
      for (std::uint64_t r = 0; r < terms; ++r) {
        ks.emplace_back(m, aligned, 4 + r);
      }
      std::vector<const double*> k;
      for (const Array& kr : ks) {
        k.push_back(kr.data());
      }
      // One pass per term, each rounded to a double in between.
      std::vector<double> want = y.copy(m);
      for (std::size_t r = 0; r < terms; ++r) {
        for (std::size_t i = 0; i < kRows; ++i) {
          for (std::size_t j = 0; j < nb; ++j) {
            const std::size_t e = i * nb + j;
            want[e] += (h.data()[j] * a[r]) * k[r][e];
          }
        }
      }
      lane_ops::stage_sum(kRows, nb, out.data(), y.data(), h.data(), a,
                          k.data(), terms);
      expect_bitwise(out.data(), want, what);
      // In place (out == y), as explicit Euler's update runs it.
      lane_ops::stage_sum(kRows, nb, y.data(), y.data(), h.data(), a,
                          k.data(), terms);
      expect_bitwise(y.data(), want, what + ", in place");
    });
  }
}

TEST(LaneOps, Combine5MatchesScalarBitwise) {
  for_shapes([](std::size_t nb, bool aligned, const std::string& what) {
    const std::size_t m = kRows * nb;
    Array out(m, aligned, 8), y(m, aligned, 9), h(nb, aligned, 10);
    std::vector<Array> ks;
    for (std::uint64_t s = 0; s < 5; ++s) {
      ks.emplace_back(m, aligned, 11 + s);
    }
    const double* k[5] = {ks[0].data(), ks[1].data(), ks[2].data(),
                          ks[3].data(), ks[4].data()};
    std::vector<double> want(m);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < nb; ++j) {
        const std::size_t e = i * nb + j;
        want[e] = y.data()[e] +
                  h.data()[j] * (kB[0] * k[0][e] + kB[1] * k[1][e] +
                                 kB[2] * k[2][e] + kB[3] * k[3][e] +
                                 kB[4] * k[4][e]);
      }
    }
    lane_ops::combine5(kRows, nb, out.data(), y.data(), h.data(), kB, k);
    expect_bitwise(out.data(), want, what);
  });
}

TEST(LaneOps, Rk4UpdateMatchesScalarBitwise) {
  for_shapes([](std::size_t nb, bool aligned, const std::string& what) {
    const std::size_t m = kRows * nb;
    Array y(m, aligned, 16), c(nb, aligned, 17), k1(m, aligned, 18),
        k2(m, aligned, 19), k3(m, aligned, 20), k4(m, aligned, 21);
    std::vector<double> want = y.copy(m);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < nb; ++j) {
        const std::size_t e = i * nb + j;
        want[e] += c.data()[j] * (k1.data()[e] + 2.0 * k2.data()[e] +
                                  2.0 * k3.data()[e] + k4.data()[e]);
      }
    }
    lane_ops::rk4_update(kRows, nb, y.data(), c.data(), k1.data(),
                         k2.data(), k3.data(), k4.data());
    expect_bitwise(y.data(), want, what);
  });
}

TEST(LaneOps, ErrorSumsqMatchesScalarBitwise) {
  for_shapes([](std::size_t nb, bool aligned, const std::string& what) {
    const std::size_t m = kRows * nb;
    Array y(m, aligned, 22), h(nb, aligned, 23), acc(nb, aligned, 24);
    std::vector<Array> ks;
    for (std::uint64_t s = 0; s < 6; ++s) {
      ks.emplace_back(m, aligned, 25 + s);
    }
    const double* k[6] = {ks[0].data(), ks[1].data(), ks[2].data(),
                          ks[3].data(), ks[4].data(), ks[5].data()};
    const double atol = 1e-6, rtol = 1e-3;
    std::vector<double> want = acc.copy(nb);
    for (std::size_t i = 0; i < kRows; ++i) {
      for (std::size_t j = 0; j < nb; ++j) {
        const std::size_t e = i * nb + j;
        const double yerr =
            h.data()[j] * (kE[0] * k[0][e] + kE[1] * k[1][e] +
                           kE[2] * k[2][e] + kE[3] * k[3][e] +
                           kE[4] * k[4][e] + kE[5] * k[5][e]);
        const double q = yerr / (atol + rtol * std::fabs(y.data()[e]));
        want[j] += q * q;
      }
    }
    lane_ops::error_sumsq(kRows, nb, acc.data(), y.data(), h.data(), kE, k,
                          atol, rtol);
    expect_bitwise(acc.data(), want, what);
  });
}

}  // namespace
}  // namespace omx::ode
