#include "omx/ode/lane_ops.hpp"

#include <cmath>
#include <utility>

#include "omx/ode/lane_block.hpp"
#include "omx/support/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OMX_LANE_OPS_X86 1
#endif

namespace omx::ode::lane_ops {

namespace {

// The bodies: for_lanes over one lambda, all inlined into each per-ISA
// build below (flatten), so the lane loop is vectorized at that build's
// width.

/// stage_sum with m = sizeof...(R) terms, unrolled: the running sum stays
/// in a register, with the same roundings as a pass per term.
template <std::size_t... R>
inline void stage_sum_terms(
    std::size_t n, std::size_t nb, double* out, const double* y,
    const double* h, const double* a, const double* const* k,
    std::index_sequence<R...>) {
  const double ar[] = {a[R]...};
  const double* kr[] = {k[R]...};
  for_lanes(n, nb, [&](std::size_t e, std::size_t j) {
    double sum = y[e];
    ((sum += (h[j] * ar[R]) * kr[R][e]), ...);
    out[e] = sum;
  });
}

inline void stage_sum_body(
    std::size_t n, std::size_t nb, double* out, const double* y,
    const double* h, const double* a, const double* const* k,
    std::size_t m) {
  static_assert(kMaxStageTerms == 5);
  switch (m) {
    case 1:
      return stage_sum_terms(n, nb, out, y, h, a, k,
                             std::make_index_sequence<1>{});
    case 2:
      return stage_sum_terms(n, nb, out, y, h, a, k,
                             std::make_index_sequence<2>{});
    case 3:
      return stage_sum_terms(n, nb, out, y, h, a, k,
                             std::make_index_sequence<3>{});
    case 4:
      return stage_sum_terms(n, nb, out, y, h, a, k,
                             std::make_index_sequence<4>{});
    default:
      return stage_sum_terms(n, nb, out, y, h, a, k,
                             std::make_index_sequence<5>{});
  }
}

inline void combine5_body(
    std::size_t n, std::size_t nb, double* out, const double* y,
    const double* h, const double* b, const double* const* k) {
  const double b0 = b[0], b1 = b[1], b2 = b[2], b3 = b[3], b4 = b[4];
  const double *k0 = k[0], *k1 = k[1], *k2 = k[2], *k3 = k[3], *k4 = k[4];
  for_lanes(n, nb, [&](std::size_t e, std::size_t j) {
    out[e] = y[e] + h[j] * (b0 * k0[e] + b1 * k1[e] + b2 * k2[e] +
                            b3 * k3[e] + b4 * k4[e]);
  });
}

inline void rk4_update_body(
    std::size_t n, std::size_t nb, double* y, const double* c,
    const double* k1, const double* k2, const double* k3, const double* k4) {
  for_lanes(n, nb, [&](std::size_t e, std::size_t j) {
    y[e] += c[j] * (k1[e] + 2.0 * k2[e] + 2.0 * k3[e] + k4[e]);
  });
}

inline void error_sumsq_body(
    std::size_t n, std::size_t nb, double* acc, const double* y,
    const double* h, const double* e, const double* const* k, double atol,
    double rtol) {
  const double e0 = e[0], e1 = e[1], e2 = e[2], e3 = e[3], e4 = e[4],
               e5 = e[5];
  const double *k0 = k[0], *k1 = k[1], *k2 = k[2], *k3 = k[3], *k4 = k[4],
               *k5 = k[5];
  // Vectorized over the lanes only: each lane's sum runs along i.
  for_lanes(n, nb, [&](std::size_t x, std::size_t j) {
    const double yerr = h[j] * (e0 * k0[x] + e1 * k1[x] + e2 * k2[x] +
                                e3 * k3[x] + e4 * k4[x] + e5 * k5[x]);
    const double q = yerr / (atol + rtol * std::fabs(y[x]));
    acc[j] += q * q;
  });
}

/// The four ops of one ISA.
struct Ops {
  decltype(&stage_sum_body) stage_sum;
  decltype(&combine5_body) combine5;
  decltype(&rk4_update_body) rk4_update;
  decltype(&error_sumsq_body) error_sumsq;
};

/// One ISA's build of a body: run<Body> is compiled for the ISA, with
/// Body and everything it calls inlined into it (an out-of-line callee
/// would be built for the baseline ISA).
struct Baseline {
  template <auto Body, typename... A>
  [[gnu::flatten]] static void run(A... a) {
    Body(a...);
  }
};

#ifdef OMX_LANE_OPS_X86
struct Avx {
  template <auto Body, typename... A>
  [[gnu::target("avx"), gnu::flatten]] static void run(A... a) {
    Body(a...);
  }
};

struct Avx512f {
  template <auto Body, typename... A>
  [[gnu::target("avx512f"), gnu::flatten]] static void run(A... a) {
    Body(a...);
  }
};
#endif

template <typename Isa>
Ops ops_for() {
  return {Isa::template run<stage_sum_body>, Isa::template run<combine5_body>,
          Isa::template run<rk4_update_body>,
          Isa::template run<error_sumsq_body>};
}

/// The running host's build, picked once by simd::lane_width(). A
/// function-pointer table rather than ifunc `target_clones`: an ifunc
/// resolver runs before the ThreadSanitizer runtime is up, and crashes it.
const Ops& ops() {
  static const Ops picked = [] {
#ifdef OMX_LANE_OPS_X86
    switch (simd::lane_width()) {
      case 8:
        return ops_for<Avx512f>();
      case 4:
        return ops_for<Avx>();
      default:
        break;
    }
#endif
    return ops_for<Baseline>();
  }();
  return picked;
}

}  // namespace

void stage_sum(std::size_t n, std::size_t nb, double* out, const double* y,
               const double* h, const double* a, const double* const* k,
               std::size_t m) {
  ops().stage_sum(n, nb, out, y, h, a, k, m);
}

void combine5(std::size_t n, std::size_t nb, double* out, const double* y,
              const double* h, const double* b, const double* const* k) {
  ops().combine5(n, nb, out, y, h, b, k);
}

void rk4_update(std::size_t n, std::size_t nb, double* y, const double* c,
                const double* k1, const double* k2, const double* k3,
                const double* k4) {
  ops().rk4_update(n, nb, y, c, k1, k2, k3, k4);
}

void error_sumsq(std::size_t n, std::size_t nb, double* acc, const double* y,
                 const double* h, const double* e, const double* const* k,
                 double atol, double rtol) {
  ops().error_sumsq(n, nb, acc, y, h, e, k, atol, rtol);
}

}  // namespace omx::ode::lane_ops
