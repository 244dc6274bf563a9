// The single solver entry point.
//
// ode::solve(problem, method, options) is the only public way to run a
// solver. It runs the method's lane stepper (ode/ensemble.cpp) with one
// lane: the stepper solve_ensemble runs per worker, so a solve and an
// ensemble scenario share one implementation of each method. One
// options struct covers every method; fields a method does not use are
// ignored (dt drives only the fixed-step methods, bdf_* only the stiff
// ones, and so on).
//
// Two forms: the Solution-returning overload materializes the full
// trajectory (internally a SolutionSink), and the TrajectorySink
// overload streams accepted steps to the caller in recycled chunks
// without building a trajectory at all — see ode/sink.hpp.
#pragma once

#include "omx/ode/sink.hpp"

namespace omx::ode {

enum class Method {
  kExplicitEuler,  // fixed-step, order 1
  kRk4,            // fixed-step, order 4
  kDopri5,         // adaptive explicit RK 5(4)
  kAdamsPece,      // adaptive Adams-Bashforth-Moulton PECE, order 4
  kBdf,            // BDF + modified Newton (stiff)
  kLsodaLike,      // automatic Adams <-> BDF switching
};

constexpr const char* to_string(Method m) {
  switch (m) {
    case Method::kExplicitEuler: return "explicit_euler";
    case Method::kRk4: return "rk4";
    case Method::kDopri5: return "dopri5";
    case Method::kAdamsPece: return "adams_pece";
    case Method::kBdf: return "bdf";
    case Method::kLsodaLike: return "lsoda_like";
  }
  return "?";
}

struct SolverOptions {
  Tolerances tol{};
  /// Step size for the fixed-step methods.
  double dt = 1e-3;
  /// Initial step for the adaptive methods (0 = automatic). kLsodaLike
  /// takes it for its first step only; later segments start automatic.
  double h0 = 0.0;
  /// Step-size ceiling for the adaptive methods (0 = tend - t0, where a
  /// kLsodaLike segment starts t0 at the switch).
  double hmax = 0.0;
  std::size_t max_steps = 1000000;
  /// Record every k-th accepted step (1 = all; 0 is an error); the
  /// final state is always recorded.
  std::size_t record_every = 1;
  /// BDF order cap (kBdf ramps up to it; kLsodaLike's stiff phase too).
  int bdf_max_order = 2;
  /// Newton iteration cap per BDF step (kBdf, kLsodaLike's stiff phase).
  std::size_t newton_max_iters = 8;
  /// kBdf only: fixed-step mode without error control when > 0
  /// (convergence-order studies).
  double bdf_fixed_h = 0.0;
  /// Cooperative cancellation: when non-null, every driver polls the flag
  /// once per step attempt (and solve_ensemble once per batch round) and
  /// throws Cancelled when it reads true. The flag object must outlive
  /// the solve; the service daemon flips it on client CANCEL or
  /// disconnect to abort in-flight work.
  const std::atomic<bool>* cancel = nullptr;
};

/// Integrates `p` with the chosen method. Statistics are on the returned
/// Solution (kLsodaLike counts its Adams <-> BDF switches in
/// stats.method_switches) and in the global telemetry registry.
Solution solve(const Problem& p, Method method,
               const SolverOptions& opts = {});

/// Streaming form: accepted steps flow to `sink` (chunked, zero-copy;
/// see ode/sink.hpp) tagged with `scenario`, and no Solution is built.
/// Returns the solver statistics, which finish() also delivered.
SolverStats solve(const Problem& p, Method method, const SolverOptions& opts,
                  TrajectorySink& sink, std::uint32_t scenario = 0);

}  // namespace omx::ode
