// First-class event handling for the solver suite: zero-crossing guard
// functions with direction filters, reset actions applied at the
// localized crossing, and the dense-output machinery the localization
// needs (the hybrid-model extension of §2.4's smooth IVP).
//
// Detection is sign-change based per accepted step: the handler caches
// every guard's value at the last committed point (initial state or the
// post-reset state of the previous event) and compares against the new
// accepted point. A detected crossing is localized by bisection on a
// DenseOutput interpolant of the step — the DOPRI5 4th-order continuous
// extension for dopri5, Lagrange evaluation of the uniform
// BDF history for the stiff path, and cubic Hermite with endpoint
// derivatives elsewhere — so the event time is accurate to the
// interpolant, not to the step size. A guard sitting exactly on zero
// after a reset does not re-fire until its sign leaves zero, which is
// what makes bouncing-ball style resets (y = 0, v := -e v) terminate
// each step instead of firing forever.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "omx/obs/trace.hpp"
#include "omx/ode/sink.hpp"

namespace omx::ode {

enum class EventDirection {
  kBoth,     // fire on any sign change
  kRising,   // fire only on - -> + crossings
  kFalling,  // fire only on + -> - crossings
};

/// One zero-crossing event: g(t, y) crosses zero in the filtered
/// direction. The optional reset mutates the state in place at the
/// localized event time; a terminal event stops the integration there.
struct EventFunction {
  std::function<double(double t, std::span<const double> y)> guard;
  EventDirection direction = EventDirection::kBoth;
  /// Optional state reset applied at the event time (y holds the
  /// interpolated pre-event state on entry).
  std::function<void(double t, std::span<double> y)> reset;
  bool terminal = false;
  std::string name;
};

/// The event configuration a Problem carries (Problem::events). Shared
/// by value across ensemble lanes and kLsodaLike segments.
struct EventSpec {
  std::vector<EventFunction> functions;
  /// Localization window: bisection stops when the bracketing interval
  /// shrinks below time_tol * max(1, |t|).
  double time_tol = 1e-10;
  std::size_t max_bisections = 80;
  /// Zeno guard: a solve firing more events than this throws, instead of
  /// silently looping on an accumulation point.
  std::size_t max_events = 10000;
};

/// Continuous extension of one accepted step, evaluable anywhere inside
/// it. Public because event localization is exactly the consumer the
/// interpolant was built for; tests pin the dopri5 form at 4th order.
class DenseOutput {
 public:
  /// DOPRI5 4th-order continuous extension from the step's stages
  /// (Hairer/Norsett/Wanner II.5, the rcont1..rcont5 form).
  static DenseOutput dopri5(double t0, double h, std::span<const double> y0,
                            std::span<const double> y1,
                            std::span<const double> k1,
                            std::span<const double> k3,
                            std::span<const double> k4,
                            std::span<const double> k5,
                            std::span<const double> k6,
                            std::span<const double> k7);

  /// Cubic Hermite over [t0, t1] from endpoint states and derivatives
  /// (3rd-order accurate; what the fixed-step and Adams drivers use).
  static DenseOutput hermite(double t0, std::span<const double> y0,
                             std::span<const double> f0, double t1,
                             std::span<const double> y1,
                             std::span<const double> f1);

  /// Lagrange evaluation of a uniform multistep history: `points` nodes
  /// at t_new, t_new - node_h, ... (newest first) — the BDF history
  /// interpolant.
  static DenseOutput lagrange(
      double t_new, double node_h,
      const std::vector<std::vector<double>>& history, std::size_t points);

  /// Interpolated state at `t` (inside the covered step).
  void eval(double t, std::span<double> out) const;

  double t0() const { return t0_; }
  double t1() const { return t1_; }

 private:
  enum class Kind { kContinuous, kLagrange };
  Kind kind_ = Kind::kContinuous;
  double t0_ = 0.0, t1_ = 0.0, h_ = 0.0;
  // kContinuous: Shampine/HNW coefficient vectors; rcont5 empty for the
  // cubic Hermite (the quartic term vanishes).
  std::vector<double> rcont1_, rcont2_, rcont3_, rcont4_, rcont5_;
  // kLagrange: nodes newest-first at spacing h_, node_[0] at t1_.
  std::vector<std::vector<double>> nodes_;
};

/// Per-solve (or per-ensemble-lane) event state machine: cached guard
/// signs, detection, localization, reset application, telemetry. Owned
/// by the driver; copyable so ensemble lanes can carry one each.
class EventHandler {
 public:
  EventHandler() = default;
  EventHandler(std::shared_ptr<const EventSpec> spec, std::size_t n);

  bool armed() const { return spec_ != nullptr && !spec_->functions.empty(); }

  /// (Re)caches every guard's value at a committed point. Call once at
  /// the initial state; check() re-primes after each fired event.
  void prime(double t, std::span<const double> y);

  struct Hit {
    bool fired = false;
    bool terminal = false;
    double t = 0.0;
    std::size_t index = 0;  // into EventSpec::functions
  };

  /// Scans the accepted jump (t_prev, t_new] for directional sign
  /// changes against the cached guard values. On detection, `make_dense`
  /// supplies the step's DenseOutput (built lazily — most steps cross
  /// nothing) and the earliest crossing is bisected to the spec's time
  /// tolerance. On fire: pre_state() holds the interpolated pre-event
  /// state, post_state() the state after the reset; guards re-prime at
  /// (t_event, post); a kEvent recorder event and stats.events are
  /// emitted. Without a crossing the cache simply advances to t_new.
  template <typename MakeDense>
  Hit check(double t_prev, double t_new, std::span<const double> y_new,
            const char* method, SolverStats& stats, MakeDense&& make_dense) {
    if (!armed() || !(t_new > t_prev)) {
      return {};
    }
    if (!detect(t_new, y_new)) {
      return {};
    }
    const DenseOutput dense = make_dense();
    return localize(t_prev, t_new, y_new, dense, method, stats);
  }

  std::span<const double> pre_state() const { return y_pre_; }
  std::span<const double> post_state() const { return y_post_; }
  std::size_t events_fired() const { return fired_; }
  const EventSpec& spec() const { return *spec_; }

 private:
  bool detect(double t_new, std::span<const double> y_new);
  Hit localize(double t_prev, double t_new, std::span<const double> y_new,
               const DenseOutput& dense, const char* method,
               SolverStats& stats);

  std::shared_ptr<const EventSpec> spec_;
  std::size_t n_ = 0;
  std::vector<double> g_prev_, g_new_;
  std::vector<char> crossed_;
  std::vector<double> y_pre_, y_post_, y_mid_;
  std::size_t fired_ = 0;
};

}  // namespace omx::ode
