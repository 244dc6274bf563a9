#include "omx/ode/solve.hpp"

#include <algorithm>
#include <optional>
#include <thread>

#include "omx/ode/adams.hpp"
#include "omx/ode/auto_switch.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/support/timer.hpp"
#include "omx/tune/autotuner.hpp"

namespace omx::ode {

namespace {

/// Stiff-path tune context: resolves the factorization backend up front
/// (attaching the shared jac plan the solver would build anyway) so the
/// measured run can be recorded against the right cost curve, and in
/// `on` mode overrides jac_threads from the fitted model.
struct StiffTuneScope {
  Problem tuned;
  bool sparse = false;
  Stopwatch timer;

  StiffTuneScope(const Problem& p, int* jac_threads) : tuned(p) {
    if (!tuned.jac_plan) {
      tuned.jac_plan = make_jac_plan(tuned);
    }
    sparse = tuned.jac_plan && tuned.jac_plan->use_sparse;
    if (jac_threads != nullptr && tune::mode() == tune::Mode::kOn) {
      const int hw = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
      if (const std::optional<tune::StiffConfig> cfg =
              tune::AutoTuner::global().pick_stiff(p.n, hw)) {
        *jac_threads = std::max(1, cfg->jac_threads);
      }
    }
  }

  void record(int jac_threads) {
    tune::AutoTuner::global().record_stiff(
        {tuned.n, sparse, jac_threads, timer.seconds()});
  }
};

}  // namespace

SolverStats solve(const Problem& p, Method method, const SolverOptions& o,
                  TrajectorySink& sink, std::uint32_t scenario) {
  switch (method) {
    case Method::kExplicitEuler:
    case Method::kRk4:
    case Method::kDopri5:
      return detail::solve_one_lane(p, method, o, sink, scenario);
    case Method::kAdamsPece: {
      AdamsOptions a;
      a.tol = o.tol;
      a.h0 = o.h0;
      a.hmax = o.hmax;
      a.max_steps = o.max_steps;
      a.record_every = o.record_every;
      a.cancel = o.cancel;
      return detail::adams_pece(p, a, sink, scenario);
    }
    case Method::kBdf: {
      BdfOptions b;
      b.tol = o.tol;
      b.max_order = o.bdf_max_order;
      b.h0 = o.h0;
      b.hmax = o.hmax;
      b.max_steps = o.max_steps;
      b.newton_max_iters = o.newton_max_iters;
      b.record_every = o.record_every;
      b.fixed_h = o.bdf_fixed_h;
      b.jac_threads = o.jac_threads;
      b.cancel = o.cancel;
      if (tune::mode() == tune::Mode::kOff) {
        return detail::bdf(p, b, sink, scenario);
      }
      StiffTuneScope scope(p, &b.jac_threads);
      const SolverStats st = detail::bdf(scope.tuned, b, sink, scenario);
      scope.record(b.jac_threads);
      return st;
    }
    case Method::kLsodaLike: {
      AutoSwitchOptions s;
      s.tol = o.tol;
      s.bdf_max_order = o.bdf_max_order;
      s.max_steps = o.max_steps;
      s.record_every = o.record_every;
      s.cancel = o.cancel;
      if (tune::mode() == tune::Mode::kOff) {
        return auto_switch(p, s, sink, scenario).stats;
      }
      // The auto-switch stiff phase builds its Jacobians single-threaded,
      // so only the backend choice is tunable here; record against T=1.
      StiffTuneScope scope(p, nullptr);
      const SolverStats st =
          auto_switch(scope.tuned, s, sink, scenario).stats;
      scope.record(1);
      return st;
    }
  }
  throw omx::Bug("unknown ode::Method");
}

Solution solve(const Problem& p, Method method, const SolverOptions& o) {
  SolutionSink sink;
  solve(p, method, o, sink);
  return sink.take();
}

}  // namespace omx::ode
