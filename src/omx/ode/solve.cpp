#include "omx/ode/solve.hpp"

#include "omx/ode/adams.hpp"
#include "omx/ode/auto_switch.hpp"
#include "omx/ode/bdf.hpp"
#include "omx/ode/ensemble.hpp"

namespace omx::ode {

SolverStats solve(const Problem& p, Method method, const SolverOptions& o,
                  TrajectorySink& sink, std::uint32_t scenario) {
  if (o.record_every == 0) {
    throw omx::Error("ode::solve: record_every must be at least 1");
  }
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
      return detail::bdf(p, b, sink, scenario);
    }
    case Method::kLsodaLike: {
      AutoSwitchOptions s;
      s.tol = o.tol;
      s.bdf_max_order = o.bdf_max_order;
      s.max_steps = o.max_steps;
      s.record_every = o.record_every;
      s.cancel = o.cancel;
      return auto_switch(p, s, sink, scenario).stats;
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
