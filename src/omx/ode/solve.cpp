#include "omx/ode/solve.hpp"

#include "omx/ode/ensemble.hpp"

namespace omx::ode {

SolverStats solve(const Problem& p, Method method, const SolverOptions& o,
                  TrajectorySink& sink, std::uint32_t scenario) {
  if (o.record_every == 0) {
    throw omx::Error("ode::solve: record_every must be at least 1");
  }
  return detail::solve_one_lane(p, method, o, sink, scenario);
}

Solution solve(const Problem& p, Method method, const SolverOptions& o) {
  SolutionSink sink;
  solve(p, method, o, sink);
  return sink.take();
}

}  // namespace omx::ode
