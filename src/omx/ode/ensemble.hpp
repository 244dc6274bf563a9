// Ensemble execution: integrating many scenarios of one model at once.
//
// The paper's evaluation drives a single bearing instance; at production
// scale the dominant workload is sweeping thousands of parameter
// scenarios (bearing loads, hydro setpoints) through the same compiled
// model. Scenario-level parallelism composes with the equation-level
// parallelism of §3.2: each worker integrates a *batch* of scenarios in
// SoA lockstep, so one tape decode (or one pass of compiled native code)
// is amortized over the whole batch, and scenarios are dealt to workers
// by the semi-dynamic LPT of §3.2.3.
//
// Semantics:
//  * Every scenario keeps fully independent step control — its own t, h,
//    error estimate and accept/reject decisions — batching only fuses the
//    RHS evaluations. Because batched kernels are lane-independent
//    (exec::RhsKernel), a scenario's trajectory is bitwise identical
//    whatever batch it rides in, whichever worker runs it, and however
//    often the batch is repacked: results are deterministic across
//    worker counts, and a one-scenario ensemble reproduces plain
//    ode::solve bit for bit.
//  * A worker's batch is a lane block: the explicit steppers keep every
//    lane's state and stages in one 64-byte-aligned SoA block whose
//    stride is the kernel call width, so each stage is one batched call
//    on the block and the stage sums are SIMD loops over the lanes.
//  * A worker tops its batch up from its own LPT deal. A finished
//    scenario retires at once and its slot is refilled in place from
//    that deal, or, once the deal is spent, by stealing (whole
//    scenarios, from the most-loaded deque); when nothing is left to
//    take, the block re-strides to the lanes still live. A batch never
//    grows by stealing except when it has run empty.
//  * kExplicitEuler / kRk4 / kDopri5 run fully batched, with or without
//    events: each lane carries its own EventHandler, and a fixed-step
//    lane with armed events walks to tend instead of counting dt steps.
//  * kAdamsPece / kBdf / kLsodaLike run as lanes of one multistep
//    stepper, up to max_batch of them per worker. Adams lanes step one
//    at a time, each evaluating its own RHS at width 1. BDF
//    lanes, kLsodaLike lanes in a BDF segment among them, keep their
//    history and Newton state in one SoA lane block (ode::BdfLanes) and
//    take each step attempt together: the predictor, residual, update
//    and error norms run lane-inner over the block, and each Newton
//    iteration is one batched RHS call over the lanes still iterating
//    and one la::LaneSolver solve that walks their shared sparse L\U
//    structure with the lanes innermost. Jacobians, refactorizations
//    and events stay per lane; a lane reuses its slot's Jacobian
//    engine.
//  * Every evaluation, a colored-FD Jacobian's included, is one call of
//    the stepper's ode::LaneRhs: the batched kernel on the worker's
//    kernel lane when Problem::batch_rhs is bound, else Problem::rhs
//    lane by lane.
//  * These lane steppers are the only implementation of the six
//    methods: ode::solve runs the same stepper with one lane, on kernel
//    lane 0.
#pragma once

#include "omx/ode/solve.hpp"

namespace omx::ode {

struct EnsembleSpec {
  /// One initial state per scenario, each of size problem.n. The base
  /// problem's y0 is ignored.
  std::vector<std::vector<double>> initial_states;
  /// Worker threads (clamped to the scenario count and, when a batched
  /// kernel declares finite Problem::batch_lanes, to that).
  std::size_t workers = 1;
  /// Scenarios integrated in SoA lockstep per worker; 1 degenerates to
  /// scenario-at-a-time execution (the bench baseline). Values above
  /// simd::lane_width() are rounded down to a lane-width multiple so
  /// full batches divide into whole vector blocks.
  std::size_t max_batch = 16;
};

struct EnsembleResult {
  /// One trajectory per scenario, in spec.initial_states order.
  std::vector<Solution> solutions;
};

/// Integrates every scenario of `spec` over the base problem `p` (its n /
/// t0 / tend / tolerances / callbacks; y0 comes from the spec). Throws
/// omx::Error on the first scenario failure. Telemetry:
/// ensemble.scenarios_active, ensemble.batch_occupancy,
/// ensemble.rhs_calls_per_sec.
EnsembleResult solve_ensemble(const Problem& p, Method method,
                              const SolverOptions& opts,
                              const EnsembleSpec& spec);

/// Streaming form: every scenario's accepted steps flow to `sink`
/// tagged with the scenario index (see ode/sink.hpp), and no
/// EnsembleResult is built. Workers call the sink concurrently — at
/// most one writer per scenario at any moment, but acquire/commit/
/// finish must be thread-safe (EnsembleCollectSink and StatsOnlySink
/// are; custom sinks must follow suit).
void solve_ensemble(const Problem& p, Method method,
                    const SolverOptions& opts, const EnsembleSpec& spec,
                    TrajectorySink& sink);

namespace detail {
/// ode::solve's path: the method's lane stepper with one lane, on
/// kernel lane 0.
SolverStats solve_one_lane(const Problem& p, Method method,
                           const SolverOptions& opts, TrajectorySink& sink,
                           std::uint32_t scenario);
}  // namespace detail

}  // namespace omx::ode
