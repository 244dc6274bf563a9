#include "omx/exec/rhs_kernel.hpp"

#include <algorithm>

#include <vector>

#include "omx/model/flat_system.hpp"
#include "omx/vm/batch.hpp"
#include "omx/vm/interp.hpp"
#include "omx/vm/program.hpp"

namespace omx::exec {

namespace {

/// Extracts the scheduling metadata of a compiled parallel tape.
TaskTable task_table_from_program(const vm::Program& p) {
  TaskTable table;
  table.tasks.reserve(p.tasks.size());
  for (const vm::TaskCode& t : p.tasks) {
    TaskMeta m;
    m.out_slots.reserve(t.outputs.size());
    for (const vm::Output& o : t.outputs) {
      m.out_slots.push_back(o.slot);
    }
    std::sort(m.out_slots.begin(), m.out_slots.end());
    m.out_slots.erase(std::unique(m.out_slots.begin(), m.out_slots.end()),
                      m.out_slots.end());
    m.in_states = t.in_states;
    m.est_cost = static_cast<double>(t.est_ops);
    m.label = t.label;
    table.tasks.push_back(std::move(m));
  }
  return table;
}

struct InterpState {
  const vm::Program* parallel = nullptr;
  const vm::Program* serial = nullptr;  // may be null
  vm::Workspace eval_ws;
  std::vector<vm::Workspace> lane_ws;  // one private register file per lane
  // Per-lane SoA register files so eval_batch calls on distinct lanes
  // are thread-safe.
  std::vector<vm::BatchWorkspace> eval_batch_ws;  // serial-or-parallel tape
  TaskTable table;

  InterpState(const vm::Program& par, const vm::Program* ser,
              std::size_t lanes)
      : parallel(&par),
        serial(ser),
        eval_ws(ser != nullptr ? *ser : par),
        lane_ws(lanes, vm::Workspace(par)),
        eval_batch_ws(lanes),
        table(task_table_from_program(par)) {}
};

void interp_eval(void* ctx, double t, const double* y, double* ydot) {
  auto* s = static_cast<InterpState*>(ctx);
  const vm::Program& p = s->serial != nullptr ? *s->serial : *s->parallel;
  vm::eval_rhs_serial(p, t, {y, p.n_state}, {ydot, p.n_out}, s->eval_ws);
}

void interp_task(void* ctx, std::size_t lane, std::uint32_t task, double t,
                 const double* y, double* ydot) {
  auto* s = static_cast<InterpState*>(ctx);
  const vm::Program& p = *s->parallel;
  vm::Workspace& ws = s->lane_ws[lane];
  ws.load_state(p, t, {y, p.n_state});
  vm::run_task(p, task, ws.regs());
  vm::apply_outputs(p, task, ws.regs(), {ydot, p.n_out});
}

void interp_eval_batch(void* ctx, std::size_t lane, std::size_t nb,
                       const double* t, const double* y_soa,
                       double* ydot_soa) {
  auto* s = static_cast<InterpState*>(ctx);
  const vm::Program& p = s->serial != nullptr ? *s->serial : *s->parallel;
  vm::eval_rhs_batch(p, nb, t, y_soa, ydot_soa, s->eval_batch_ws[lane]);
}

struct ReferenceState {
  const model::FlatSystem* flat = nullptr;
};

void reference_eval(void* ctx, double t, const double* y, double* ydot) {
  const model::FlatSystem* f = static_cast<ReferenceState*>(ctx)->flat;
  f->eval_rhs(t, {y, f->num_states()}, {ydot, f->num_states()});
}

// Oracle path: loop-over-lanes gather/scatter around the scalar
// tree-walking evaluator. Allocates per call so any lane value is safe
// under concurrent use; the differential suite compares the batched
// backends against this.
void reference_eval_batch(void* ctx, std::size_t /*lane*/, std::size_t nb,
                          const double* t, const double* y_soa,
                          double* ydot_soa) {
  const model::FlatSystem* f = static_cast<ReferenceState*>(ctx)->flat;
  const std::size_t n = f->num_states();
  std::vector<double> y(n);
  std::vector<double> ydot(n);
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      y[i] = y_soa[i * nb + j];
    }
    f->eval_rhs(t[j], y, ydot);
    for (std::size_t i = 0; i < n; ++i) {
      ydot_soa[i * nb + j] = ydot[i];
    }
  }
}

}  // namespace

KernelInstance make_interp_kernel(const vm::Program& parallel,
                                  const vm::Program* serial,
                                  const InterpKernelOptions& opts) {
  OMX_REQUIRE(opts.lanes >= 1, "need at least one lane");
  OMX_REQUIRE(serial == nullptr || serial->n_out == parallel.n_out,
              "serial/parallel program output mismatch");
  auto state = std::make_shared<InterpState>(parallel, serial, opts.lanes);
  auto view = std::make_shared<RhsKernel>(
      Backend::kInterp, state.get(), &interp_eval, &interp_task,
      parallel.n_state, parallel.n_out, opts.lanes, &state->table,
      &interp_eval_batch);
  return KernelInstance(std::move(view), std::move(state));
}

KernelInstance make_reference_kernel(const model::FlatSystem& flat) {
  auto state = std::make_shared<ReferenceState>();
  state->flat = &flat;
  const auto n = static_cast<std::uint32_t>(flat.num_states());
  auto view = std::make_shared<RhsKernel>(
      Backend::kReference, state.get(), &reference_eval, nullptr, n, n,
      /*num_lanes=*/1, /*tasks=*/nullptr, &reference_eval_batch);
  return KernelInstance(std::move(view), std::move(state));
}

}  // namespace omx::exec
