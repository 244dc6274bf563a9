#include "omx/pipeline/pipeline.hpp"

#include <algorithm>

#include "omx/analysis/sparsity.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/events.hpp"
#include "omx/vm/interp.hpp"

namespace omx::pipeline {

exec::KernelInstance CompiledModel::make_kernel(
    exec::Backend backend, const KernelOptions& opts) const {
  switch (backend) {
    case exec::Backend::kReference:
      return exec::make_reference_kernel(*flat);
    case exec::Backend::kInterp: {
      exec::InterpKernelOptions io;
      io.lanes = opts.lanes;
      return exec::make_interp_kernel(
          parallel_program,
          serial_program.n_regs > 0 ? &serial_program : nullptr, io);
    }
    case exec::Backend::kNative: {
      exec::NativeOptions no = opts.native;
      no.fallback_lanes = std::max(no.fallback_lanes, opts.lanes);
      return exec::make_native_kernel(
          *flat, assignments, parallel_program,
          serial_program.n_regs > 0 ? &serial_program : nullptr, no);
    }
  }
  throw omx::Bug("unknown exec::Backend");
}

ode::Problem CompiledModel::make_problem(const exec::KernelInstance& kernel,
                                         double t0, double tend) const {
  ode::Problem p = make_problem(ode::RhsFn(), t0, tend);
  const exec::RhsKernel& k = kernel.kernel();
  p.rhs_arity = k.n_state();
  // The capture shares ownership of the kernel state, so the problem
  // (and its copies) keep the backend alive.
  p.set_rhs([kernel](double t, std::span<const double> y,
                     std::span<double> ydot) { kernel.kernel()(t, y, ydot); });
  if (k.has_batch()) {
    p.batch_arity = k.n_state();
    // The interpreter's batch workspaces are per-lane; native code is
    // stateless and the reference oracle allocates per call, so only the
    // interpreter bounds solve_ensemble's worker count.
    p.batch_lanes =
        k.backend() == exec::Backend::kInterp ? k.num_lanes() : 0;
    p.set_batch_rhs([kernel](std::size_t lane, std::size_t nb,
                             const double* t, const double* y_soa,
                             double* ydot_soa) {
      kernel.kernel().eval_batch(lane, nb, t, y_soa, ydot_soa);
    });
  }
  return p;
}

ode::Problem CompiledModel::make_problem(exec::Backend backend, double t0,
                                         double tend) const {
  return make_problem(make_kernel(backend), t0, tend);
}

ode::Problem CompiledModel::make_problem(ode::RhsFn rhs, double t0,
                                         double tend) const {
  ode::Problem p;
  p.n = flat->num_states();
  p.rhs = rhs;
  p.t0 = t0;
  p.tend = tend;
  p.y0.reserve(p.n);
  for (const model::FlatState& s : flat->states()) {
    p.y0.push_back(s.start);
  }
  p.sparsity = sparsity;
  if (!flat->events().empty()) {
    // When-clause guards and resets evaluate through the expression pool
    // rather than a compiled tape: deliberately backend-independent, so
    // reference/interp/native all localize each event at the same time.
    // Same lifetime contract as make_kernel: the CompiledModel must
    // outlive the problems it produces.
    const model::FlatSystem* fs = flat.get();
    ode::EventSpec spec;
    for (std::size_t k = 0; k < fs->events().size(); ++k) {
      ode::EventFunction f;
      const int dir = fs->events()[k].direction;
      f.direction = dir > 0 ? ode::EventDirection::kRising
                   : dir < 0 ? ode::EventDirection::kFalling
                             : ode::EventDirection::kBoth;
      f.guard = [fs, k](double t, std::span<const double> y) {
        return fs->eval_event_guard(k, t, y);
      };
      f.reset = [fs, k](double t, std::span<double> y) {
        fs->apply_event_resets(k, t, y);
      };
      f.name = "when_" + std::to_string(k);
      spec.functions.push_back(std::move(f));
    }
    p.events = std::make_shared<const ode::EventSpec>(std::move(spec));
  }
  return p;
}

void CompiledModel::bind_symbolic_jacobian(ode::Problem& p) const {
  OMX_REQUIRE(sparse_jacobian_program.n_regs > 0,
              "jacobian program not built");
  // solve_ensemble evaluates copies of one Problem on several workers at
  // once, so each thread evaluates in a register file of its own, reset
  // from the program on every call (no allocation once it has grown).
  const vm::Program* sp = &sparse_jacobian_program;
  p.set_sparse_jacobian([sp](double t, std::span<const double> y,
                             la::CsrMatrix& jac) {
    OMX_REQUIRE(jac.pattern().nnz() == sp->n_out,
                "sparse jacobian pattern mismatch");
    thread_local vm::Workspace ws;
    ws.reset(*sp);
    vm::eval_rhs_serial(*sp, t, y, jac.values(), ws);
  });
}

CompiledModel compile_model(const ModelBuilder& builder,
                            const CompileOptions& opts) {
  static obs::Counter& compiles =
      obs::Registry::global().counter("pipeline.compiles");
  obs::Span total("compile_model", "pipeline");

  CompiledModel cm;
  cm.ctx = std::make_unique<expr::Context>();
  {
    obs::Span s("build+flatten", "pipeline");
    model::Model m = builder(*cm.ctx);
    cm.flat = std::make_unique<model::FlatSystem>(model::flatten(m));
  }
  {
    obs::Span s("dependency+scc", "pipeline");
    cm.deps = analysis::analyze_dependencies(*cm.flat);
    cm.partition = analysis::partition_by_scc(*cm.flat, cm.deps);
    cm.sparsity = std::make_shared<la::SparsityPattern>(
        analysis::structural_sparsity(cm.deps, cm.flat->num_states()));
  }
  {
    obs::Span s("assignments+cse", "pipeline");
    cm.assignments = codegen::build_assignments(*cm.flat, opts.transform);
  }
  {
    obs::Span s("task_planning", "pipeline");
    cm.plan = codegen::plan_tasks(*cm.flat, cm.assignments, opts.tasks);
  }
  {
    obs::Span s("compile_tapes", "pipeline");
    cm.parallel_program = codegen::compile_parallel_tape(*cm.flat, cm.plan);
    if (opts.build_serial) {
      cm.serial_program = codegen::compile_serial_tape(*cm.flat,
                                                       cm.assignments);
    }
    if (opts.build_jacobian) {
      cm.jac_sparsity = std::make_shared<la::SparsityPattern>(
          cm.sparsity->with_diagonal());
      cm.sparse_jacobian_program = codegen::compile_sparse_jacobian_tape(
          *cm.flat, cm.assignments, *cm.jac_sparsity);
    }
  }
  compiles.add();
  return cm;
}

}  // namespace omx::pipeline
