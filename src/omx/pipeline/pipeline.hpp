// End-to-end façade: model -> flatten -> analyze -> transform -> partition
// -> compile. This is the programmatic equivalent of Figure 7's tool
// chain, producing everything the examples, tests and benchmarks consume.
#pragma once

#include <functional>
#include <memory>

#include "omx/analysis/partition.hpp"
#include "omx/codegen/tape.hpp"
#include "omx/exec/native.hpp"
#include "omx/model/flatten.hpp"
#include "omx/ode/problem.hpp"
#include "omx/runtime/parallel_rhs.hpp"

namespace omx::pipeline {

struct CompileOptions {
  codegen::TransformOptions transform;
  codegen::TaskPlanOptions tasks;
  /// Also compile the serial (globally CSE'd) tape.
  bool build_serial = true;
  /// Also generate + compile the analytic Jacobian tape (one output per
  /// structural nonzero).
  bool build_jacobian = false;
};

struct KernelOptions {
  /// Concurrency lanes for run_task (interpreter kernels pre-build one
  /// register file per lane; native code is stateless and ignores it).
  std::size_t lanes = 1;
  exec::NativeOptions native;
};

/// Everything the toolchain derives from one model.
struct CompiledModel {
  std::unique_ptr<expr::Context> ctx;
  std::unique_ptr<model::FlatSystem> flat;
  analysis::DependencyInfo deps;
  analysis::Partition partition;
  codegen::AssignmentSet assignments;
  codegen::TaskPlan plan;
  vm::Program parallel_program;
  vm::Program serial_program;  // empty unless build_serial
  /// Structural Jacobian sparsity derived from the dependency graph:
  /// (i, j) present iff state j appears in the (algebraic-inlined) RHS of
  /// state i. Attached to every Problem this model produces.
  std::shared_ptr<const la::SparsityPattern> sparsity;
  /// `sparsity` with the diagonal forced present — the pattern the stiff
  /// engine stores its Jacobian over, and the slot map of
  /// `sparse_jacobian_program`. Empty unless build_jacobian.
  std::shared_ptr<const la::SparsityPattern> jac_sparsity;
  /// Analytic Jacobian compiled to nnz(jac_sparsity) output slots (CSR
  /// order) instead of n*n. Empty unless build_jacobian.
  vm::Program sparse_jacobian_program;

  std::size_t n() const { return flat->num_states(); }

  /// Builds an execution kernel for the requested backend. The returned
  /// instance shares this CompiledModel's programs — the model must
  /// outlive it. Backend::kNative degrades to the interpreter (with a
  /// diagnostic) when no host compiler is available; check
  /// `instance.backend()`.
  exec::KernelInstance make_kernel(exec::Backend backend,
                                   const KernelOptions& opts = {}) const;

  /// An ODE problem over [t0, tend] evaluating through `kernel`; the
  /// problem keeps a reference on the kernel instance alive.
  ode::Problem make_problem(const exec::KernelInstance& kernel, double t0,
                            double tend) const;

  /// Convenience: make_kernel(backend) + make_problem.
  ode::Problem make_problem(exec::Backend backend, double t0,
                            double tend) const;

  /// An ODE problem over [t0, tend] using the given RHS view. The caller
  /// owns the callable behind `rhs` and must keep it alive.
  ode::Problem make_problem(ode::RhsFn rhs, double t0, double tend) const;

  /// Binds the analytic Jacobian from `sparse_jacobian_program` into `p`
  /// as its sparse_jacobian (owning: copies of `p` keep it alive). It
  /// fills the values of `jac_sparsity`, so `p.sparsity` must be this
  /// model's `sparsity`, as make_problem sets it. Requires build_jacobian.
  void bind_symbolic_jacobian(ode::Problem& p) const;
};

using ModelBuilder = std::function<model::Model(expr::Context&)>;

/// Runs the full pipeline over the model produced by `builder`.
CompiledModel compile_model(const ModelBuilder& builder,
                            const CompileOptions& opts = {});

}  // namespace omx::pipeline
