// Tape compilation: lowers a task plan (parallel) or an assignment set
// (serial, global CSE) into an executable vm::Program.
//
// Parallel program: one vm task per TaskSpec; every task is self-contained
// (its own temporaries; within-task sharing falls out of the DAG memo).
// Serial program: one single task computing algebraics then all states,
// with the memo shared across the whole system — the executable analogue
// of the globally CSE'd serial Fortran of §3.3.
#pragma once

#include "omx/codegen/tasks.hpp"
#include "omx/la/sparse.hpp"
#include "omx/vm/program.hpp"

namespace omx::codegen {

/// Compiles the parallel task plan. Parameters are folded to constants.
vm::Program compile_parallel_tape(const model::FlatSystem& flat,
                                  const TaskPlan& plan);

/// Compiles the whole system as one task with global sharing.
vm::Program compile_serial_tape(const model::FlatSystem& flat,
                                const AssignmentSet& set);

/// Compiles the analytic Jacobian J(i,j) = d f_i / d x_j of the inlined
/// right-hand sides in `set`, for the structurally nonzero entries only:
/// output slot k holds the derivative for CSR entry k of `pattern`
/// (entries whose derivative simplifies to the constant 0 leave their slot
/// at 0.0). nnz output slots instead of n*n — the symbolic analogue of the
/// colored-FD compression. Used by the implicit solvers, dense and sparse.
vm::Program compile_sparse_jacobian_tape(const model::FlatSystem& flat,
                                         const AssignmentSet& set,
                                         const la::SparsityPattern& pattern);

}  // namespace omx::codegen
