// C++ code generation — the second target language of the ObjectMath 4.0
// code generator (Figure 8). Same task structure as the Fortran emitter:
// parallel `rhs(worker_id, t, yin, yout)` with a switch per task, or a
// serial globally-CSE'd body.
#pragma once

#include "omx/codegen/fortran.hpp"  // EmitResult, EmitOptions

namespace omx::codegen {

EmitResult emit_cpp_parallel(const model::FlatSystem& flat,
                             const TaskPlan& plan,
                             const EmitOptions& opts = {});

EmitResult emit_cpp_serial(const model::FlatSystem& flat,
                           const AssignmentSet& set,
                           const EmitOptions& opts = {});

// Batched (structure-of-arrays) variant for ensemble execution: the serial
// body wrapped in a contiguous lane loop, `rhs_batch(int nb, const double*
// ts, const double* yin, double* yout)` with state i of lane j at
// yin[i * nb + j] and a per-lane time ts[j]. The per-lane arithmetic is
// emitted from the same expression trees as the scalar variant, so lane
// results match a scalar call bit for bit; the inner loop is unit-stride
// so the host compiler can auto-vectorize across lanes.
EmitResult emit_cpp_serial_batch(const model::FlatSystem& flat,
                                 const AssignmentSet& set,
                                 const EmitOptions& opts = {});

}  // namespace omx::codegen
