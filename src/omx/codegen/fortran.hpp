// Fortran 90 code generation (§3.2, §3.3, Figure 11).
//
// The parallel emitter produces the paper's SPMD shape: one subroutine
//   RHS(workerid, yin, yout)
// with a select case (workerid) branch per task; every task body loads its
// state aliases from yin, computes its task-local CSE temporaries and
// writes yout entries. The serial emitter folds the whole system into one
// straight-line body with globally shared CSE temporaries (the much
// smaller code §3.3 reports).
#pragma once

#include <string>

#include "omx/codegen/cse.hpp"
#include "omx/codegen/tasks.hpp"

namespace omx::codegen {

struct EmitResult {
  std::string code;
  std::size_t total_lines = 0;
  std::size_t decl_lines = 0;
  std::size_t num_cse_temps = 0;
};

struct EmitOptions {
  /// CSE extraction threshold (ops); 1 extracts every shared node.
  std::size_t cse_min_ops = 1;
  /// Emit the INIT / parameter-reading helper subroutines as well.
  bool with_helpers = true;
  /// Emit the file prelude (includes + omx_sign helper). The native
  /// backend composes several emitted bodies into one translation unit
  /// inside namespaces, so it hoists a single prelude itself and emits
  /// each body with with_prelude = false. (C++ emitter only; the Fortran
  /// emitter has no prelude.)
  bool with_prelude = true;
  /// C++ emitters only: print transcendental intrinsics as the omx_*
  /// vector-math runtime names (Lang::kCxxSimd) instead of std:: libm,
  /// so the rhs_batch lane loops vectorize without scalarizing on math
  /// calls, and every other intrinsic as its GNU builtin, so the code
  /// needs no header. The caller must declare the vmath functions and
  /// define the selects (the native backend declares the runtime it
  /// links from its prebuilt object and embeds exec/vmath_select.h; see
  /// exec/native.cpp). Standalone artifacts keep the default
  /// self-contained std:: spellings.
  bool simd_math = false;
};

EmitResult emit_fortran_parallel(const model::FlatSystem& flat,
                                 const TaskPlan& plan,
                                 const EmitOptions& opts = {});

EmitResult emit_fortran_serial(const model::FlatSystem& flat,
                               const AssignmentSet& set,
                               const EmitOptions& opts = {});

}  // namespace omx::codegen
