// Native execution backend: the paper's actual execution model (§4 —
// generated code is compiled by the platform compiler and *run*, not
// interpreted).
//
// make_native_kernel takes the emitted C++ from
// codegen::emit_cpp_serial_batch, composes one translation unit,
// compiles it at runtime with the host toolchain into a shared object
// (cached under a build directory keyed by source hash), dlopens it and
// wraps the exported entry point in an exec::RhsKernel.
//
// The unit (ABI 8) is the batched rhs_batch behind omx_rhs_serial_batch
// plus the inline selects (fmax, fmin, sign), and nothing else. The
// transcendentals (exp, log, sin, cos, tanh, hypot, pow) are only
// declared there: the vector-math runtime (vmath_functions.h) is compiled
// once per (compiler, flags, runtime text) into a PIC object in the
// shared cache and linked into every kernel, so a cold build compiles
// only the model. Each .so stays self-contained for dlopen and exports
// only omx_abi_version, omx_n_state and omx_rhs_serial_batch. Neither
// the unit nor the runtime calls the C++ runtime or libc, so the .so step
// links no default library (`-shared -nodefaultlibs <flags> -o <so>
// <unit>.cpp <runtime>.o -lm`): a kernel depends on libm at most, for the
// host functions without an omx_ form (tan, asin, ...). The unit
// has no scalar serial form: the kernel's whole-system eval is rhs_batch
// at nb=1, bitwise equal to a scalar evaluation. It has no parallel-task
// form either, so the kernel has no run_task (has_tasks() is false) and
// runtime::WorkerPool and runtime::ParallelRhs reject it; the paper's
// equation-level tasks run on interpreter kernels (Backend::kInterp).
//
// Graceful degradation: when no host compiler is available (or the
// runtime object's build, the kernel's compile or the load fails), the
// factory emits a one-line diagnostic and returns an interpreter kernel
// over the same task structure — callers never see a hard failure, only
// a kernel whose backend() says kInterp.
//
// Environment knobs:
//   OMX_NATIVE_CXX        compiler to use (default: c++, g++, clang++ in
//                         PATH order)
//   OMX_NATIVE_CACHE_DIR  shared cache directory (default:
//                         <tmp>/omx-native-cache); always holds the
//                         runtime object, and the kernels too unless
//                         NativeOptions::cache_dir names another
//   OMX_NATIVE_DISABLE    "1" forces the interpreter fallback
#pragma once

#include <string>

#include "omx/codegen/assignments.hpp"
#include "omx/exec/rhs_kernel.hpp"

namespace omx::exec {

struct NativeOptions {
  /// Kernel cache directory; empty = $OMX_NATIVE_CACHE_DIR or
  /// <system temp>/omx-native-cache. The runtime object always lives in
  /// that shared directory.
  std::string cache_dir;
  /// Extra flags appended to the compile command line.
  std::string extra_flags;
  /// Lanes for the interpreter fallback kernel.
  std::size_t fallback_lanes = 1;
};

/// True if a host C++ compiler was found (cached after the first probe).
bool native_toolchain_available();

/// Builds a native kernel for the model's emitted C++. `parallel` gives
/// the kernel's shape; it (and optionally `serial`) back the interpreter
/// fallback and must outlive the returned instance. Check
/// `instance.backend()` to see whether the native path was taken.
KernelInstance make_native_kernel(const model::FlatSystem& flat,
                                  const codegen::AssignmentSet& set,
                                  const vm::Program& parallel,
                                  const vm::Program* serial,
                                  const NativeOptions& opts = {});

}  // namespace omx::exec
