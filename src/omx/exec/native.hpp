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
// The unit (ABI 7) is the vmath runtime plus the batched rhs_batch behind
// omx_rhs_serial_batch, and nothing else. It has no scalar serial form:
// the kernel's whole-system eval is rhs_batch at nb=1, bitwise equal to a
// scalar evaluation. It has no parallel-task form either, so the kernel
// has no run_task (has_tasks() is false) and runtime::WorkerPool and
// runtime::ParallelRhs reject it; the paper's equation-level tasks run on
// interpreter kernels (Backend::kInterp).
//
// Graceful degradation: when no host compiler is available (or the
// compile/load fails), the factory emits a one-line diagnostic and
// returns an interpreter kernel over the same task structure — callers
// never see a hard failure, only a kernel whose backend() says kInterp.
//
// Environment knobs:
//   OMX_NATIVE_CXX        compiler to use (default: c++, g++, clang++ in
//                         PATH order)
//   OMX_NATIVE_CACHE_DIR  cache directory (default:
//                         <tmp>/omx-native-cache)
//   OMX_NATIVE_DISABLE    "1" forces the interpreter fallback
#pragma once

#include <string>

#include "omx/codegen/assignments.hpp"
#include "omx/exec/rhs_kernel.hpp"

namespace omx::exec {

struct NativeOptions {
  /// Compiled-object cache directory; empty = $OMX_NATIVE_CACHE_DIR or
  /// <system temp>/omx-native-cache.
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
