// Native execution backend: the paper's actual execution model (§4 —
// generated code is compiled by the platform compiler and *run*, not
// interpreted).
//
// make_native_kernel takes the emitted C++ from
// codegen::emit_cpp_serial_batch (and, with NativeOptions::tasks,
// codegen::emit_cpp_parallel), composes one translation unit, compiles it
// at runtime with the host toolchain into a shared object (cached under a
// build directory keyed by source hash), dlopens it and wraps the
// exported entry points in an exec::RhsKernel.
//
// The unit (ABI 6) is the vmath runtime plus the batched rhs_batch behind
// omx_rhs_serial_batch. It has no scalar serial form: the kernel's
// whole-system eval is rhs_batch at nb=1, bitwise equal to a scalar
// evaluation. The parallel-task switch (omx_num_tasks / omx_rhs_task)
// is compiled in only when `tasks` is set; without it the kernel has no
// run_task (has_tasks() is false), so runtime::WorkerPool and
// runtime::ParallelRhs reject it. The two units hash differently, so they
// are cached side by side.
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

#include "omx/codegen/tasks.hpp"
#include "omx/exec/rhs_kernel.hpp"

namespace omx::exec {

struct NativeOptions {
  /// Compiled-object cache directory; empty = $OMX_NATIVE_CACHE_DIR or
  /// <system temp>/omx-native-cache.
  std::string cache_dir;
  /// Extra flags appended to the compile command line.
  std::string extra_flags;
  /// Skip the native path entirely and build the fallback kernel
  /// (equivalent to OMX_NATIVE_DISABLE=1).
  bool force_fallback = false;
  /// Lanes for the interpreter fallback kernel.
  std::size_t fallback_lanes = 1;
  /// Also compile the parallel-task switch, so the kernel supports
  /// run_task (WorkerPool / ParallelRhs). Off by default: the switch
  /// costs a large share of the host compile and only the
  /// equation-level parallel path calls it.
  bool tasks = false;
};

/// True if a host C++ compiler was found (cached after the first probe).
bool native_toolchain_available();

/// Builds a native kernel for the model's emitted C++. `parallel` (and
/// optionally `serial`) provide the scheduling metadata and the
/// interpreter fallback; they must outlive the returned instance. Check
/// `instance.backend()` to see whether the native path was taken.
KernelInstance make_native_kernel(const model::FlatSystem& flat,
                                  const codegen::AssignmentSet& set,
                                  const codegen::TaskPlan& plan,
                                  const vm::Program& parallel,
                                  const vm::Program* serial,
                                  const NativeOptions& opts = {});

}  // namespace omx::exec
