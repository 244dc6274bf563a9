// Data-level parallelism support shared by the batch interpreter, the
// ensemble engine and the exec backends.
//
// Three things live here:
//
//  * OMX_PRAGMA_SIMD — the vectorization hint placed on SoA lane loops.
//    It expands to `#pragma omp simd` when the compiler honors OpenMP
//    SIMD pragmas (the tree builds with -fopenmp-simd: pragma-only mode,
//    no OpenMP runtime). Lane loops are elementwise over disjoint rows,
//    so the pragma never changes per-lane arithmetic — it only changes
//    how lanes are packed into hardware vectors. The pragma deliberately
//    carries no `aligned` clause: row pointers (base + r*nb doubles) are
//    only 64-byte aligned when nb is a multiple of kAlignDoubles, and
//    tail-block compaction in the ensemble engine shrinks nb arbitrarily.
//
//  * lane_width() / lane_isa() — the running host's vector width and
//    the instruction set of the ode lane ops (ode/lane_ops.cpp). The
//    library builds for baseline x86-64 (SSE2, 2 lanes per instruction);
//    the lane ops are built once more for AVX and for AVX-512F, and the
//    build for lane_width() is picked once at run time, so the steppers'
//    lane loops run at the width of the -march=native kernels. Every
//    build gives the same bits because the library builds with
//    -ffp-contract=off: without it the AVX-512F build would fuse
//    multiply-adds.
//
//  * aligned_vector<T> — a std::vector whose storage is 64-byte aligned,
//    used at every SoA allocation site (vm::BatchWorkspace, the interp
//    kernel workspaces, the ensemble steppers) so that full lane blocks
//    start on a cache-line/vector-register boundary.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#if defined(_OPENMP) || defined(__GNUC__) || defined(__clang__)
#define OMX_PRAGMA_SIMD _Pragma("omp simd")
#else
#define OMX_PRAGMA_SIMD
#endif

namespace omx::simd {

/// Alignment of every SoA lane-block allocation: one AVX-512 vector /
/// one cache line.
inline constexpr std::size_t kAlign = 64;

/// Doubles per kAlign-sized block; SoA row offsets that are a multiple
/// of this keep every row aligned.
inline constexpr std::size_t kAlignDoubles = kAlign / sizeof(double);

/// Number of double lanes per hardware vector on the *running* host,
/// probed at runtime where possible. The native backend compiles its
/// kernels with -march=native, so the host CPU's width — not the
/// (typically baseline) ISA this binary was built for — is what the
/// lane loops actually use. Drives ensemble batch-width rounding (see
/// EnsembleSpec::max_batch clamping) and the bench/gate capability
/// gauges.
inline std::size_t lane_width() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  static const std::size_t w = []() -> std::size_t {
    if (__builtin_cpu_supports("avx512f")) {
      return 8;
    }
    if (__builtin_cpu_supports("avx")) {
      return 4;
    }
    return 2;  // SSE2 is baseline x86-64
  }();
  return w;
#elif defined(__AVX512F__)
  return 8;
#elif defined(__AVX__)
  return 4;
#elif defined(__SSE2__) || defined(__aarch64__)
  return 2;
#else
  return 1;
#endif
}

/// The instruction set the ode lane ops run on this host, named from
/// lane_width(): "avx512f", "avx", or "baseline" (the one the library was
/// built for).
inline const char* lane_isa() {
  switch (lane_width()) {
    case 8:
      return "avx512f";
    case 4:
      return "avx";
    default:
      return "baseline";
  }
}

/// Rounds `n` up to a multiple of `m` (m > 0).
inline constexpr std::size_t round_up(std::size_t n, std::size_t m) {
  return ((n + m - 1) / m) * m;
}

/// Minimal C++17 aligned allocator (64-byte) for vector storage.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 0) {
      return nullptr;
    }
    void* p = ::operator new(n * sizeof(T), std::align_val_t{kAlign});
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlign});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// 64-byte-aligned std::vector, drop-in for SoA lane buffers.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace omx::simd
