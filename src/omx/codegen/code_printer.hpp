// Language-specific expression rendering shared by the Fortran 90 and C++
// emitters. Symbols are printed verbatim (the emitters pre-substitute
// sanitized local names), so the only language differences are operator
// spelling (** vs std::pow) and intrinsic names.
#pragma once

#include <string>

#include "omx/expr/pool.hpp"

namespace omx::codegen {

// kCxxSimd renders the same C++ as kCxx except for the function names.
// The transcendental intrinsics with no vectorizable libm entry point
// (sin, cos, tanh, exp, log, pow, hypot, min, max) are printed as their
// omx_* vector-math runtime names (exec/vmath_functions.h and
// exec/vmath_select.h): branch-free straight-line implementations with
// SIMD clones the lane loops call, or inline selects. Every other intrinsic prints as its GNU builtin (__builtin_tan,
// __builtin_sqrt, ...), which gcc treats exactly like the std:: call, so
// the native translation unit needs no header. Used by the native
// backend; standalone artifacts keep the self-contained std:: spellings.
enum class Lang { kFortran90, kCxx, kCxxSimd };

std::string to_code(const expr::Pool& pool, const Interner& names,
                    expr::ExprId id, Lang lang);

/// Makes a flat model name a legal identifier: "w[3].c.fn" -> "w_3__c_fn".
std::string sanitize_identifier(const std::string& name);

}  // namespace omx::codegen
