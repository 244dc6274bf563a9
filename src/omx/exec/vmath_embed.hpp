// Access to the native backend's math runtime as source text, generated
// at configure time from the headers themselves (see src/CMakeLists.txt),
// so the compiled-in functions and the ones the kernels run can never
// drift apart. The transcendentals (vmath_functions.h) go into the one
// vector-math runtime unit, built once into a PIC object that every
// kernel links; the selects (vmath_select.h) go inline into every model
// unit.
#pragma once

namespace omx::exec {

/// The full text of vmath_functions.h, NUL-terminated.
const char* vmath_source();

/// The full text of vmath_select.h, NUL-terminated.
const char* vmath_select_source();

}  // namespace omx::exec
