// Branch-free selects for the native backend: fmax, fmin and sign.
//
// Every native translation unit carries this text inline, ahead of its
// rhs_batch: a select is one compare+blend, far cheaper than a call, so
// the lane loops must see it as plain code. The transcendentals
// (vmath_functions.h) are the opposite case and are linked in from the
// prebuilt vector-math runtime object instead.
//
// Like vmath_functions.h this file is compiled into the host tree for the
// tests (tests/vmath_test.cpp) and embedded as text into the native units
// (see vmath_embed.cpp), so it includes nothing, uses only the
// fundamental types and must never contain the string `)omx_vmath`.
#ifndef OMX_EXEC_VMATH_SELECT_H_
#define OMX_EXEC_VMATH_SELECT_H_

#if defined(__GNUC__) || defined(__clang__)
#define OMX_VM_SELECT __attribute__((always_inline)) static inline
#else
#define OMX_VM_SELECT static inline
#endif

/// fmax/fmin with libm NaN semantics (a NaN operand yields the other
/// operand) as chained selects. The std:: spellings compile to *calls*
/// the vectorizer must keep scalar — IEEE fmax's NaN rule does not map
/// onto vmaxpd — which would break every lane loop containing a
/// max/min; these forms if-convert to plain compare+blend. Only
/// divergence from std::fmax: fmax(+0.0, -0.0) may return -0.0 (the
/// zeros compare equal, so the second operand wins the blend).
OMX_VM_SELECT double omx_fmax(double a, double b) {
  double r = a > b ? a : b;
  r = b != b ? a : r;
  r = a != a ? b : r;
  return r;
}

OMX_VM_SELECT double omx_fmin(double a, double b) {
  double r = a < b ? a : b;
  r = b != b ? a : r;
  r = a != a ? b : r;
  return r;
}

/// sign(x): -1, 0 or 1, the expression the interpreter evaluates.
OMX_VM_SELECT double omx_sign(double x) {
  return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
}

#endif  // OMX_EXEC_VMATH_SELECT_H_
