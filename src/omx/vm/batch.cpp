#include "omx/vm/batch.hpp"

#include <cmath>
#include <type_traits>

#include "omx/expr/eval.hpp"
#include "omx/vm/interp.hpp"

namespace omx::vm {

void BatchWorkspace::resize(const Program& p, std::size_t nb) {
  OMX_REQUIRE(p.init_regs.size() == p.n_regs, "bad init_regs");
  regs_.resize(static_cast<std::size_t>(p.n_regs) * nb);
  // Splat every constant/temporary initial value across the lanes. State
  // and t rows are overwritten by load_state on every call.
  for (std::uint32_t r = 0; r < p.n_regs; ++r) {
    double* row = regs_.data() + static_cast<std::size_t>(r) * nb;
    for (std::size_t j = 0; j < nb; ++j) {
      row[j] = p.init_regs[r];
    }
  }
  nb_ = nb;
}

void BatchWorkspace::load_state(const Program& p, std::size_t nb,
                                const double* t, const double* y_soa) {
  OMX_REQUIRE(nb > 0, "empty batch");
  if (nb != nb_ || regs_.size() != static_cast<std::size_t>(p.n_regs) * nb) {
    resize(p, nb);
  }
  double* r = regs_.data();
  for (std::uint32_t i = 0; i < p.n_state; ++i) {
    const double* src = y_soa + static_cast<std::size_t>(i) * nb;
    double* dst = r + static_cast<std::size_t>(i) * nb;
    OMX_PRAGMA_SIMD
    for (std::size_t j = 0; j < nb; ++j) {
      dst[j] = src[j];
    }
  }
  double* trow = r + static_cast<std::size_t>(p.t_reg()) * nb;
  OMX_PRAGMA_SIMD
  for (std::size_t j = 0; j < nb; ++j) {
    trow[j] = t[j];
  }
}

namespace {

// The lane count comes in either as a plain size_t or as an
// integral_constant: with a compile-time width every lane loop below has
// a constant trip count, which the host compiler unrolls and
// auto-vectorizes. The instruction dispatch then costs once per batch
// instead of once per lane — the amortization the ensemble engine buys.
template <typename NbT>
void run_code(const Program& p, const TaskCode& tc, double* r, NbT nbv) {
  const std::size_t nb = nbv;
  // One contiguous lane loop per instruction: dst/a/b rows are disjoint
  // or identical whole rows, so every loop body is a pure elementwise op
  // and OMX_PRAGMA_SIMD is safe (packing lanes into vectors never
  // reorders per-lane arithmetic). The kPow/kFunc1/kFunc2 lanes stay
  // scalar on purpose: they route through the same libm calls as the
  // scalar interpreter, which is what keeps interp-batch bitwise equal
  // to interp-scalar; vectorized transcendentals live in the native
  // backend's vmath runtime (exec/vmath_functions.h), where scalar and
  // batched code share one branch-free implementation.
  for (std::uint32_t pc = tc.code_begin; pc < tc.code_end; ++pc) {
    const Instr& ins = p.code[pc];
    double* dst = r + static_cast<std::size_t>(ins.dst) * nb;
    const double* a = r + static_cast<std::size_t>(ins.a) * nb;
    const double* b = r + static_cast<std::size_t>(ins.b) * nb;
    switch (ins.op) {
      case OpCode::kAdd:
        OMX_PRAGMA_SIMD
        for (std::size_t j = 0; j < nb; ++j) dst[j] = a[j] + b[j];
        break;
      case OpCode::kSub:
        OMX_PRAGMA_SIMD
        for (std::size_t j = 0; j < nb; ++j) dst[j] = a[j] - b[j];
        break;
      case OpCode::kMul:
        OMX_PRAGMA_SIMD
        for (std::size_t j = 0; j < nb; ++j) dst[j] = a[j] * b[j];
        break;
      case OpCode::kDiv:
        OMX_PRAGMA_SIMD
        for (std::size_t j = 0; j < nb; ++j) dst[j] = a[j] / b[j];
        break;
      case OpCode::kPow:
        for (std::size_t j = 0; j < nb; ++j) {
          dst[j] = std::pow(a[j], b[j]);
        }
        break;
      case OpCode::kNeg:
        OMX_PRAGMA_SIMD
        for (std::size_t j = 0; j < nb; ++j) dst[j] = -a[j];
        break;
      case OpCode::kFunc1: {
        const auto f = static_cast<expr::Func1>(ins.fn);
        for (std::size_t j = 0; j < nb; ++j) {
          dst[j] = expr::apply_func1(f, a[j]);
        }
        break;
      }
      case OpCode::kFunc2: {
        const auto f = static_cast<expr::Func2>(ins.fn);
        for (std::size_t j = 0; j < nb; ++j) {
          dst[j] = expr::apply_func2(f, a[j], b[j]);
        }
        break;
      }
      case OpCode::kCopy:
        OMX_PRAGMA_SIMD
        for (std::size_t j = 0; j < nb; ++j) dst[j] = a[j];
        break;
    }
  }
}

template <std::size_t kNb>
using Width = std::integral_constant<std::size_t, kNb>;

}  // namespace

void run_task_batch(const Program& p, std::size_t task_index,
                    std::size_t nb, std::span<double> regs) {
  OMX_REQUIRE(task_index < p.tasks.size(), "task index out of range");
  const TaskCode& tc = p.tasks[task_index];
  double* r = regs.data();
  switch (nb) {
    case 4:
      run_code(p, tc, r, Width<4>{});
      break;
    case 8:
      run_code(p, tc, r, Width<8>{});
      break;
    case 16:
      run_code(p, tc, r, Width<16>{});
      break;
    case 32:
      run_code(p, tc, r, Width<32>{});
      break;
    default:
      run_code(p, tc, r, nb);
      break;
  }
}

void apply_outputs_batch(const Program& p, std::size_t task_index,
                         std::size_t nb, std::span<const double> regs,
                         double* ydot_soa) {
  const TaskCode& tc = p.tasks[task_index];
  for (const Output& o : tc.outputs) {
    const double* src = regs.data() + static_cast<std::size_t>(o.reg) * nb;
    double* dst = ydot_soa + static_cast<std::size_t>(o.slot) * nb;
    OMX_PRAGMA_SIMD
    for (std::size_t j = 0; j < nb; ++j) {
      dst[j] += src[j];
    }
  }
}

void eval_rhs_batch(const Program& p, std::size_t nb, const double* t,
                    const double* y_soa, double* ydot_soa,
                    BatchWorkspace& ws) {
  ws.load_state(p, nb, t, y_soa);
  if (nb == 1) {
    // ode::solve's one lane. A width-1 SoA register file is a scalar
    // one, so the scalar interpreter runs it: lane loops per instruction
    // and per output, even with a constant trip count of 1, made a
    // 10-roller bearing evaluation ~9% slower than the scalar pass.
    const std::span<double> ydot{ydot_soa, p.n_out};
    for (double& v : ydot) {
      v = 0.0;
    }
    for (std::size_t i = 0; i < p.tasks.size(); ++i) {
      run_task(p, i, ws.regs());
      apply_outputs(p, i, ws.regs(), ydot);
    }
    return;
  }
  const std::size_t total = static_cast<std::size_t>(p.n_out) * nb;
  OMX_PRAGMA_SIMD
  for (std::size_t i = 0; i < total; ++i) {
    ydot_soa[i] = 0.0;
  }
  for (std::size_t i = 0; i < p.tasks.size(); ++i) {
    run_task_batch(p, i, nb, ws.regs());
    apply_outputs_batch(p, i, nb, ws.regs(), ydot_soa);
  }
}

}  // namespace omx::vm
