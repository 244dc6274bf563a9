#include "omx/codegen/tape.hpp"

#include <algorithm>
#include <unordered_map>

#include "omx/expr/derivative.hpp"
#include "omx/expr/simplify.hpp"

namespace omx::codegen {

namespace {

/// Incremental tape builder with a per-unit expression memo.
class TapeBuilder {
 public:
  explicit TapeBuilder(const model::FlatSystem& flat)
      : flat_(flat), ctx_(flat.ctx()) {
    prog_.n_state = static_cast<std::uint32_t>(flat.num_states());
    prog_.n_out = prog_.n_state;
    next_reg_ = prog_.n_state + 1;  // states + t
  }

  /// Overrides the output-slot count (Jacobian programs use one per
  /// structural nonzero).
  void set_num_outputs(std::uint32_t n_out) { prog_.n_out = n_out; }

  /// Clears cross-expression sharing (used between parallel tasks).
  void reset_memo() { memo_.clear(); }

  /// Registers an extra named value (e.g. a serial-mode algebraic) so that
  /// later expressions referencing `name` read the given register.
  void bind_symbol(SymbolId name, std::uint32_t reg) {
    symbol_reg_[name] = reg;
  }

  std::uint32_t compile_expr(expr::ExprId e) {
    if (auto it = memo_.find(e); it != memo_.end()) {
      return it->second;
    }
    const expr::Node n = ctx_.pool.node(e);
    std::uint32_t reg;
    switch (n.op) {
      case expr::Op::kConst:
        reg = const_reg(ctx_.pool.const_value(e));
        break;
      case expr::Op::kSym: {
        const SymbolId s = static_cast<SymbolId>(n.a);
        reg = symbol_register(s);
        break;
      }
      case expr::Op::kAdd:
        reg = emit2(vm::OpCode::kAdd, 0, n.a, n.b);
        break;
      case expr::Op::kSub:
        reg = emit2(vm::OpCode::kSub, 0, n.a, n.b);
        break;
      case expr::Op::kMul:
        reg = emit2(vm::OpCode::kMul, 0, n.a, n.b);
        break;
      case expr::Op::kDiv:
        reg = emit2(vm::OpCode::kDiv, 0, n.a, n.b);
        break;
      case expr::Op::kPow:
        reg = compile_pow(n.a, n.b);
        break;
      case expr::Op::kNeg:
        reg = emit1(vm::OpCode::kNeg, 0, n.a);
        break;
      case expr::Op::kCall1:
        reg = emit1(vm::OpCode::kFunc1, n.fn, n.a);
        break;
      case expr::Op::kCall2:
        reg = emit2(vm::OpCode::kFunc2, n.fn, n.a, n.b);
        break;
      case expr::Op::kDer:
      default:
        throw omx::Error("cannot compile der() as a value");
    }
    memo_.emplace(e, reg);
    return reg;
  }

  std::uint32_t begin_task() {
    return static_cast<std::uint32_t>(prog_.code.size());
  }

  void finish_task(std::uint32_t code_begin, std::vector<vm::Output> outputs,
                   std::vector<std::uint32_t> in_states, std::string label) {
    vm::TaskCode t;
    t.code_begin = code_begin;
    t.code_end = static_cast<std::uint32_t>(prog_.code.size());
    t.est_ops = t.code_end - t.code_begin;
    t.outputs = std::move(outputs);
    t.in_states = std::move(in_states);
    t.label = std::move(label);
    prog_.tasks.push_back(std::move(t));
  }

  vm::Program take() {
    prog_.n_regs = next_reg_;
    prog_.init_regs.assign(prog_.n_regs, 0.0);
    for (const auto& [value, reg] : const_regs_) {
      prog_.init_regs[reg] = value;
    }
    prog_.validate();
    return std::move(prog_);
  }

  /// States referenced by `e` (for message-size accounting).
  std::vector<std::uint32_t> input_states(expr::ExprId e) const {
    std::vector<SymbolId> syms;
    ctx_.pool.free_syms(e, syms);
    std::vector<std::uint32_t> states;
    for (SymbolId s : syms) {
      if (int idx = flat_.state_index(s); idx >= 0) {
        states.push_back(static_cast<std::uint32_t>(idx));
      }
    }
    std::sort(states.begin(), states.end());
    states.erase(std::unique(states.begin(), states.end()), states.end());
    return states;
  }

 private:
  std::uint32_t fresh_reg() { return next_reg_++; }

  std::uint32_t const_reg(double v) {
    if (auto it = std::find_if(
            const_regs_.begin(), const_regs_.end(),
            [&](const auto& p) { return p.first == v; });
        it != const_regs_.end()) {
      return it->second;
    }
    const std::uint32_t reg = fresh_reg();
    const_regs_.emplace_back(v, reg);
    return reg;
  }

  std::uint32_t symbol_register(SymbolId s) {
    if (auto it = symbol_reg_.find(s); it != symbol_reg_.end()) {
      return it->second;
    }
    if (int idx = flat_.state_index(s); idx >= 0) {
      return static_cast<std::uint32_t>(idx);
    }
    if (s == flat_.time_symbol()) {
      return prog_.t_reg();
    }
    if (flat_.is_parameter(s)) {
      return const_reg(flat_.parameter_value(s));
    }
    throw omx::Error("tape compile: unresolved symbol '" +
                     ctx_.names.name(s) + "' (algebraic not inlined?)");
  }

  /// Strength reduction for pow with a small constant exponent — the hot
  /// path of the contact models (delta^1.5 for Hertz contacts, squares
  /// and cubes everywhere): multiplications and sqrt are an order of
  /// magnitude cheaper than the libm pow call.
  std::uint32_t compile_pow(expr::ExprId base, expr::ExprId expo) {
    const expr::Node& e = ctx_.pool.node(expo);
    if (e.op == expr::Op::kConst) {
      const double c = ctx_.pool.const_value(expo);
      const std::uint32_t rb = compile_expr(base);
      auto mul = [&](std::uint32_t x, std::uint32_t y) {
        const std::uint32_t dst = fresh_reg();
        prog_.code.push_back(vm::Instr{vm::OpCode::kMul, 0, dst, x, y});
        return dst;
      };
      auto sqrt_of = [&](std::uint32_t x) {
        const std::uint32_t dst = fresh_reg();
        prog_.code.push_back(vm::Instr{
            vm::OpCode::kFunc1,
            static_cast<std::uint8_t>(expr::Func1::kSqrt), dst, x, 0});
        return dst;
      };
      if (c == 2.0) return mul(rb, rb);
      if (c == 3.0) return mul(mul(rb, rb), rb);
      if (c == 4.0) {
        const std::uint32_t sq = mul(rb, rb);
        return mul(sq, sq);
      }
      if (c == 0.5) return sqrt_of(rb);
      // x^1.5 = x * sqrt(x); valid on x >= 0, which the contact gating
      // guarantees for the max(delta, 0)^1.5 pattern. pow(x, 1.5) is NaN
      // for x < 0 anyway, so the rewrite never changes a finite result.
      if (c == 1.5) return mul(rb, sqrt_of(rb));
    }
    return emit2(vm::OpCode::kPow, 0, base, expo);
  }

  std::uint32_t emit1(vm::OpCode op, std::uint8_t fn, expr::ExprId a) {
    const std::uint32_t ra = compile_expr(a);
    const std::uint32_t dst = fresh_reg();
    prog_.code.push_back(vm::Instr{op, fn, dst, ra, 0});
    return dst;
  }

  std::uint32_t emit2(vm::OpCode op, std::uint8_t fn, expr::ExprId a,
                      expr::ExprId b) {
    const std::uint32_t ra = compile_expr(a);
    const std::uint32_t rb = compile_expr(b);
    const std::uint32_t dst = fresh_reg();
    prog_.code.push_back(vm::Instr{op, fn, dst, ra, rb});
    return dst;
  }

  const model::FlatSystem& flat_;
  expr::Context& ctx_;
  vm::Program prog_;
  std::uint32_t next_reg_ = 0;
  std::unordered_map<expr::ExprId, std::uint32_t> memo_;
  std::unordered_map<SymbolId, std::uint32_t> symbol_reg_;
  std::vector<std::pair<double, std::uint32_t>> const_regs_;
};

}  // namespace

vm::Program compile_parallel_tape(const model::FlatSystem& flat,
                                  const TaskPlan& plan) {
  TapeBuilder b(flat);
  for (const TaskSpec& spec : plan.tasks) {
    b.reset_memo();  // nothing is shared between tasks
    const std::uint32_t begin = b.begin_task();
    std::vector<vm::Output> outputs;
    std::vector<std::uint32_t> in_states;
    for (const TaskUnit& u : spec.units) {
      const std::uint32_t reg = b.compile_expr(u.rhs);
      outputs.push_back(
          vm::Output{reg, static_cast<std::uint32_t>(u.state)});
      const auto ins = b.input_states(u.rhs);
      in_states.insert(in_states.end(), ins.begin(), ins.end());
    }
    std::sort(in_states.begin(), in_states.end());
    in_states.erase(std::unique(in_states.begin(), in_states.end()),
                    in_states.end());
    b.finish_task(begin, std::move(outputs), std::move(in_states),
                  spec.label);
  }
  return b.take();
}

vm::Program compile_serial_tape(const model::FlatSystem& flat,
                                const AssignmentSet& set) {
  TapeBuilder b(flat);
  const std::uint32_t begin = b.begin_task();
  // Algebraics computed once, in dependency order, each bound to the
  // register holding its value; the global memo shares everything else.
  for (const Assignment& a : set.algebraics) {
    b.bind_symbol(a.target, b.compile_expr(a.rhs));
  }
  std::vector<vm::Output> outputs;
  std::vector<std::uint32_t> in_states;
  for (const Assignment& a : set.states) {
    const std::uint32_t reg = b.compile_expr(a.rhs);
    outputs.push_back(vm::Output{reg, static_cast<std::uint32_t>(a.index)});
  }
  for (std::uint32_t i = 0; i < flat.num_states(); ++i) {
    in_states.push_back(i);
  }
  b.finish_task(begin, std::move(outputs), std::move(in_states), "serial");
  return b.take();
}

vm::Program compile_sparse_jacobian_tape(const model::FlatSystem& flat,
                                         const AssignmentSet& set,
                                         const la::SparsityPattern& pattern) {
  expr::Context& ctx = flat.ctx();
  const std::size_t n = flat.num_states();
  OMX_REQUIRE(pattern.rows == n && pattern.cols == n,
              "sparsity pattern shape does not match the flat system");

  TapeBuilder b(flat);
  b.set_num_outputs(static_cast<std::uint32_t>(pattern.nnz()));
  const std::uint32_t begin = b.begin_task();
  std::vector<vm::Output> outputs;

  for (std::size_t i = 0; i < n; ++i) {
    const expr::ExprId rhs = set.inlined_rhs[i];
    for (std::size_t k = pattern.row_ptr[i]; k < pattern.row_ptr[i + 1];
         ++k) {
      const std::size_t j = pattern.col_idx[k];
      const expr::ExprId d = expr::simplify(
          ctx.pool,
          expr::differentiate(ctx.pool, rhs, flat.states()[j].name));
      if (ctx.pool.is_const(d, 0.0)) {
        continue;  // in-pattern but analytically zero: slot stays 0
      }
      const std::uint32_t reg = b.compile_expr(d);
      outputs.push_back(vm::Output{reg, static_cast<std::uint32_t>(k)});
    }
  }
  std::vector<std::uint32_t> in_states;
  for (std::uint32_t i = 0; i < n; ++i) {
    in_states.push_back(i);
  }
  b.finish_task(begin, std::move(outputs), std::move(in_states),
                "jacobian_sparse");
  return b.take();
}

}  // namespace omx::codegen
