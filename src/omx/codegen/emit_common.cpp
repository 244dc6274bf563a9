#include "omx/codegen/emit_common.hpp"

#include "omx/codegen/code_printer.hpp"

namespace omx::codegen {

RenamePlan plan_renames(const model::FlatSystem& flat,
                        const std::vector<expr::ExprId>& exprs) {
  expr::Context& ctx = flat.ctx();
  RenamePlan plan;
  std::vector<SymbolId> syms;
  ctx.pool.free_syms(exprs, syms);
  for (SymbolId s : syms) {
    const std::string& name = ctx.names.name(s);
    if (s == flat.time_symbol()) {
      plan.map.emplace(s, ctx.pool.sym(ctx.symbol("t")));
      continue;
    }
    if (int idx = flat.state_index(s); idx >= 0) {
      const std::string alias = sanitize_identifier(name);
      plan.map.emplace(s, ctx.pool.sym(ctx.symbol(alias)));
      plan.state_aliases.emplace_back(alias, idx);
      plan.locals.insert(alias);
      continue;
    }
    if (flat.is_parameter(s)) {
      const std::string alias = sanitize_identifier(name);
      plan.map.emplace(s, ctx.pool.sym(ctx.symbol(alias)));
      plan.param_consts.emplace_back(alias, flat.parameter_value(s));
      continue;
    }
    // Algebraic (serial mode) or CSE temp: sanitize in place.
    const std::string alias = sanitize_identifier(name);
    if (alias != name) {
      plan.map.emplace(s, ctx.pool.sym(ctx.symbol(alias)));
    }
    plan.locals.insert(alias);
  }
  return plan;
}

UnitEmission prepare_unit(const model::FlatSystem& flat,
                          const std::vector<expr::ExprId>& roots,
                          const std::string& temp_prefix,
                          std::size_t cse_min_ops) {
  expr::Context& ctx = flat.ctx();
  UnitEmission ue;
  CseOptions copts;
  copts.min_ops = cse_min_ops;
  copts.temp_prefix = temp_prefix;
  ue.cse = eliminate_common_subexpressions(ctx, roots, copts);
  std::vector<expr::ExprId> all;
  for (const CseBinding& b : ue.cse.bindings) {
    all.push_back(b.value);
  }
  for (expr::ExprId r : ue.cse.roots) {
    all.push_back(r);
  }
  ue.renames = plan_renames(flat, all);
  return ue;
}

expr::ExprId apply_renames(expr::Context& ctx, const RenamePlan& plan,
                           expr::ExprId e) {
  return plan.map.empty() ? e : ctx.pool.substitute(e, plan.map);
}

}  // namespace omx::codegen
