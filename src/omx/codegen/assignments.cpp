#include "omx/codegen/assignments.hpp"

#include "omx/expr/simplify.hpp"

namespace omx::codegen {

AssignmentSet build_assignments(const model::FlatSystem& flat,
                                const TransformOptions& opts) {
  OMX_REQUIRE(flat.finalized(), "flat system must be finalized");
  expr::Context& ctx = flat.ctx();
  AssignmentSet out;

  auto transform = [&](expr::ExprId e) {
    return opts.simplify ? expr::simplify(ctx.pool, e) : e;
  };

  // The algebraics are topologically ordered, so each definition only
  // reads algebraics that are already resolved: one substitute apiece.
  for (std::size_t j = 0; j < flat.algebraics().size(); ++j) {
    const model::FlatAlgebraic& al = flat.algebraics()[j];
    out.algebraics.push_back(Assignment{Assignment::Kind::kAlgebraic,
                                        static_cast<int>(j), al.name,
                                        transform(al.rhs)});
    out.resolved_algebraics.emplace(
        al.name, ctx.pool.substitute(al.rhs, out.resolved_algebraics));
  }
  for (std::size_t i = 0; i < flat.num_states(); ++i) {
    const model::FlatState& st = flat.states()[i];
    const expr::ExprId rhs = transform(st.rhs);
    out.states.push_back(Assignment{Assignment::Kind::kStateDer,
                                    static_cast<int>(i), st.name, rhs});
    out.inlined_rhs.push_back(
        ctx.pool.substitute(rhs, out.resolved_algebraics));
  }
  return out;
}

}  // namespace omx::codegen
