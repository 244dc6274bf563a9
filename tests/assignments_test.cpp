// Expression transformer (§3.1): build_assignments resolves every
// algebraic once and stores each state's inlined right-hand side. These
// tests pin that single pass against the straightforward definition —
// substitute one algebraic at a time, last to first — and pin the
// compiled output the inlined form feeds (tape op counts, CSE temps).
#include <gtest/gtest.h>

#include <string>

#include "omx/codegen/assignments.hpp"
#include "omx/codegen/fortran.hpp"
#include "omx/model/flatten.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/parser/parser.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx::codegen {
namespace {

/// Reference inlining: one full substitution per algebraic, in reverse
/// topological order, so each pass may expose earlier algebraics that a
/// later pass resolves.
expr::ExprId reference_inline(const model::FlatSystem& flat,
                              expr::ExprId e) {
  expr::Context& ctx = flat.ctx();
  for (std::size_t j = flat.algebraics().size(); j-- > 0;) {
    const model::FlatAlgebraic& al = flat.algebraics()[j];
    e = ctx.pool.substitute(e, al.name, al.rhs);
  }
  return e;
}

/// Every state's stored inlined RHS equals the reference, node for node,
/// and reads no algebraic.
void expect_inlined_states_match(const model::FlatSystem& flat) {
  const AssignmentSet set = build_assignments(flat);
  ASSERT_EQ(set.inlined_rhs.size(), flat.num_states());
  ASSERT_EQ(set.resolved_algebraics.size(), flat.num_algebraics());
  for (std::size_t i = 0; i < flat.num_states(); ++i) {
    EXPECT_EQ(set.inlined_rhs[i], reference_inline(flat, set.states[i].rhs))
        << "state " << flat.state_name(i);
    std::vector<SymbolId> syms;
    flat.ctx().pool.free_syms(set.inlined_rhs[i], syms);
    for (SymbolId s : syms) {
      EXPECT_LT(flat.algebraic_index(s), 0)
          << "state " << flat.state_name(i) << " still reads "
          << flat.ctx().names.name(s);
    }
  }
}

model::FlatSystem flatten_src(expr::Context& ctx, const std::string& src) {
  return model::flatten(parser::parse_model(src, ctx));
}

model::FlatSystem bearing(expr::Context& ctx, int rollers) {
  models::BearingConfig cfg;
  cfg.n_rollers = rollers;
  return model::flatten(models::build_bearing(ctx, cfg));
}

TEST(Inlining, MatchesReferenceOnBearing) {
  for (int rollers : {4, 10}) {
    SCOPED_TRACE(rollers);
    expr::Context ctx;
    expect_inlined_states_match(bearing(ctx, rollers));
  }
}

TEST(Inlining, MatchesReferenceOnDeepAlgebraicChain) {
  // a1 <- a2 <- ... <- a300, declared last-first so the flattener's
  // topological sort has to reorder the whole chain.
  constexpr int kDepth = 300;
  std::string src = "model Chain\n  class A\n    var x start 1;\n";
  for (int k = 1; k <= kDepth; ++k) {
    src += "    var a" + std::to_string(k) + ";\n";
  }
  for (int k = kDepth; k >= 2; --k) {
    src += "    eq a" + std::to_string(k) + " == sin(a" +
           std::to_string(k - 1) + ") + 0.001*x;\n";
  }
  src += "    eq a1 == 0.5*x;\n";
  src += "    eq der(x) == -a" + std::to_string(kDepth) + ";\n";
  src += "  end\n  instance c : A;\nend\n";
  expr::Context ctx;
  const model::FlatSystem f = flatten_src(ctx, src);
  ASSERT_EQ(f.num_algebraics(), static_cast<std::size_t>(kDepth));
  expect_inlined_states_match(f);
}

TEST(Inlining, NoAlgebraicsLeavesRhsUntouched) {
  expr::Context ctx;
  const model::FlatSystem f = model::flatten(models::build_oscillator(ctx));
  ASSERT_EQ(f.num_algebraics(), 0u);
  const AssignmentSet set = build_assignments(f);
  EXPECT_TRUE(set.resolved_algebraics.empty());
  ASSERT_EQ(set.inlined_rhs.size(), set.states.size());
  for (std::size_t i = 0; i < set.states.size(); ++i) {
    EXPECT_EQ(set.inlined_rhs[i], set.states[i].rhs);
  }
}

TEST(Inlining, EventGuardsAndResetsMatchReference) {
  // The bouncing ball, plus a hybrid model whose guards and resets read
  // algebraics (one of them through another algebraic).
  const std::string sources[] = {
      models::bouncing_ball_source(),
      R"(
model Thermostat
  class Room
    param k = 0.4, lo = 18, hi = 22;
    var temp start 20, heat start 1;
    var loss, drive, margin;
    eq loss == k*(temp - 10);
    eq drive == 6*heat - loss;
    eq margin == drive*0.1 + temp;
    eq der(temp) == drive;
    eq der(heat) == 0;
    when up margin - hi then heat = 0, temp = temp - 0.01*loss;
    when down temp - lo then heat = 1;
    when cross drive then temp = margin - drive*0.1;
  end
  instance r : Room;
end)"};
  for (const std::string& src : sources) {
    expr::Context ctx;
    const model::FlatSystem f = flatten_src(ctx, src);
    ASSERT_FALSE(f.events().empty());
    const AssignmentSet set = build_assignments(f);
    for (const model::FlatEvent& ev : f.events()) {
      EXPECT_EQ(ctx.pool.substitute(ev.guard, set.resolved_algebraics),
                reference_inline(f, ev.guard));
      for (const auto& [target, value] : ev.resets) {
        EXPECT_EQ(ctx.pool.substitute(value, set.resolved_algebraics),
                  reference_inline(f, value))
            << ctx.names.name(target);
      }
    }
  }
}

TEST(Inlining, CompiledBearingOutputIsPinned) {
  // Tape op counts and global CSE temporaries of the bearing: inlining
  // once must not change what any consumer compiles.
  struct Pin {
    int rollers;
    std::size_t parallel_ops, serial_ops, cse_temps;
  };
  for (const Pin& pin : {Pin{10, 3845, 1043, 211}, Pin{20, 7675, 2073, 421}}) {
    SCOPED_TRACE(pin.rollers);
    models::BearingConfig cfg;
    cfg.n_rollers = pin.rollers;
    const pipeline::CompiledModel cm =
        pipeline::compile_model([&](expr::Context& ctx) {
          return models::build_bearing(ctx, cfg);
        });
    EXPECT_EQ(cm.parallel_program.total_ops(), pin.parallel_ops);
    EXPECT_EQ(cm.serial_program.total_ops(), pin.serial_ops);
    EXPECT_EQ(emit_fortran_serial(*cm.flat, cm.assignments).num_cse_temps,
              pin.cse_temps);
  }
}

}  // namespace
}  // namespace omx::codegen
