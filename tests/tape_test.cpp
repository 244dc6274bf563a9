// Tape compilation and the VM: compiled programs must agree with the
// tree-walking reference semantics on every model, parallel and serial,
// plus the analytic Jacobian program.
#include <gtest/gtest.h>

#include <cmath>

#include "dense_oracle.hpp"
#include "omx/codegen/tape.hpp"
#include "omx/model/flatten.hpp"
#include "omx/vm/interp.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/servo.hpp"
#include "omx/parser/parser.hpp"
#include "omx/support/rng.hpp"

namespace omx::codegen {
namespace {

model::FlatSystem flatten_src(expr::Context& ctx, const std::string& src) {
  model::Model m = parser::parse_model(src, ctx);
  return model::flatten(m);
}

void expect_tapes_match_reference(const model::FlatSystem& f,
                                  std::uint64_t seed) {
  const AssignmentSet set = build_assignments(f);
  const TaskPlan plan = plan_tasks(f, set, {});
  const vm::Program par = compile_parallel_tape(f, plan);
  const vm::Program ser = compile_serial_tape(f, set);

  vm::Workspace ws_par(par), ws_ser(ser);
  const std::size_t n = f.num_states();
  std::vector<double> y(n), ref(n), got_par(n), got_ser(n);
  omx::SplitMix64 rng(seed);
  for (int trial = 0; trial < 10; ++trial) {
    for (std::size_t i = 0; i < n; ++i) {
      // Perturb around the start values to stay in a sane region.
      y[i] = f.states()[i].start + rng.uniform(-0.01, 0.01) *
                                       (1.0 + std::fabs(f.states()[i].start));
    }
    const double t = rng.uniform(0.0, 5.0);
    f.eval_rhs(t, y, ref);
    vm::eval_rhs_serial(par, t, y, got_par, ws_par);
    vm::eval_rhs_serial(ser, t, y, got_ser, ws_ser);
    for (std::size_t i = 0; i < n; ++i) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(ref[i]));
      EXPECT_NEAR(got_par[i], ref[i], tol) << "parallel, state " << i;
      EXPECT_NEAR(got_ser[i], ref[i], tol) << "serial, state " << i;
    }
  }
}

TEST(Tape, OscillatorMatchesReference) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    var x start 1, y start 0;
    eq der(x) == y;
    eq der(y) == -x;
  end
  instance o : A;
end)");
  expect_tapes_match_reference(f, 1);
}

TEST(Tape, AlgebraicChainsMatchReference) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    param k = 2.5;
    var x start 1, y start 0.5;
    var a, b, c;
    eq a == k*x + sin(time);
    eq b == a*a - y;
    eq c == max(b, 0) + min(a, y);
    eq der(x) == c - x;
    eq der(y) == b + a;
  end
  instance i : A;
end)");
  expect_tapes_match_reference(f, 2);
}

TEST(Tape, ServoMatchesReference) {
  expr::Context ctx;
  model::FlatSystem f = model::flatten(models::build_servo(ctx));
  expect_tapes_match_reference(f, 3);
}

TEST(Tape, HydroMatchesReference) {
  expr::Context ctx;
  model::FlatSystem f = model::flatten(models::build_hydro(ctx));
  expect_tapes_match_reference(f, 4);
}

TEST(Tape, BearingMatchesReference) {
  expr::Context ctx;
  models::BearingConfig cfg;
  cfg.n_rollers = 4;
  model::FlatSystem f = model::flatten(models::build_bearing(ctx, cfg));
  expect_tapes_match_reference(f, 5);
}

TEST(Tape, SplitTasksAccumulateCorrectly) {
  expr::Context ctx;
  std::string rhs = "sin(1*x)";
  for (int i = 2; i <= 10; ++i) {
    rhs += " + sin(" + std::to_string(i) + "*x)";
  }
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    var x start 1;
    eq der(x) == )" + rhs + R"(;
  end
  instance i : A;
end)");
  const AssignmentSet set = build_assignments(f);
  TaskPlanOptions topts;
  topts.min_ops_per_task = 0;
  topts.max_ops_per_task = 6;
  const TaskPlan plan = plan_tasks(f, set, topts);
  ASSERT_GT(plan.tasks.size(), 1u);
  const vm::Program par = compile_parallel_tape(f, plan);
  vm::Workspace ws(par);
  std::vector<double> y{0.8}, got(1), ref(1);
  f.eval_rhs(0.0, y, ref);
  vm::eval_rhs_serial(par, 0.0, y, got, ws);
  EXPECT_NEAR(got[0], ref[0], 1e-12);
}

TEST(Tape, TaskInputStatesAreExact) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    var x start 1, y start 1, z start 1;
    var a;
    eq a == 2*z;
    eq der(x) == y;     // reads y only
    eq der(y) == a;     // reads z through a
    eq der(z) == -z;
  end
  instance i : A;
end)");
  const AssignmentSet set = build_assignments(f);
  TaskPlanOptions topts;
  topts.min_ops_per_task = 0;
  const TaskPlan plan = plan_tasks(f, set, topts);
  const vm::Program par = compile_parallel_tape(f, plan);
  ASSERT_EQ(par.tasks.size(), 3u);
  const auto yi =
      static_cast<std::uint32_t>(f.state_index(ctx.symbol("i.y")));
  const auto zi =
      static_cast<std::uint32_t>(f.state_index(ctx.symbol("i.z")));
  EXPECT_EQ(par.tasks[0].in_states, (std::vector<std::uint32_t>{yi}));
  EXPECT_EQ(par.tasks[1].in_states, (std::vector<std::uint32_t>{zi}));
}

TEST(Tape, ValidateCatchesCorruptPrograms) {
  vm::Program p;
  p.n_state = 2;
  p.n_out = 2;
  p.n_regs = 4;
  p.init_regs.assign(4, 0.0);
  p.code.push_back(vm::Instr{vm::OpCode::kAdd, 0, 99, 0, 1});  // bad dst
  vm::TaskCode t;
  t.code_begin = 0;
  t.code_end = 1;
  p.tasks.push_back(t);
  EXPECT_THROW(p.validate(), omx::Bug);
}

TEST(Tape, JacobianMatchesFiniteDifferences) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    param k = 1.7;
    var x start 0.6, y start 0.3;
    var a;
    eq a == x*y;
    eq der(x) == sin(y) + k*a;
    eq der(y) == -x*x + cos(time)*y;
  end
  instance i : A;
end)");
  // A full 2x2 pattern: every entry has a slot, so the finite-difference
  // check covers the analytically zero ones too.
  const la::SparsityPattern pattern = la::SparsityPattern::dense(2);
  const vm::Program jp =
      compile_sparse_jacobian_tape(f, build_assignments(f), pattern);
  ASSERT_EQ(jp.n_out, 4u);
  vm::Workspace ws(jp);
  std::vector<double> y{0.6, 0.3};
  std::vector<double> jbuf(jp.n_out, 0.0);
  vm::eval_rhs_serial(jp, 0.9, y, jbuf, ws);

  oracle::Matrix fd(2, 2);
  std::uint64_t calls = 0;
  auto ref_rhs = [&](double t, std::span<const double> yy,
                     std::span<double> yd) { f.eval_rhs(t, yy, yd); };
  oracle::finite_difference_jacobian(ref_rhs, 0.9, y, fd, calls);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = pattern.row_ptr[i]; k < pattern.row_ptr[i + 1];
         ++k) {
      const std::size_t j = pattern.col_idx[k];
      EXPECT_NEAR(jbuf[k], fd(i, j),
                  1e-6 * std::max(1.0, std::fabs(fd(i, j))))
          << i << "," << j;
    }
  }
}

TEST(Tape, ParameterFoldingUsesBoundValues) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    param k = 4;
    var x start 1;
    eq der(x) == -k*x;
  end
  instance i : A;
end)");
  const AssignmentSet set = build_assignments(f);
  const vm::Program ser = compile_serial_tape(f, set);
  vm::Workspace ws(ser);
  std::vector<double> y{2.0}, ydot(1);
  vm::eval_rhs_serial(ser, 0.0, y, ydot, ws);
  EXPECT_DOUBLE_EQ(ydot[0], -8.0);
}

TEST(Tape, PowStrengthReduction) {
  // Constant powers 2, 3, 4, 0.5 and 1.5 compile to mul/sqrt sequences
  // (no kPow instruction) and agree with the reference evaluation.
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    var x start 0.7;
    eq der(x) == x^2 + x^3 + x^4 + x^0.5 + max(x, 0)^1.5 + x^2.7;
  end
  instance i : A;
end)");
  const AssignmentSet set = build_assignments(f);
  const vm::Program ser = compile_serial_tape(f, set);
  std::size_t pow_count = 0;
  for (const vm::Instr& ins : ser.code) {
    if (ins.op == vm::OpCode::kPow) {
      ++pow_count;
    }
  }
  EXPECT_EQ(pow_count, 1u);  // only the non-reducible x^2.7 remains

  vm::Workspace ws(ser);
  std::vector<double> y{0.7}, got(1), ref(1);
  f.eval_rhs(0.0, y, ref);
  vm::eval_rhs_serial(ser, 0.0, y, got, ws);
  EXPECT_NEAR(got[0], ref[0], 1e-14);

  // Negative base: x^2 and x^3 stay exact; fractional powers are NaN in
  // both the reference (std::pow) and the reduced form.
  y[0] = -1.3;
  f.eval_rhs(0.0, y, ref);
  vm::eval_rhs_serial(ser, 0.0, y, got, ws);
  EXPECT_EQ(std::isnan(got[0]), std::isnan(ref[0]));
}

}  // namespace
}  // namespace omx::codegen
