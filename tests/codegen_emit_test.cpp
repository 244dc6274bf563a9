// Text emitters: structure of the generated Fortran 90 / C++, line and
// CSE statistics, and the parallel/serial code-size contrast of §3.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "omx/codegen/code_printer.hpp"
#include "omx/model/flatten.hpp"
#include "omx/codegen/cpp_emit.hpp"
#include "omx/codegen/fortran.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/hybrid.hpp"
#include "omx/parser/parser.hpp"

namespace omx::codegen {
namespace {

model::FlatSystem flatten_src(expr::Context& ctx, const std::string& src) {
  model::Model m = parser::parse_model(src, ctx);
  return model::flatten(m);
}

struct Prepared {
  AssignmentSet set;
  TaskPlan plan;
};

Prepared prepare(const model::FlatSystem& f, std::size_t min_ops = 0) {
  Prepared p;
  p.set = build_assignments(f);
  TaskPlanOptions opts;
  opts.min_ops_per_task = min_ops;
  p.plan = plan_tasks(f, p.set, opts);
  return p;
}

constexpr const char* kOscillator = R"(
model M
  class A
    var x start 1, y start 0;
    eq der(x) == y;
    eq der(y) == -x;
  end
  instance osc : A;
end)";

TEST(CodePrinter, FortranSpellsOperators) {
  expr::Context ctx;
  using expr::Ex;
  const Ex x = ctx.var("x");
  EXPECT_EQ(to_code(ctx.pool, ctx.names, pow(x, 3.0).id(),
                    Lang::kFortran90),
            "x**3.0_dp");
  EXPECT_EQ(to_code(ctx.pool, ctx.names, pow(x, 3.0).id(), Lang::kCxx),
            "std::pow(x, 3.0)");
  EXPECT_EQ(to_code(ctx.pool, ctx.names, abs(x).id(), Lang::kFortran90),
            "abs(x)");
  EXPECT_EQ(to_code(ctx.pool, ctx.names, abs(x).id(), Lang::kCxx),
            "std::fabs(x)");
  EXPECT_EQ(to_code(ctx.pool, ctx.names, sign(x).id(), Lang::kCxx),
            "omx_sign(x)");
  EXPECT_EQ(to_code(ctx.pool, ctx.names, max(x, 0.0).id(), Lang::kCxx),
            "std::fmax(x, 0.0)");
}

TEST(CodePrinter, SanitizesIdentifiers) {
  EXPECT_EQ(sanitize_identifier("w[3].contact.fn"), "w_3__contact_fn");
  EXPECT_EQ(sanitize_identifier("plain"), "plain");
  EXPECT_EQ(sanitize_identifier("3bad"), "v3bad");
}

TEST(FortranEmit, ParallelHasSelectCasePerTask) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, kOscillator);
  const Prepared p = prepare(f);
  const EmitResult r = emit_fortran_parallel(f, p.plan);
  EXPECT_NE(r.code.find("subroutine RHS(workerid, t, yin, yout)"),
            std::string::npos);
  EXPECT_NE(r.code.find("select case (workerid)"), std::string::npos);
  EXPECT_NE(r.code.find("case (1)"), std::string::npos);
  EXPECT_NE(r.code.find("case (2)"), std::string::npos);
  EXPECT_NE(r.code.find("osc_xdot = osc_y"), std::string::npos);
  EXPECT_NE(r.code.find("yout(1) = osc_xdot"), std::string::npos);
}

TEST(FortranEmit, HelpersEmitStartValuesAndReader) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, kOscillator);
  const Prepared p = prepare(f);
  const EmitResult r = emit_fortran_parallel(f, p.plan);
  EXPECT_NE(r.code.find("subroutine set_start_values"), std::string::npos);
  EXPECT_NE(r.code.find("subroutine read_start_values"), std::string::npos);
  EXPECT_NE(r.code.find("case ('osc.x')"), std::string::npos);
}

TEST(FortranEmit, CountsLinesAndDeclarations) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, kOscillator);
  const Prepared p = prepare(f);
  const EmitResult r = emit_fortran_parallel(f, p.plan);
  const std::size_t newline_count =
      static_cast<std::size_t>(std::count(r.code.begin(), r.code.end(),
                                          '\n'));
  EXPECT_EQ(r.total_lines, newline_count);
  EXPECT_GT(r.decl_lines, 0u);
  EXPECT_LT(r.decl_lines, r.total_lines);
}

TEST(FortranEmit, SerialIsSmallerThanParallelWhenSharing) {
  // Same expensive expression in many equations: per-task CSE cannot share
  // it, global CSE can (§3.3).
  expr::Context ctx;
  std::string body;
  for (int i = 1; i <= 6; ++i) {
    body += "    var s" + std::to_string(i) + " start 1;\n";
    body += "    eq der(s" + std::to_string(i) +
            ") == sin(q)*exp(q)*sqrt(q*q + 2) - s" + std::to_string(i) +
            ";\n";
  }
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    var q start 0.5;
    eq der(q) == -q;
)" + body + R"(
  end
  instance i : A;
end)");
  const Prepared p = prepare(f);
  const EmitResult par = emit_fortran_parallel(f, p.plan, {1, false});
  const EmitResult ser = emit_fortran_serial(f, p.set, {1, false});
  EXPECT_LT(ser.total_lines, par.total_lines);
}

TEST(FortranEmit, PartialSumsAccumulate) {
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
  const EmitResult r = emit_fortran_parallel(f, plan);
  EXPECT_NE(r.code.find("yout(1) = yout(1) + "), std::string::npos);
  EXPECT_NE(r.code.find("partial 1/"), std::string::npos);
}

TEST(CppEmit, ParallelSwitchShape) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, kOscillator);
  const Prepared p = prepare(f);
  const EmitResult r = emit_cpp_parallel(f, p.plan);
  EXPECT_NE(r.code.find("void rhs(int worker_id"), std::string::npos);
  EXPECT_NE(r.code.find("switch (worker_id)"), std::string::npos);
  EXPECT_NE(r.code.find("case 1: {"), std::string::npos);
  EXPECT_NE(r.code.find("yout[0] += osc_xdot;"), std::string::npos);
}

TEST(CppEmit, SerialWritesDirectly) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, kOscillator);
  const Prepared p = prepare(f);
  const EmitResult r = emit_cpp_serial(f, p.set);
  EXPECT_NE(r.code.find("void rhs(double t"), std::string::npos);
  EXPECT_NE(r.code.find("yout[0] = "), std::string::npos);
  EXPECT_EQ(r.code.find("switch"), std::string::npos);
}

TEST(CppEmit, ParameterConstantsEmitted) {
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, R"(
model M
  class A
    param stiffness = 12.5;
    var x start 1;
    eq der(x) == -stiffness*x;
  end
  instance i : A;
end)");
  const Prepared p = prepare(f);
  const EmitResult r = emit_cpp_parallel(f, p.plan);
  EXPECT_NE(r.code.find("constexpr double i_stiffness = 12.5;"),
            std::string::npos);
}

TEST(Emit, BearingStatisticsHaveTheRightShape) {
  // §3.3's headline numbers: parallel code has MORE CSE temps and MORE
  // lines than serial code; declarations are a large fraction.
  expr::Context ctx;
  models::BearingConfig cfg;
  cfg.n_rollers = 10;
  model::FlatSystem f = model::flatten(models::build_bearing(ctx, cfg));
  const Prepared p = prepare(f, 16);
  const EmitResult par = emit_fortran_parallel(f, p.plan, {1, false});
  const EmitResult ser = emit_fortran_serial(f, p.set, {1, false});
  EXPECT_GT(par.num_cse_temps, ser.num_cse_temps / 2);
  EXPECT_GT(par.total_lines, ser.total_lines);
  EXPECT_GT(par.decl_lines * 3, par.total_lines / 3);
}

// ------------------------------------------------ golden snapshots
//
// Full-text snapshots of the emitted code for two models across every
// emitter. A drifted snapshot means the generated-code surface changed:
// if the change is intentional, regenerate with scripts/update_golden.sh
// (or OMX_UPDATE_GOLDEN=1) and commit the diff alongside the emitter
// change so review sees exactly what the generators now produce.

std::string golden_path(const std::string& name) {
  return std::string(OMX_GOLDEN_DIR) + "/" + name;
}

void expect_matches_golden(const std::string& name,
                           const std::string& code) {
  const std::string path = golden_path(name);
  if (std::getenv("OMX_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << code;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << "; run scripts/update_golden.sh";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string want = buf.str();
  if (want == code) {
    return;
  }
  // Point at the first drifted line instead of dumping both files.
  std::istringstream a(want), b(code);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) {
      break;
    }
    if (la != lb || ga != gb) {
      FAIL() << name << " drifted at line " << line << ":\n  golden: "
             << (ga ? la : "<eof>") << "\n  emitted: "
             << (gb ? lb : "<eof>")
             << "\nrun scripts/update_golden.sh if this is intentional";
    }
    la.clear();
    lb.clear();
  }
  FAIL() << name << ": content differs only in trailing bytes; run "
            "scripts/update_golden.sh if this is intentional";
}

model::FlatSystem golden_bearing(expr::Context& ctx) {
  models::BearingConfig cfg;
  cfg.n_rollers = 4;  // small enough for reviewable snapshots
  return model::flatten(models::build_bearing(ctx, cfg));
}

void check_model_goldens(const std::string& stem,
                         const model::FlatSystem& f) {
  const Prepared p = prepare(f);
  expect_matches_golden(stem + "_serial.cpp.golden",
                        emit_cpp_serial(f, p.set).code);
  expect_matches_golden(stem + "_parallel.cpp.golden",
                        emit_cpp_parallel(f, p.plan).code);
  expect_matches_golden(stem + "_serial_batch.cpp.golden",
                        emit_cpp_serial_batch(f, p.set).code);
  expect_matches_golden(stem + "_serial.f90.golden",
                        emit_fortran_serial(f, p.set).code);
  expect_matches_golden(stem + "_parallel.f90.golden",
                        emit_fortran_parallel(f, p.plan).code);
}

TEST(Golden, OscillatorEmittersAreStable) {
  expr::Context ctx;
  check_model_goldens("oscillator", flatten_src(ctx, kOscillator));
}

TEST(Golden, BearingEmittersAreStable) {
  expr::Context ctx;
  check_model_goldens("bearing", golden_bearing(ctx));
}

TEST(Golden, BouncingBallEmittersAreStable) {
  // A model with a `when` clause: the serial surfaces additionally carry
  // the num_events/event_direction/event_guard/event_apply block.
  expr::Context ctx;
  check_model_goldens(
      "ball", model::flatten(models::build_bouncing_ball(ctx)));
}

TEST(CppEmit, EventSectionsOnlyForModelsWithWhens) {
  expr::Context ctx;
  model::FlatSystem smooth = flatten_src(ctx, kOscillator);
  const Prepared ps = prepare(smooth);
  EXPECT_EQ(emit_cpp_serial(smooth, ps.set).code.find("event_guard"),
            std::string::npos);

  expr::Context ctx2;
  model::FlatSystem ball =
      model::flatten(models::build_bouncing_ball(ctx2));
  const Prepared pb = prepare(ball);
  const EmitResult cpp = emit_cpp_serial(ball, pb.set);
  EXPECT_NE(cpp.code.find("int num_events() { return 1; }"),
            std::string::npos);
  EXPECT_NE(cpp.code.find("double event_guard(int k, double t,"
                          " const double* yin)"),
            std::string::npos);
  EXPECT_NE(cpp.code.find("void event_apply(int k, double t,"
                          " double* yin)"),
            std::string::npos);
  const EmitResult f90 = emit_fortran_serial(ball, pb.set);
  EXPECT_NE(f90.code.find("function event_guard(k, t, yin) result(g)"),
            std::string::npos);
  EXPECT_NE(f90.code.find("subroutine event_apply(k, t, yin)"),
            std::string::npos);
}

TEST(Emit, GeneratedCppOscillatorCompilesConceptually) {
  // Sanity: balanced braces in emitted C++ (cheap structural check).
  expr::Context ctx;
  model::FlatSystem f = flatten_src(ctx, kOscillator);
  const Prepared p = prepare(f);
  const EmitResult r = emit_cpp_parallel(f, p.plan);
  const auto open = std::count(r.code.begin(), r.code.end(), '{');
  const auto close = std::count(r.code.begin(), r.code.end(), '}');
  EXPECT_EQ(open, close);
}

}  // namespace
}  // namespace omx::codegen
