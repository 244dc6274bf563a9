// Microbenchmarks of the symbolic/compilation core (google-benchmark):
// expression construction, differentiation, simplification, CSE, tape
// compilation and VM execution throughput.
#include <benchmark/benchmark.h>

#include "omx/codegen/cse.hpp"
#include "omx/codegen/tape.hpp"
#include "omx/exec/native.hpp"
#include "omx/expr/derivative.hpp"
#include "omx/expr/simplify.hpp"
#include "omx/model/flatten.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/vm/interp.hpp"

namespace {

using namespace omx;

model::FlatSystem make_bearing(expr::Context& ctx, int rollers) {
  models::BearingConfig cfg;
  cfg.n_rollers = rollers;
  return model::flatten(models::build_bearing(ctx, cfg));
}

/// State right-hand sides with the algebraics inlined but unsimplified.
std::vector<expr::ExprId> raw_inlined_rhs(const model::FlatSystem& f) {
  codegen::TransformOptions raw;
  raw.simplify = false;
  return codegen::build_assignments(f, raw).inlined_rhs;
}

void BM_BuildBearingModel(benchmark::State& state) {
  const int rollers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    expr::Context ctx;
    model::FlatSystem f = make_bearing(ctx, rollers);
    benchmark::DoNotOptimize(f.num_states());
  }
}
BENCHMARK(BM_BuildBearingModel)->Arg(4)->Arg(10)->Arg(20);

void BM_Differentiate(benchmark::State& state) {
  expr::Context ctx;
  model::FlatSystem f = make_bearing(ctx, 4);
  const expr::ExprId rhs = raw_inlined_rhs(f)[2];
  const SymbolId x = f.states()[0].name;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::differentiate(ctx.pool, rhs, x));
  }
}
BENCHMARK(BM_Differentiate);

void BM_Simplify(benchmark::State& state) {
  expr::Context ctx;
  model::FlatSystem f = make_bearing(ctx, 4);
  const expr::ExprId rhs = raw_inlined_rhs(f)[2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr::simplify(ctx.pool, rhs));
  }
}
BENCHMARK(BM_Simplify);

void BM_Cse(benchmark::State& state) {
  expr::Context ctx;
  model::FlatSystem f = make_bearing(ctx, 10);
  const std::vector<expr::ExprId> roots = raw_inlined_rhs(f);
  std::size_t i = 0;
  for (auto _ : state) {
    codegen::CseOptions opts;
    std::string prefix = "b";
    prefix += std::to_string(i++);
    prefix += '$';
    opts.temp_prefix = std::move(prefix);
    benchmark::DoNotOptimize(
        codegen::eliminate_common_subexpressions(ctx, roots, opts));
  }
}
BENCHMARK(BM_Cse);

void BM_CompileTape(benchmark::State& state) {
  expr::Context ctx;
  model::FlatSystem f = make_bearing(ctx, 10);
  const auto set = codegen::build_assignments(f);
  const auto plan = codegen::plan_tasks(f, set, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(codegen::compile_parallel_tape(f, plan));
  }
}
BENCHMARK(BM_CompileTape);

// Interp-vs-native RHS throughput over the same bearing2d serial body.
// Registered interleaved per size so the pairs sit next to each other in
// the report; bench/backends.cpp exports the same comparison as
// BENCH_backends.json.
void BM_VmRhs(benchmark::State& state, exec::Backend backend) {
  const int rollers = static_cast<int>(state.range(0));
  expr::Context ctx;
  model::FlatSystem f = make_bearing(ctx, rollers);
  const auto set = codegen::build_assignments(f);
  const auto plan = codegen::plan_tasks(f, set, {});
  const vm::Program par = codegen::compile_parallel_tape(f, plan);
  const vm::Program ser = codegen::compile_serial_tape(f, set);
  exec::KernelInstance inst =
      backend == exec::Backend::kNative
          ? exec::make_native_kernel(f, set, par, &ser)
          : exec::make_interp_kernel(par, &ser);
  if (inst.backend() != backend) {
    state.SkipWithError("native toolchain unavailable; fell back to interp");
    return;
  }
  const exec::RhsKernel& kernel = inst.kernel();
  std::vector<double> y(f.num_states()), ydot(f.num_states());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = f.states()[i].start;
  }
  for (auto _ : state) {
    kernel(0.0, y, ydot);
    benchmark::DoNotOptimize(ydot[0]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ser.total_ops()));
}
BENCHMARK_CAPTURE(BM_VmRhs, interp, exec::Backend::kInterp)->Arg(4);
BENCHMARK_CAPTURE(BM_VmRhs, native, exec::Backend::kNative)->Arg(4);
BENCHMARK_CAPTURE(BM_VmRhs, interp, exec::Backend::kInterp)->Arg(10);
BENCHMARK_CAPTURE(BM_VmRhs, native, exec::Backend::kNative)->Arg(10);
BENCHMARK_CAPTURE(BM_VmRhs, interp, exec::Backend::kInterp)->Arg(40);
BENCHMARK_CAPTURE(BM_VmRhs, native, exec::Backend::kNative)->Arg(40);

void BM_ReferenceRhs(benchmark::State& state) {
  expr::Context ctx;
  model::FlatSystem f = make_bearing(ctx, 4);
  std::vector<double> y(f.num_states()), ydot(f.num_states());
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = f.states()[i].start;
  }
  for (auto _ : state) {
    f.eval_rhs(0.0, y, ydot);
    benchmark::DoNotOptimize(ydot[0]);
  }
}
BENCHMARK(BM_ReferenceRhs);

}  // namespace

BENCHMARK_MAIN();
