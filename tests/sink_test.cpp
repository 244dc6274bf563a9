// TrajectorySink streaming API: edge cases of the chunk protocol
// (zero-step solves, boundary-exact trajectories, sink reuse, ensemble
// retirement mid-chunk) and the differential pin that the batched
// native/interp kernels reproduce their scalar counterparts bitwise on
// every bundled model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace omx::ode {
namespace {

pipeline::CompiledModel oscillator_model() {
  return pipeline::compile_model(models::build_oscillator);
}

/// Sink that records the full chunk protocol: every commit's
/// (scenario, rows, final) triple, every finish, and the reassembled
/// per-scenario trajectory. Thread-safe so it can back solve_ensemble.
class ProtocolSink final : public TrajectorySink {
 public:
  struct Commit {
    std::uint32_t scenario;
    std::size_t rows;
    bool final;
  };

  explicit ProtocolSink(std::size_t chunk_rows, std::size_t num_scenarios = 1)
      : rows_(chunk_rows), trajs_(num_scenarios), stats_(num_scenarios),
        finishes_(num_scenarios, 0) {}

  TrajectoryChunk* acquire(std::uint32_t scenario, std::size_t n) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++acquires_;
    TrajectoryChunk* c;
    if (!free_.empty()) {
      c = free_.back();
      free_.pop_back();
    } else {
      all_.push_back(std::make_unique<TrajectoryChunk>());
      c = all_.back().get();
    }
    c->reset(scenario, n, rows_);
    return c;
  }

  void commit(TrajectoryChunk* chunk) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    commits_.push_back({chunk->scenario, chunk->size, chunk->final});
    Traj& tr = trajs_[chunk->scenario];
    for (std::size_t i = 0; i < chunk->size; ++i) {
      tr.times.push_back(chunk->times[i]);
      const auto row = chunk->row_view(i);
      tr.states.insert(tr.states.end(), row.begin(), row.end());
    }
    free_.push_back(chunk);
  }

  void finish(std::uint32_t scenario, const SolverStats& stats) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++finishes_[scenario];
    stats_[scenario] = stats;
  }

  struct Traj {
    std::vector<double> times;
    std::vector<double> states;
  };

  const Traj& traj(std::size_t s = 0) const { return trajs_[s]; }
  const SolverStats& stats(std::size_t s = 0) const { return stats_[s]; }
  int finishes(std::size_t s = 0) const { return finishes_[s]; }
  const std::vector<Commit>& commits() const { return commits_; }
  std::size_t acquires() const { return acquires_; }
  std::size_t chunks_allocated() const { return all_.size(); }

  void clear_counters() {
    commits_.clear();
    acquires_ = 0;
    for (auto& t : trajs_) {
      t.times.clear();
      t.states.clear();
    }
    for (auto& f : finishes_) {
      f = 0;
    }
  }

 private:
  std::mutex mutex_;
  std::size_t rows_;
  std::vector<std::unique_ptr<TrajectoryChunk>> all_;
  std::vector<TrajectoryChunk*> free_;
  std::vector<Commit> commits_;
  std::vector<Traj> trajs_;
  std::vector<SolverStats> stats_;
  std::vector<int> finishes_;
  std::size_t acquires_ = 0;
};

/// Bitwise row-for-row check of a reassembled stream against a Solution
/// (whose storage is only reachable through the time()/state() accessors).
void expect_traj_eq(const ProtocolSink::Traj& tr, const Solution& sol) {
  ASSERT_EQ(tr.times.size(), sol.size());
  if (sol.size() == 0) {
    return;
  }
  const std::size_t n = tr.states.size() / tr.times.size();
  for (std::size_t i = 0; i < sol.size(); ++i) {
    EXPECT_EQ(tr.times[i], sol.time(i)) << "row " << i;
    const std::span<const double> row = sol.state(i);
    ASSERT_EQ(row.size(), n);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(tr.states[i * n + j], row[j]) << "row " << i << " slot " << j;
    }
  }
}

void expect_solutions_eq(const Solution& a, const Solution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.time(i), b.time(i)) << "row " << i;
    const std::span<const double> ra = a.state(i);
    const std::span<const double> rb = b.state(i);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t j = 0; j < ra.size(); ++j) {
      EXPECT_EQ(ra[j], rb[j]) << "row " << i << " slot " << j;
    }
  }
}

TEST(SinkEdge, ZeroStepSolveDeliversInitialRowAndFinish) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.3, 0.3);  // t0 == tend
  ProtocolSink sink(/*chunk_rows=*/8);
  const SolverStats stats = solve(p, Method::kRk4, {}, sink);

  EXPECT_EQ(stats.steps, 0u);
  EXPECT_EQ(sink.finishes(), 1);
  ASSERT_EQ(sink.traj().times.size(), 1u);  // just the initial state
  EXPECT_EQ(sink.traj().times[0], 0.3);
  ASSERT_EQ(sink.commits().size(), 1u);
  EXPECT_TRUE(sink.commits()[0].final);
}

TEST(SinkEdge, ChunkBoundaryExactlyAtTendOmitsFinalFlag) {
  pipeline::CompiledModel cm = oscillator_model();
  // Fixed-step: rows = steps + 1 (initial row). 7 steps + 1 = 8 rows =
  // exactly two 4-row chunks, so the tail chunk commits *full*, and the
  // final flag never fires — finish() is the only end-of-stream signal.
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.7);
  SolverOptions o;
  o.dt = 0.1;
  ProtocolSink sink(/*chunk_rows=*/4);
  const SolverStats stats = solve(p, Method::kRk4, o, sink);

  EXPECT_EQ(stats.steps, 7u);
  ASSERT_EQ(sink.traj().times.size(), 8u);
  ASSERT_EQ(sink.commits().size(), 2u);
  for (const auto& c : sink.commits()) {
    EXPECT_EQ(c.rows, 4u);
    EXPECT_FALSE(c.final) << "boundary-exact trajectory must not flag final";
  }
  EXPECT_EQ(sink.finishes(), 1);
  EXPECT_EQ(sink.traj().times.back(), p.tend);
}

TEST(SinkEdge, PartialTailChunkCarriesFinalFlag) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.5);
  SolverOptions o;
  o.dt = 0.1;  // 5 steps + initial = 6 rows = 4-row chunk + 2-row tail
  ProtocolSink sink(/*chunk_rows=*/4);
  solve(p, Method::kRk4, o, sink);

  ASSERT_EQ(sink.commits().size(), 2u);
  EXPECT_FALSE(sink.commits()[0].final);
  EXPECT_EQ(sink.commits()[0].rows, 4u);
  EXPECT_TRUE(sink.commits()[1].final);
  EXPECT_EQ(sink.commits()[1].rows, 2u);
}

TEST(SinkEdge, SinkReusedAcrossSolvesRecyclesChunks) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
  SolverOptions o;
  o.dt = 1e-2;
  ProtocolSink sink(/*chunk_rows=*/16);
  solve(p, Method::kRk4, o, sink);
  const auto first_times = sink.traj().times;
  const auto first_states = sink.traj().states;
  const std::size_t allocated_after_first = sink.chunks_allocated();
  ASSERT_FALSE(first_times.empty());

  sink.clear_counters();
  solve(p, Method::kRk4, o, sink);

  // Same problem, same sink: identical stream, and the second solve
  // reuses the first solve's chunks instead of allocating fresh ones.
  EXPECT_EQ(sink.traj().times, first_times);
  EXPECT_EQ(sink.traj().states, first_states);
  EXPECT_EQ(sink.finishes(), 1);
  EXPECT_EQ(sink.chunks_allocated(), allocated_after_first);
}

TEST(SinkEdge, SolutionSinkReuseAfterTake) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);
  SolverOptions o;
  o.dt = 1e-2;

  SolutionSink sink;
  solve(p, Method::kRk4, o, sink);
  const Solution a = sink.take();
  solve(p, Method::kRk4, o, sink);
  const Solution b = sink.take();

  expect_solutions_eq(a, b);
}

TEST(SinkEdge, AdaptiveSolveMatchesSolutionOverloadRowForRow) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 2.0);
  ProtocolSink sink(/*chunk_rows=*/5);  // odd size to exercise splits
  const SolverStats ss = solve(p, Method::kDopri5, {}, sink);
  const Solution sol = solve(p, Method::kDopri5, {});

  expect_traj_eq(sink.traj(), sol);
  EXPECT_EQ(ss.steps, sol.stats.steps);
  EXPECT_EQ(ss.rhs_calls, sol.stats.rhs_calls);
}

TEST(SinkEnsemble, RetireMidChunkFlushesPartialChunksPerScenario) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 0.45);
  SolverOptions o;
  o.dt = 0.1;  // 5 steps (last clipped) + initial = 6 rows per scenario

  EnsembleSpec spec;
  for (int s = 0; s < 3; ++s) {
    spec.initial_states.push_back({1.0 + 0.1 * s, 0.0});
  }
  spec.workers = 2;
  spec.max_batch = 2;

  // 6 rows vs 4-row chunks: every scenario retires holding a 2-row
  // partial chunk, which must be flushed with the final flag set.
  ProtocolSink sink(/*chunk_rows=*/4, /*num_scenarios=*/3);
  solve_ensemble(p, Method::kRk4, o, spec, sink);

  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(sink.finishes(s), 1) << "scenario " << s;
    EXPECT_EQ(sink.traj(s).times.size(), 6u) << "scenario " << s;
    EXPECT_EQ(sink.traj(s).times.back(), p.tend) << "scenario " << s;
  }
  std::size_t finals = 0;
  for (const auto& c : sink.commits()) {
    if (c.final) {
      ++finals;
      EXPECT_EQ(c.rows, 2u);
    }
  }
  EXPECT_EQ(finals, 3u);  // one partial tail per scenario

  // The streamed rows are bitwise the per-scenario solo solves.
  for (std::size_t s = 0; s < 3; ++s) {
    Problem q = p;
    q.y0 = spec.initial_states[s];
    const Solution solo = solve(q, Method::kRk4, o);
    SCOPED_TRACE("scenario " + std::to_string(s));
    expect_traj_eq(sink.traj(s), solo);
  }
}

TEST(SinkEnsemble, CollectSinkMatchesEnsembleResult) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);

  EnsembleSpec spec;
  for (int s = 0; s < 5; ++s) {
    spec.initial_states.push_back({1.0 + 0.05 * s, 0.1 * s});
  }
  spec.workers = 2;
  spec.max_batch = 4;

  const EnsembleResult res = solve_ensemble(p, Method::kDopri5, {}, spec);
  EnsembleCollectSink sink(spec.initial_states.size());
  solve_ensemble(p, Method::kDopri5, {}, spec, sink);
  const std::vector<Solution> streamed = sink.take();

  ASSERT_EQ(streamed.size(), res.solutions.size());
  for (std::size_t s = 0; s < streamed.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    expect_solutions_eq(streamed[s], res.solutions[s]);
  }
}

TEST(SinkEnsemble, StatsOnlySinkKeepsFinalStateAndStats) {
  pipeline::CompiledModel cm = oscillator_model();
  Problem p = cm.make_problem(exec::Backend::kInterp, 0.0, 1.0);

  EnsembleSpec spec;
  spec.initial_states.push_back({1.2, 0.0});
  spec.initial_states.push_back({0.8, 0.3});
  spec.workers = 1;
  spec.max_batch = 2;

  StatsOnlySink sink(spec.initial_states.size());
  solve_ensemble(p, Method::kDopri5, {}, spec, sink);

  for (std::size_t s = 0; s < 2; ++s) {
    Problem q = p;
    q.y0 = spec.initial_states[s];
    const Solution solo = solve(q, Method::kDopri5, {});
    EXPECT_EQ(sink.final_time(s), solo.final_time()) << "scenario " << s;
    ASSERT_EQ(sink.final_state(s).size(), solo.final_state().size());
    for (std::size_t i = 0; i < solo.final_state().size(); ++i) {
      EXPECT_EQ(sink.final_state(s)[i], solo.final_state()[i])
          << "scenario " << s << " slot " << i;
    }
    EXPECT_EQ(sink.stats(s).steps, solo.stats.steps) << "scenario " << s;
  }
}

// ---------------------------------------------------------------------------
// Differential pin: batched kernels reproduce scalar kernels bitwise on
// every bundled model, for both backends, at several batch widths. This
// is the lane-independence contract the whole vectorization effort
// rests on (interp batch == interp scalar, native batch == native
// scalar; the two backends agree to 1e-12 but not bitwise, since the
// native transcendentals are the linked vmath runtime, not libm).

pipeline::KernelOptions cache_opts() {
  pipeline::KernelOptions ko;
  ko.native.cache_dir =
      (std::filesystem::temp_directory_path() / "omx-test-native-cache")
          .string();
  return ko;
}

void expect_batch_matches_scalar_bitwise(pipeline::CompiledModel cm,
                                         exec::Backend backend) {
  const exec::KernelInstance inst = cm.make_kernel(backend, cache_opts());
  if (inst.backend() != backend) {
    GTEST_SKIP() << "backend unavailable";
  }
  const exec::RhsKernel& k = inst.kernel();
  ASSERT_TRUE(k.has_batch());
  const std::size_t n = cm.n();

  for (const std::size_t nb : {1u, 3u, 4u, 8u, 17u}) {
    std::vector<double> ts(nb);
    std::vector<double> y_soa(n * nb), f_soa(n * nb);
    for (std::size_t j = 0; j < nb; ++j) {
      ts[j] = 0.01 * static_cast<double>(j);
      for (std::size_t i = 0; i < n; ++i) {
        y_soa[i * nb + j] = cm.flat->states()[i].start +
                            1e-3 * static_cast<double>((i + 3 * j) % 11);
      }
    }
    k.eval_batch(0, nb, ts.data(), y_soa.data(), f_soa.data());

    std::vector<double> y(n), f(n);
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        y[i] = y_soa[i * nb + j];
      }
      k(ts[j], y, f);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(f_soa[i * nb + j], f[i])
            << "width " << nb << " lane " << j << " slot " << i;
      }
    }
  }
}

struct ModelCase {
  const char* name;
  pipeline::ModelBuilder builder;
};

std::vector<ModelCase> all_models() {
  std::vector<ModelCase> cases;
  cases.push_back({"oscillator", models::build_oscillator});
  cases.push_back({"bearing2d", [](expr::Context& ctx) {
                     models::BearingConfig cfg;
                     cfg.n_rollers = 5;
                     return models::build_bearing(ctx, cfg);
                   }});
  cases.push_back({"hydro", models::build_hydro});
  cases.push_back({"heat1d", [](expr::Context& ctx) {
                     models::Heat1dConfig cfg;
                     cfg.n_cells = 16;
                     return models::build_heat1d(ctx, cfg);
                   }});
  return cases;
}

TEST(SimdDifferential, InterpBatchMatchesScalarBitwiseOnAllModels) {
  for (const auto& mc : all_models()) {
    SCOPED_TRACE(mc.name);
    expect_batch_matches_scalar_bitwise(pipeline::compile_model(mc.builder),
                                        exec::Backend::kInterp);
  }
}

TEST(SimdDifferential, NativeBatchMatchesScalarBitwiseOnAllModels) {
  for (const auto& mc : all_models()) {
    SCOPED_TRACE(mc.name);
    pipeline::CompiledModel cm = pipeline::compile_model(mc.builder);
    const exec::KernelInstance probe =
        cm.make_kernel(exec::Backend::kNative, cache_opts());
    if (probe.backend() != exec::Backend::kNative) {
      GTEST_SKIP() << "no host compiler; native backend unavailable";
    }
    expect_batch_matches_scalar_bitwise(std::move(cm),
                                        exec::Backend::kNative);
  }
}

}  // namespace
}  // namespace omx::ode
