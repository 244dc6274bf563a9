// Zero-copy trajectory streaming: solvers write accepted steps into
// chunked, preallocated buffers handed to the consumer, instead of
// growing a Solution they return by value at the end.
//
// The flow is pull/push symmetric: a solver-side TrajectoryWriter asks
// the consumer's TrajectorySink to `acquire` a chunk, fills rows in
// place (one row = one accepted step: a time plus the state vector),
// and `commit`s the chunk back when it is full or the trajectory ends.
// The consumer sees the solver's own buffers — no intermediate copy,
// bounded memory (one chunk per in-flight trajectory), and chunks are
// recycled through the sink's pool instead of reallocated.
//
// Threading contract: a single ode::solve drives its sink from one
// thread. ode::solve_ensemble calls acquire/commit/finish concurrently
// from its workers (at most one writer per scenario at any moment), so
// ensemble sinks must make those entry points thread-safe. The sinks
// in this header follow that contract; custom sinks handed to
// solve_ensemble must too.
//
// Determinism: the sink layer only moves accepted-step data; it never
// reorders or transforms it. A trajectory streamed through any sink is
// row-for-row bitwise identical to the Solution the compatibility
// wrappers build from the same stream.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "omx/ode/problem.hpp"
#include "omx/support/simd.hpp"

namespace omx::ode {

/// A block of consecutive accepted steps of one scenario's trajectory.
/// Row i is (times[i], states[i*n .. i*n+n)). Buffers are 64-byte
/// aligned (simd.hpp) so consumers may run vectorized reductions over
/// whole chunks.
struct TrajectoryChunk {
  std::uint32_t scenario = 0;
  std::size_t n = 0;         // state width
  std::size_t capacity = 0;  // rows allocated
  std::size_t size = 0;      // rows filled
  /// True when this chunk closes the trajectory. A trajectory whose
  /// last accepted step lands exactly on a chunk boundary commits that
  /// chunk full with final == false; the authoritative end-of-stream
  /// signal is always TrajectorySink::finish.
  bool final = false;
  simd::aligned_vector<double> times;   // [capacity]
  simd::aligned_vector<double> states;  // [capacity * n], row-major

  /// (Re)shapes for `rows` steps of width `width` and clears size/final.
  void reset(std::uint32_t scenario_id, std::size_t width, std::size_t rows);

  double* row(std::size_t i) { return states.data() + i * n; }
  std::span<const double> row_view(std::size_t i) const {
    return {states.data() + i * n, n};
  }
};

/// Consumer side of the stream. Implementations own every chunk they
/// hand out: `acquire` lends one to the writer, `commit` returns it
/// (typically back into a free pool after the rows are consumed).
class TrajectorySink {
 public:
  static constexpr std::size_t kDefaultChunkRows = 256;

  virtual ~TrajectorySink() = default;

  /// Lends an empty chunk (size 0, capacity >= 1) for `scenario` with
  /// state width n. The writer fills it and must commit it back.
  virtual TrajectoryChunk* acquire(std::uint32_t scenario, std::size_t n) = 0;

  /// Takes back a filled (possibly partial) chunk. After this call the
  /// writer must not touch the chunk again.
  virtual void commit(TrajectoryChunk* chunk) = 0;

  /// The scenario's trajectory is complete; `stats` are its final
  /// solver statistics. Called exactly once per successful solve,
  /// after the last commit. Not called when the solve throws.
  virtual void finish(std::uint32_t scenario, const SolverStats& stats) = 0;
};

/// Solver-side helper: buffers appends into the current chunk and talks
/// to the sink at chunk granularity. Move-only; a moved-from writer is
/// inert. If a solve throws, the writer abandons its partial chunk
/// without committing (the pool reclaims the storage when the sink is
/// destroyed) and finish() is never delivered.
class TrajectoryWriter {
 public:
  TrajectoryWriter() = default;
  TrajectoryWriter(TrajectorySink& sink, std::uint32_t scenario,
                   std::size_t n)
      : sink_(&sink), scenario_(scenario), n_(n) {}

  TrajectoryWriter(TrajectoryWriter&& o) noexcept { *this = std::move(o); }
  TrajectoryWriter& operator=(TrajectoryWriter&& o) noexcept {
    sink_ = std::exchange(o.sink_, nullptr);
    scenario_ = o.scenario_;
    n_ = o.n_;
    chunk_ = std::exchange(o.chunk_, nullptr);
    return *this;
  }
  TrajectoryWriter(const TrajectoryWriter&) = delete;
  TrajectoryWriter& operator=(const TrajectoryWriter&) = delete;

  /// Records one accepted step.
  void append(double t, std::span<const double> y) {
    if (chunk_ == nullptr) {
      chunk_ = sink_->acquire(scenario_, n_);
    }
    chunk_->times[chunk_->size] = t;
    double* dst = chunk_->row(chunk_->size);
    for (std::size_t i = 0; i < n_; ++i) {
      dst[i] = y[i];
    }
    if (++chunk_->size == chunk_->capacity) {
      sink_->commit(std::exchange(chunk_, nullptr));
    }
  }

  /// Records one accepted step whose state is every `stride`-th element
  /// from `y` (one lane's column of a lane block).
  void append(double t, const double* y, std::size_t stride) {
    if (stride == 1) {
      append(t, {y, n_});
      return;
    }
    if (chunk_ == nullptr) {
      chunk_ = sink_->acquire(scenario_, n_);
    }
    chunk_->times[chunk_->size] = t;
    double* dst = chunk_->row(chunk_->size);
    for (std::size_t i = 0; i < n_; ++i) {
      dst[i] = y[i * stride];
    }
    if (++chunk_->size == chunk_->capacity) {
      sink_->commit(std::exchange(chunk_, nullptr));
    }
  }

  /// Commits the partial tail chunk (flagged final) and delivers the
  /// end-of-trajectory signal with the solve's statistics.
  void finish(const SolverStats& stats) {
    if (chunk_ != nullptr) {
      chunk_->final = true;
      sink_->commit(std::exchange(chunk_, nullptr));
    }
    sink_->finish(scenario_, stats);
  }

 private:
  TrajectorySink* sink_ = nullptr;
  std::uint32_t scenario_ = 0;
  std::size_t n_ = 0;
  TrajectoryChunk* chunk_ = nullptr;
};

namespace detail {

/// Chunk storage shared by the built-in sinks: owns every chunk it ever
/// allocates (leak-free even when a writer abandons one mid-solve) and
/// recycles committed chunks through a free list.
class ChunkPool {
 public:
  explicit ChunkPool(std::size_t chunk_rows) : rows_(chunk_rows) {}

  TrajectoryChunk* get(std::uint32_t scenario, std::size_t n);
  void put(TrajectoryChunk* c) { free_.push_back(c); }

 private:
  std::size_t rows_;
  std::vector<std::unique_ptr<TrajectoryChunk>> all_;
  std::vector<TrajectoryChunk*> free_;
};

}  // namespace detail

/// Compatibility sink: collects the stream back into a Solution. This
/// is what the Solution-returning ode::solve overload uses internally.
/// Single-threaded (plain solve only).
class SolutionSink final : public TrajectorySink {
 public:
  explicit SolutionSink(std::size_t chunk_rows = kDefaultChunkRows)
      : pool_(chunk_rows) {}

  TrajectoryChunk* acquire(std::uint32_t scenario, std::size_t n) override;
  void commit(TrajectoryChunk* chunk) override;
  void finish(std::uint32_t scenario, const SolverStats& stats) override;

  const Solution& solution() const { return sol_; }
  Solution take() { return std::move(sol_); }

 private:
  detail::ChunkPool pool_;
  Solution sol_;
};

/// Compatibility sink for solve_ensemble: one Solution per scenario, in
/// scenario-id order. Thread-safe per the ensemble contract (the chunk
/// pool is locked; per-scenario Solutions have a single writer each).
class EnsembleCollectSink final : public TrajectorySink {
 public:
  explicit EnsembleCollectSink(std::size_t num_scenarios,
                               std::size_t chunk_rows = kDefaultChunkRows)
      : pool_(chunk_rows), solutions_(num_scenarios) {}

  TrajectoryChunk* acquire(std::uint32_t scenario, std::size_t n) override;
  void commit(TrajectoryChunk* chunk) override;
  void finish(std::uint32_t scenario, const SolverStats& stats) override;

  std::vector<Solution> take() { return std::move(solutions_); }

 private:
  std::mutex mutex_;  // guards pool_ only
  detail::ChunkPool pool_;
  std::vector<Solution> solutions_;
};

/// Streaming sink that retains no trajectory: rows are dropped on
/// commit, keeping only each scenario's final (time, state) and stats.
/// Memory stays bounded by one chunk per in-flight scenario no matter
/// how long the integration runs — the natural choice for benchmarks
/// and throughput sweeps. Thread-safe.
class StatsOnlySink final : public TrajectorySink {
 public:
  explicit StatsOnlySink(std::size_t num_scenarios = 1,
                         std::size_t chunk_rows = kDefaultChunkRows)
      : pool_(chunk_rows), finals_(num_scenarios), stats_(num_scenarios) {}

  TrajectoryChunk* acquire(std::uint32_t scenario, std::size_t n) override;
  void commit(TrajectoryChunk* chunk) override;
  void finish(std::uint32_t scenario, const SolverStats& stats) override;

  const SolverStats& stats(std::size_t scenario = 0) const {
    return stats_[scenario];
  }
  double final_time(std::size_t scenario = 0) const {
    return finals_[scenario].t;
  }
  std::span<const double> final_state(std::size_t scenario = 0) const {
    return finals_[scenario].y;
  }

 private:
  struct Final {
    double t = 0.0;
    std::vector<double> y;
  };
  std::mutex mutex_;  // guards pool_ only
  detail::ChunkPool pool_;
  std::vector<Final> finals_;
  std::vector<SolverStats> stats_;
};

}  // namespace omx::ode
