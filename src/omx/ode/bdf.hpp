// Backward differentiation formulas (orders 1-5) with modified Newton —
// the stiff method family of LSODA/ODEPACK (§3.2.1; Hindmarsh 1983).
//
// The implementation uses uniform-step BDF with automatic order ramp-up:
// after every (re)start or step-size change the history is reset and the
// order climbs 1 -> target as uniform points accumulate; this is the
// classical fixed-leading-coefficient strategy in its simplest robust
// form. The iteration matrix I - h*beta*J lives in a JacobianEngine:
// factorizations are reused across Newton iterations and steps, a
// beta*h change alone refactors with the existing Jacobian values, and
// only divergence, slow convergence, or age re-evaluates the Jacobian
// (LSODA-style; see ode/jacobian.hpp).
//
// BDF lanes live in SoA: a BdfLanes block holds every lane's history and
// Newton state, element i of slot j at [i * width + j], and runs one step
// attempt of many lanes at once with the elementwise phases (predictor,
// residual, update, error norm) as lane-inner loops. A BdfStepper is one
// lane's control: its time, step size, order, history map, Newton
// counters and statistics. The step loop around it is the multistep lane
// stepper in ode/ensemble.cpp; ode::solve runs the same code on a width-1
// block.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "omx/la/sparse.hpp"
#include "omx/ode/events.hpp"
#include "omx/ode/jacobian.hpp"
#include "omx/ode/lane_block.hpp"
#include "omx/ode/solve.hpp"

namespace omx::ode {

class BdfStepper;

/// The SoA state of a set of BDF lanes, one per slot of a LaneBlock, and
/// the step attempt that runs them in lockstep. Each slot also holds a
/// JacobianEngine, which a lane seated in the slot later reuses: its
/// factorization's storage carries over, so the lane's first
/// factorization is the in-place refactor. Allocates nothing once it has
/// reached its widest; not safe to use from two threads at once.
class BdfLanes {
 public:
  /// Every lane evaluates `p`: its RHS through one LaneRhs on kernel
  /// lane `lane`, and its Jacobian through the slot's engine.
  explicit BdfLanes(const Problem& p, std::size_t lane = 0);
  // The slots' engines and steppers refer into the block.
  BdfLanes(const BdfLanes&) = delete;
  BdfLanes& operator=(const BdfLanes&) = delete;

  std::size_t width() const { return blk_.width(); }
  /// Widens the block to hold `slot` (LaneBlock::widen).
  void seat(std::size_t slot);
  /// LaneBlock::trim: drops the slots from `w` on, which hold no lane.
  void trim(std::size_t w) { blk_.trim(w); }
  /// LaneBlock::restride; each kept slot's engine moves with its lane,
  /// and the lanes' steppers must be told their new slots (set_slot).
  void restride(std::span<const std::size_t> keep);

  /// One step attempt of each lane in `lanes` (distinct slots). Each
  /// lane begins its attempt; the predictor and the BDF sum run over the
  /// lanes together; then every Newton iteration is one LaneRhs call
  /// over the lanes still iterating, the residual, one la::LaneSolver
  /// solve and the update, and a lane leaves the iteration when it
  /// converges or fails; the error norms run over the lanes together,
  /// and each lane ends its attempt. Every lane does
  /// its own operations in its own order, so its bits do not depend on
  /// the lanes beside it. BdfStepper::accepted() has each outcome.
  void attempt(std::span<BdfStepper* const> lanes);

 private:
  friend class BdfStepper;

  // Block arrays: the 6 history points (kept; a lane's map says which
  // array holds which point), then the attempt's iterate, predictor,
  // error weights at the predictor, BDF sum sum_i a_i y_{n+1-i}, RHS and
  // residual (solved into the correction in place).
  static constexpr std::size_t kHistory = 6;
  static constexpr std::size_t kYnew = 6, kPred = 7, kW = 8, kRc = 9, kF = 10,
                               kG = 11;

  JacobianEngine& engine(std::size_t slot);
  /// Lane j's column of array `a`: a width-1 block's array itself, else
  /// gathered into `into` (of size n).
  std::span<const double> column(std::size_t a, std::size_t j,
                                 std::vector<double>& into);
  /// The predictor, the iterate's start and the BDF sum of the lanes in
  /// began_, one pass per group of lanes with one order, one number of
  /// predictor points and the same arrays holding those points.
  void predict();
  template <int K, int Points>
  void predict_group(std::span<const std::size_t> lanes,
                     const std::uint8_t* map);
  /// kF = rhs(newton t, kYnew) for the lanes in iterating_.
  void eval_rhs();

  const Problem& p_;
  LaneRhs f_;  // every evaluation of the lanes, their Jacobians' included
  LaneBlock blk_;
  std::vector<std::unique_ptr<JacobianEngine>> engines_;  // by slot
  // Slot-indexed, for the lanes of the attempt in flight: the stepper,
  // the Newton time, beta*h, k + 1, the tolerances and a norm
  // accumulator.
  std::vector<BdfStepper*> at_;
  simd::aligned_vector<double> ts_, bh_, kp1_, atol_, rtol_, acc_;
  // The slots that began an attempt, those still iterating, and the
  // iterating lanes' factorizations; the slots that began by the array
  // holding their oldest history point.
  std::vector<std::size_t> began_, iterating_;
  std::array<std::vector<std::size_t>, kHistory> oldest_;
  std::vector<const la::SparseLu*> solvers_;
  // predict()'s groups: the first `groups` of groups_ are in use.
  struct Group {
    int cls = 0;  // 2 (k - 1) + (points - k)
    const std::uint8_t* map = nullptr;
    std::vector<std::size_t> lanes;
  };
  std::vector<Group> groups_;
  la::LaneSolver lane_solver_;
  // One lane's vectors: a gathered column, the fixed-step mode's RK4
  // state, restart()'s RHS value and error weights, and the RK4 stages;
  // the compacted RHS input, value and times.
  std::vector<double> col_, ya_, fa_, wa_, rk4_;
  simd::aligned_vector<double> yc_, fc_, tc_;
};

/// One BDF lane: the control of its step attempts; reads tol,
/// bdf_max_order, h0, hmax, newton_max_iters and bdf_fixed_h from the
/// options. Its history and Newton state live in column `slot` of a
/// BdfLanes block.
class BdfStepper {
 public:
  BdfStepper(const Problem& p, const SolverOptions& opts, BdfLanes& lanes,
             std::size_t slot);

  void restart(double t, std::span<const double> y, double h);

  /// Attempts one step alone; true = accepted.
  bool step();
  /// Whether the last attempt was accepted.
  bool accepted() const { return accepted_; }

  /// The lane's slot after its block re-strided.
  void set_slot(std::size_t slot) { slot_ = slot; }

  double t() const { return t_; }
  /// The state, gathered into `into` (of size n) unless the block is one
  /// lane wide.
  std::span<const double> y(std::vector<double>& into) const;
  /// The state as every width()-th element from y_column().
  const double* y_column() const;
  std::size_t y_stride() const { return lanes_.width(); }
  double h() const { return h_; }
  int current_order() const { return order_; }
  /// Newton iterations used by the last accepted step (fast convergence
  /// signals the problem is no longer stiff — switch-back heuristic).
  std::size_t last_newton_iters() const { return last_newton_iters_; }

  /// Dense output over the step just accepted: Lagrange evaluation of
  /// the uniform history (the BDF interpolating polynomial the corrector
  /// itself is built on). Valid immediately after an accepted attempt —
  /// event localization is its consumer.
  DenseOutput last_step_dense() const;

  SolverStats& stats() { return stats_; }

 private:
  friend class BdfLanes;
  static constexpr std::size_t kHistory = BdfLanes::kHistory;

  /// Makes `y` the newest history point, dropping the oldest when full.
  void push_history(std::span<const double> y);
  /// Starts an attempt: step size and order. False when the attempt
  /// takes no Newton iteration because it already finished (the
  /// fixed-step mode's final interval).
  bool begin();
  /// The iteration matrix of the attempt; false when it takes no Newton
  /// iteration (newton_max_iters = 0).
  bool prepare();
  /// After the update of an iteration with displacement norm `dn`: true
  /// when another iteration follows.
  bool newton_control(double dn);
  /// Ends the attempt from the error norm `err` of the corrector against
  /// the predictor: accept or reject.
  void finish(double err);

  const Problem& p_;
  SolverOptions opts_;
  BdfLanes& lanes_;
  std::size_t slot_;
  JacobianEngine* jac_;  // the slot's engine

  double t_ = 0.0;
  double h_ = 0.0;
  int order_ = 1;  // current ramped order
  // map_[p] = the block array holding history point p (p = 0 is y_n),
  // valid for p < hist_len_. Accepted steps rotate it and step-size
  // doubling permutes it; neither moves a point's values.
  std::array<std::uint8_t, kHistory> map_ = {0, 1, 2, 3, 4, 5};
  std::size_t hist_len_ = 0;
  // The attempt in flight, set by begin().
  struct Attempt {
    double h = 0.0;         // its step size
    double rem = 0.0;       // tend - t at its start
    double beta_h = 0.0;    // beta * h of its order
    int k = 1;              // its order
    int points = 1;         // predictor points: min(k + 1, hist_len)
    bool clipped = false;   // the final step, shortened to reach tend
  } attempt_;
  // Newton state of the attempt in flight.
  const la::SparseLu* solver_ = nullptr;
  std::size_t iter_ = 0;
  double prev_norm_ = 0.0;
  bool refreshed_ = false;  // the Jacobian was refreshed on divergence
  bool converged_ = false;
  bool accepted_ = false;
  // Node spacing / count for last_step_dense(), refreshed per accepted
  // step (growth subsampling changes the spacing after the insert).
  double last_node_h_ = 0.0;
  std::size_t last_dense_points_ = 2;
  std::size_t last_newton_iters_ = 0;
  SolverStats stats_;
};

}  // namespace omx::ode
