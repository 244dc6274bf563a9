// Register-machine tape: the executable form of the generated RHS code.
//
// The paper compiles generated Fortran 90 with the platform compiler; here
// the same task structure (per-task straight-line code with task-local
// common subexpressions) is compiled to a flat three-address tape executed
// by a small interpreter. Workers own private register files, mirroring
// the distributed-memory execution model: no temporaries are shared
// between tasks in the parallel program (§3.3).
//
// Register layout:
//   [0, n_state)                      current state y
//   [n_state]                         the free variable t
//   [n_state+1, n_state+1+n_consts)   literal/parameter constants
//   [.., n_regs)                      temporaries
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "omx/support/diagnostics.hpp"

namespace omx::vm {

enum class OpCode : std::uint8_t {
  kAdd,    // r[dst] = r[a] + r[b]
  kSub,    // r[dst] = r[a] - r[b]
  kMul,    // r[dst] = r[a] * r[b]
  kDiv,    // r[dst] = r[a] / r[b]
  kPow,    // r[dst] = pow(r[a], r[b])
  kNeg,    // r[dst] = -r[a]
  kFunc1,  // r[dst] = f(r[a]),      f = Func1(fn)
  kFunc2,  // r[dst] = f(r[a], r[b]), f = Func2(fn)
  kCopy,   // r[dst] = r[a]
};

struct Instr {
  OpCode op;
  std::uint8_t fn = 0;
  std::uint32_t dst = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// Where a task delivers a result: ydot[slot] += r[reg]. Contributions
/// accumulate so that one state's derivative may be split over several
/// tasks (partial-sum splitting of large equations, §3.2).
struct Output {
  std::uint32_t reg = 0;
  std::uint32_t slot = 0;
};

/// One schedulable unit: a contiguous range of the tape plus its outputs.
struct TaskCode {
  std::uint32_t code_begin = 0;
  std::uint32_t code_end = 0;
  std::vector<Output> outputs;
  /// State indices this task actually reads (communication analysis).
  std::vector<std::uint32_t> in_states;
  /// Static cost estimate: number of instructions.
  std::uint32_t est_ops = 0;
  std::string label;
};

struct Program {
  std::uint32_t n_state = 0;
  /// Number of output slots; equals n_state for an RHS program, n_state^2
  /// for a Jacobian program.
  std::uint32_t n_out = 0;
  std::uint32_t n_regs = 0;
  std::vector<double> init_regs;  // constants preloaded; size n_regs
  std::vector<Instr> code;
  std::vector<TaskCode> tasks;

  std::uint32_t t_reg() const { return n_state; }

  /// Total instruction count across all tasks.
  std::size_t total_ops() const { return code.size(); }

  void validate() const;  // bounds-checks every instruction (throws Bug)
};

/// A private register file (one per worker / per serial evaluator).
class Workspace {
 public:
  Workspace() = default;
  explicit Workspace(const Program& p) { reset(p); }

  /// (Re)loads `p`'s constants, reusing the register storage.
  void reset(const Program& p) {
    OMX_REQUIRE(p.init_regs.size() == p.n_regs, "bad init_regs");
    regs_.assign(p.init_regs.begin(), p.init_regs.end());
  }

  /// Loads (t, y) into the designated registers.
  void load_state(const Program& p, double t, std::span<const double> y);

  std::span<double> regs() { return regs_; }

 private:
  std::vector<double> regs_;
};

}  // namespace omx::vm
