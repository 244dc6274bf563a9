// Expression transformer (§3.1, Figure 9): turns the flat equation system
// into the list of assignments that "really needs to be computed by the
// generated code" — derivatives removed, equations replaced by assignments
// whose right-hand sides are the equation right-hand sides.
//
// It is also the one place algebraic variables are inlined. Parallel tasks
// are self-contained (no values are shared between tasks in the
// distributed version), so every consumer that needs a state's
// right-hand side in terms of states, parameters and time alone reads
// `inlined_rhs` or applies `resolved_algebraics` instead of re-deriving it.
#pragma once

#include <unordered_map>

#include "omx/model/flat_system.hpp"

namespace omx::codegen {

struct Assignment {
  enum class Kind { kAlgebraic, kStateDer };
  Kind kind = Kind::kStateDer;
  int index = 0;  // algebraic index or state index
  SymbolId target = kInvalidSymbol;
  expr::ExprId rhs = expr::kNoExpr;
};

struct AssignmentSet {
  /// Auxiliary assignments in dependency order.
  std::vector<Assignment> algebraics;
  /// One per state: <name>dot = rhs.
  std::vector<Assignment> states;
  /// Algebraic symbol -> its definition with every algebraic it reads
  /// already substituted. Apply with one Pool::substitute to inline all
  /// algebraics of any expression over the flat system.
  std::unordered_map<SymbolId, expr::ExprId> resolved_algebraics;
  /// One per state: states[i].rhs with `resolved_algebraics` applied.
  std::vector<expr::ExprId> inlined_rhs;
};

struct TransformOptions {
  /// Run algebraic simplification over every RHS first.
  bool simplify = true;
};

AssignmentSet build_assignments(const model::FlatSystem& flat,
                                const TransformOptions& opts = {});

}  // namespace omx::codegen
