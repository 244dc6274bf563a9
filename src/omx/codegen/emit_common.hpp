// Shared machinery for the text emitters (Fortran 90 and C++): the
// line-counting output buffer, local-name planning (state aliases,
// parameter constants, sanitized temps) and the per-unit CSE preparation
// step.
#pragma once

#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "omx/codegen/cse.hpp"
#include "omx/codegen/tasks.hpp"

namespace omx::codegen {

/// An emitter's output: the text, its line count and how many of those
/// lines are declarations (the emission statistics).
class Emitter {
 public:
  void line(const std::string& s) {
    os_ << s << "\n";
    ++total_;
  }
  void decl(const std::string& s) {
    os_ << s << "\n";
    ++total_;
    ++decls_;
  }
  std::string str() const { return os_.str(); }
  std::size_t total() const { return total_; }
  std::size_t decls() const { return decls_; }

 private:
  std::ostringstream os_;
  std::size_t total_ = 0;
  std::size_t decls_ = 0;
};

/// Symbol -> local-alias substitution for one emission unit, plus what the
/// unit referenced (drives declaration emission).
struct RenamePlan {
  std::unordered_map<SymbolId, expr::ExprId> map;
  std::vector<std::pair<std::string, int>> state_aliases;    // alias, index
  std::vector<std::pair<std::string, double>> param_consts;  // alias, value
  std::set<std::string> locals;  // all alias names introduced
};

RenamePlan plan_renames(const model::FlatSystem& flat,
                        const std::vector<expr::ExprId>& exprs);

struct UnitEmission {
  RenamePlan renames;
  CseResult cse;
  std::vector<TaskUnit> units;  // parallel mode only
};

UnitEmission prepare_unit(const model::FlatSystem& flat,
                          const std::vector<expr::ExprId>& roots,
                          const std::string& temp_prefix,
                          std::size_t cse_min_ops);

expr::ExprId apply_renames(expr::Context& ctx, const RenamePlan& plan,
                           expr::ExprId e);

}  // namespace omx::codegen
