// Bundles the two append-only tables that every symbolic stage shares:
// the name interner and the expression pool. One Context lives for the
// whole compile-and-run pipeline of a model.
#pragma once

#include <mutex>
#include <string_view>

#include "omx/expr/builder.hpp"
#include "omx/expr/pool.hpp"

namespace omx::expr {

struct Context {
  Interner names;
  Pool pool;
  /// The tables are not thread-safe. Work that may run on several
  /// threads at once and interns into them (code emission: CSE temps and
  /// local aliases) holds this lock.
  std::mutex emit_mutex;

  /// Interns `name` and returns the symbol expression for it.
  Ex var(std::string_view name) {
    return Ex::symbol(pool, names.intern(name));
  }

  /// Numeric literal.
  Ex lit(double v) { return Ex::lit(pool, v); }

  /// der(x) for an equation left-hand side.
  Ex der(std::string_view name) {
    return {pool, pool.der(pool.sym(names.intern(name)))};
  }

  SymbolId symbol(std::string_view name) { return names.intern(name); }
};

}  // namespace omx::expr
