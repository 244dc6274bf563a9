// Hash-consed symbolic expression DAG.
//
// Every distinct expression node is stored exactly once in a Pool; building
// the same subexpression twice returns the same ExprId. This gives
//  * O(1) structural equality (id comparison),
//  * free sharing detection for common-subexpression elimination (a node
//    referenced from several parents *is* a common subexpression),
//  * compact cache-friendly storage (nodes are 16 bytes, children are ids).
//
// Nodes are immutable; all transformations (simplify, differentiate,
// substitute) build new nodes in the same pool.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "omx/support/diagnostics.hpp"
#include "omx/support/interner.hpp"

namespace omx::expr {

/// Index of a node inside its Pool.
using ExprId = std::uint32_t;

inline constexpr ExprId kNoExpr = 0xffffffffu;

enum class Op : std::uint8_t {
  kConst,  // payload a = index into the pool's constant table
  kSym,    // payload a = SymbolId
  kAdd,    // a + b
  kSub,    // a - b
  kMul,    // a * b
  kDiv,    // a / b
  kPow,    // a ^ b
  kNeg,    // -a
  kCall1,  // fn(a), fn is a Func1
  kCall2,  // fn(a, b), fn is a Func2
  kDer,    // der(a): time-derivative marker, only legal as an equation LHS
};

enum class Func1 : std::uint8_t {
  kSin,
  kCos,
  kTan,
  kAsin,
  kAcos,
  kAtan,
  kSinh,
  kCosh,
  kTanh,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kSign,  // -1 / 0 / +1
};

enum class Func2 : std::uint8_t {
  kAtan2,
  kMin,
  kMax,
  kHypot,
};

const char* func1_name(Func1 f);
const char* func2_name(Func2 f);

/// One immutable DAG node. For leaf ops `a` holds the payload; for unary
/// ops `b` is unused (kNoExpr); `fn` is only meaningful for kCall1/kCall2.
struct Node {
  Op op;
  std::uint8_t fn = 0;
  ExprId a = kNoExpr;
  ExprId b = kNoExpr;

  bool operator==(const Node& o) const = default;
};

/// Append-only hash-consing store for expression nodes.
class Pool {
 public:
  // -- leaf constructors ----------------------------------------------------
  ExprId constant(double value);
  ExprId sym(SymbolId s);

  // -- compound constructors (no algebraic rewriting; see simplify.hpp) -----
  ExprId add(ExprId a, ExprId b) { return intern(Op::kAdd, 0, a, b); }
  ExprId sub(ExprId a, ExprId b) { return intern(Op::kSub, 0, a, b); }
  ExprId mul(ExprId a, ExprId b) { return intern(Op::kMul, 0, a, b); }
  ExprId div(ExprId a, ExprId b) { return intern(Op::kDiv, 0, a, b); }
  ExprId pow(ExprId a, ExprId b) { return intern(Op::kPow, 0, a, b); }
  ExprId neg(ExprId a) { return intern(Op::kNeg, 0, a, kNoExpr); }
  ExprId call(Func1 f, ExprId a) {
    return intern(Op::kCall1, static_cast<std::uint8_t>(f), a, kNoExpr);
  }
  ExprId call(Func2 f, ExprId a, ExprId b) {
    return intern(Op::kCall2, static_cast<std::uint8_t>(f), a, b);
  }
  /// der(x) where x must be a kSym node.
  ExprId der(ExprId symbol);

  // -- inspection ------------------------------------------------------------
  const Node& node(ExprId id) const {
    OMX_REQUIRE(id < nodes_.size(), "expr id out of range");
    return nodes_[id];
  }
  double const_value(ExprId id) const;
  SymbolId sym_of(ExprId id) const;
  bool is_const(ExprId id, double v) const;
  std::size_t size() const { return nodes_.size(); }

  /// Number of arithmetic operations in the *tree* expansion of `id`
  /// (shared nodes counted every time they appear). This matches what a
  /// naive code generator without CSE would emit.
  std::size_t tree_op_count(ExprId id) const;

  /// Number of distinct operation nodes reachable from `id` (shared nodes
  /// counted once) — the op count after perfect CSE.
  std::size_t dag_op_count(ExprId id) const;

  /// Collects the free symbols of `id` into `out` (deduplicated, sorted).
  void free_syms(ExprId id, std::vector<SymbolId>& out) const;

  /// Collects the free symbols of every root into `out` (deduplicated,
  /// sorted): one traversal whose visited set is shared by the roots.
  void free_syms(std::span<const ExprId> roots,
                 std::vector<SymbolId>& out) const;

  /// Replaces every occurrence of symbol `from` with expression `to`.
  ExprId substitute(ExprId id, SymbolId from, ExprId to);

  /// Replaces symbols per `map` (missing symbols stay). One simultaneous pass.
  ExprId substitute(ExprId id,
                    const std::unordered_map<SymbolId, ExprId>& map);

 private:
  ExprId intern(Op op, std::uint8_t fn, ExprId a, ExprId b);

  struct NodeHash {
    std::size_t operator()(const Node& n) const;
  };

  std::vector<Node> nodes_;
  std::vector<double> consts_;
  std::unordered_map<Node, ExprId, NodeHash> dedup_;
  std::unordered_map<std::uint64_t, std::uint32_t> const_index_;  // bits->idx
};

}  // namespace omx::expr
