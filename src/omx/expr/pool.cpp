#include "omx/expr/pool.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace omx::expr {

const char* func1_name(Func1 f) {
  switch (f) {
    case Func1::kSin: return "sin";
    case Func1::kCos: return "cos";
    case Func1::kTan: return "tan";
    case Func1::kAsin: return "asin";
    case Func1::kAcos: return "acos";
    case Func1::kAtan: return "atan";
    case Func1::kSinh: return "sinh";
    case Func1::kCosh: return "cosh";
    case Func1::kTanh: return "tanh";
    case Func1::kExp: return "exp";
    case Func1::kLog: return "log";
    case Func1::kSqrt: return "sqrt";
    case Func1::kAbs: return "abs";
    case Func1::kSign: return "sign";
  }
  return "?";
}

const char* func2_name(Func2 f) {
  switch (f) {
    case Func2::kAtan2: return "atan2";
    case Func2::kMin: return "min";
    case Func2::kMax: return "max";
    case Func2::kHypot: return "hypot";
  }
  return "?";
}

std::size_t Pool::NodeHash::operator()(const Node& n) const {
  // FNV-style mix over the four fields; quality is sufficient for dedup.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(n.op));
  mix(n.fn);
  mix(n.a);
  mix(static_cast<std::uint64_t>(n.b) << 1);
  return static_cast<std::size_t>(h);
}

ExprId Pool::intern(Op op, std::uint8_t fn, ExprId a, ExprId b) {
  const Node n{op, fn, a, b};
  if (auto it = dedup_.find(n); it != dedup_.end()) {
    return it->second;
  }
  nodes_.push_back(n);
  const ExprId id = static_cast<ExprId>(nodes_.size() - 1);
  dedup_.emplace(n, id);
  return id;
}

ExprId Pool::constant(double value) {
  // Canonicalize -0.0 to +0.0 so the two compare equal as nodes.
  if (value == 0.0) {
    value = 0.0;
  }
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  auto it = const_index_.find(bits);
  std::uint32_t idx;
  if (it != const_index_.end()) {
    idx = it->second;
  } else {
    consts_.push_back(value);
    idx = static_cast<std::uint32_t>(consts_.size() - 1);
    const_index_.emplace(bits, idx);
  }
  return intern(Op::kConst, 0, idx, kNoExpr);
}

ExprId Pool::sym(SymbolId s) { return intern(Op::kSym, 0, s, kNoExpr); }

ExprId Pool::der(ExprId symbol) {
  OMX_REQUIRE(node(symbol).op == Op::kSym, "der() applies to a symbol");
  return intern(Op::kDer, 0, symbol, kNoExpr);
}

double Pool::const_value(ExprId id) const {
  const Node& n = node(id);
  OMX_REQUIRE(n.op == Op::kConst, "node is not a constant");
  return consts_[n.a];
}

SymbolId Pool::sym_of(ExprId id) const {
  const Node& n = node(id);
  OMX_REQUIRE(n.op == Op::kSym, "node is not a symbol");
  return static_cast<SymbolId>(n.a);
}

bool Pool::is_const(ExprId id, double v) const {
  const Node& n = node(id);
  return n.op == Op::kConst && consts_[n.a] == v;
}

namespace {

bool has_two_children(Op op) {
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv:
    case Op::kPow:
    case Op::kCall2:
      return true;
    default:
      return false;
  }
}

bool is_leaf(Op op) { return op == Op::kConst || op == Op::kSym; }

/// Per-node scratch for one traversal without whole-pool allocation per
/// call: the emitters and the task planner call the traversals below
/// once per small unit of a large model, so the work must scale with the
/// nodes a call reaches, not with the pool. Each thread keeps one stamp
/// array, grown to the largest pool it has seen; a node is marked when
/// its stamp equals this traversal's epoch. Traversals do not nest.
class NodeMarks {
 public:
  explicit NodeMarks(std::size_t pool_size) : s_(scratch()) {
    OMX_REQUIRE(!s_.busy, "nested expression traversal on one thread");
    s_.busy = true;
    if (s_.stamps.size() < pool_size) {
      s_.stamps.resize(pool_size, 0);
      s_.values.resize(pool_size, 0);
    }
    if (++s_.epoch == 0) {  // wrapped: old stamps could alias
      std::fill(s_.stamps.begin(), s_.stamps.end(), 0);
      s_.epoch = 1;
    }
  }
  ~NodeMarks() { s_.busy = false; }
  NodeMarks(const NodeMarks&) = delete;
  NodeMarks& operator=(const NodeMarks&) = delete;

  bool marked(ExprId id) const { return s_.stamps[id] == s_.epoch; }
  /// Marks `id`; true if it was not marked yet.
  bool mark(ExprId id) {
    if (marked(id)) {
      return false;
    }
    s_.stamps[id] = s_.epoch;
    return true;
  }
  /// Per-node value slot; meaningful once the node is marked.
  std::size_t& value(ExprId id) { return s_.values[id]; }

 private:
  struct Scratch {
    std::vector<std::uint32_t> stamps;
    std::vector<std::size_t> values;
    std::uint32_t epoch = 0;
    bool busy = false;
  };
  static Scratch& scratch() {
    thread_local Scratch s;
    return s;
  }
  Scratch& s_;
};

}  // namespace

std::size_t Pool::tree_op_count(ExprId id) const {
  // Memoized: tree count of a node is 1 + sum of children's tree counts,
  // independent of where the node appears.
  NodeMarks memo(nodes_.size());
  // Iterative post-order to avoid deep recursion on big models.
  std::vector<std::pair<ExprId, bool>> stack{{id, false}};
  while (!stack.empty()) {
    auto [cur, ready] = stack.back();
    stack.pop_back();
    if (memo.marked(cur)) {
      continue;
    }
    const Node& n = nodes_[cur];
    if (is_leaf(n.op)) {
      memo.mark(cur);
      memo.value(cur) = 0;
      continue;
    }
    if (!ready) {
      stack.push_back({cur, true});
      stack.push_back({n.a, false});
      if (has_two_children(n.op)) {
        stack.push_back({n.b, false});
      }
    } else {
      std::size_t c = 1 + memo.value(n.a);
      if (has_two_children(n.op)) {
        c += memo.value(n.b);
      }
      memo.mark(cur);
      memo.value(cur) = c;
    }
  }
  return memo.value(id);
}

std::size_t Pool::dag_op_count(ExprId id) const {
  NodeMarks seen(nodes_.size());
  std::vector<ExprId> stack{id};
  std::size_t count = 0;
  while (!stack.empty()) {
    const ExprId cur = stack.back();
    stack.pop_back();
    if (!seen.mark(cur)) {
      continue;
    }
    const Node& n = nodes_[cur];
    if (is_leaf(n.op)) {
      continue;
    }
    ++count;
    stack.push_back(n.a);
    if (has_two_children(n.op)) {
      stack.push_back(n.b);
    }
  }
  return count;
}

void Pool::free_syms(ExprId id, std::vector<SymbolId>& out) const {
  free_syms(std::span<const ExprId>(&id, 1), out);
}

void Pool::free_syms(std::span<const ExprId> roots,
                     std::vector<SymbolId>& out) const {
  NodeMarks seen(nodes_.size());
  std::vector<ExprId> stack(roots.begin(), roots.end());
  while (!stack.empty()) {
    const ExprId cur = stack.back();
    stack.pop_back();
    if (!seen.mark(cur)) {
      continue;
    }
    const Node& n = nodes_[cur];
    if (n.op == Op::kSym) {
      out.push_back(static_cast<SymbolId>(n.a));
    } else if (!is_leaf(n.op)) {
      stack.push_back(n.a);
      if (has_two_children(n.op)) {
        stack.push_back(n.b);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

ExprId Pool::substitute(ExprId id, SymbolId from, ExprId to) {
  std::unordered_map<SymbolId, ExprId> map{{from, to}};
  return substitute(id, map);
}

ExprId Pool::substitute(ExprId id,
                        const std::unordered_map<SymbolId, ExprId>& map) {
  std::unordered_map<ExprId, ExprId> memo;
  // Iterative post-order rebuild. Children are rebuilt before parents.
  std::vector<std::pair<ExprId, bool>> stack{{id, false}};
  while (!stack.empty()) {
    auto [cur, ready] = stack.back();
    stack.pop_back();
    if (memo.count(cur)) {
      continue;
    }
    const Node n = nodes_[cur];  // copy: nodes_ may grow below
    if (n.op == Op::kConst) {
      memo[cur] = cur;
      continue;
    }
    if (n.op == Op::kSym) {
      auto it = map.find(static_cast<SymbolId>(n.a));
      memo[cur] = (it == map.end()) ? cur : it->second;
      continue;
    }
    if (!ready) {
      stack.push_back({cur, true});
      stack.push_back({n.a, false});
      if (has_two_children(n.op)) {
        stack.push_back({n.b, false});
      }
    } else {
      const ExprId na = memo.at(n.a);
      const ExprId nb = has_two_children(n.op) ? memo.at(n.b) : kNoExpr;
      memo[cur] = intern(n.op, n.fn, na, nb);
    }
  }
  return memo.at(id);
}

}  // namespace omx::expr
