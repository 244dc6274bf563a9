#include "omx/codegen/tasks.hpp"

#include <algorithm>

namespace omx::codegen {

namespace {

/// Flattens a +/- chain into signed terms: e = sum(sign_i * term_i).
void flatten_sum(const expr::Pool& pool, expr::ExprId e, bool negate,
                 std::vector<std::pair<expr::ExprId, bool>>& terms) {
  const expr::Node& n = pool.node(e);
  if (n.op == expr::Op::kAdd) {
    flatten_sum(pool, n.a, negate, terms);
    flatten_sum(pool, n.b, negate, terms);
  } else if (n.op == expr::Op::kSub) {
    flatten_sum(pool, n.a, negate, terms);
    flatten_sum(pool, n.b, !negate, terms);
  } else if (n.op == expr::Op::kNeg) {
    flatten_sum(pool, n.a, !negate, terms);
  } else {
    terms.emplace_back(e, negate);
  }
}

/// Rebuilds a signed-term group into a single expression.
expr::ExprId rebuild_sum(
    expr::Pool& pool,
    std::span<const std::pair<expr::ExprId, bool>> terms) {
  OMX_REQUIRE(!terms.empty(), "empty term group");
  expr::ExprId acc = expr::kNoExpr;
  for (const auto& [term, neg] : terms) {
    if (acc == expr::kNoExpr) {
      acc = neg ? pool.neg(term) : term;
    } else {
      acc = neg ? pool.sub(acc, term) : pool.add(acc, term);
    }
  }
  return acc;
}

}  // namespace

std::size_t TaskPlan::num_split_units() const {
  std::size_t n = 0;
  for (const TaskSpec& t : tasks) {
    for (const TaskUnit& u : t.units) {
      if (u.num_parts > 1) {
        ++n;
      }
    }
  }
  return n;
}

TaskPlan plan_tasks(const model::FlatSystem& flat, const AssignmentSet& set,
                    const TaskPlanOptions& opts) {
  expr::Context& ctx = flat.ctx();
  TaskPlan plan;
  plan.options = opts;

  // 1. Build self-contained units: one per state equation, with algebraics
  //    inlined; split oversized +/- chains into partial sums.
  struct Candidate {
    TaskUnit unit;
    std::size_t ops = 0;
  };
  std::vector<Candidate> candidates;
  for (const Assignment& a : set.states) {
    const expr::ExprId inlined =
        set.inlined_rhs[static_cast<std::size_t>(a.index)];
    const std::size_t ops = ctx.pool.dag_op_count(inlined);
    if (opts.max_ops_per_task != 0 && ops > opts.max_ops_per_task) {
      // Split through a top-level division (the common `force_sum / mass`
      // shape): partial sums of the numerator each divided by the shared
      // denominator still add up to the full quotient.
      expr::ExprId split_root = inlined;
      expr::ExprId denom = expr::kNoExpr;
      if (ctx.pool.node(inlined).op == expr::Op::kDiv) {
        split_root = ctx.pool.node(inlined).a;
        denom = ctx.pool.node(inlined).b;
      }
      std::vector<std::pair<expr::ExprId, bool>> terms;
      flatten_sum(ctx.pool, split_root, false, terms);
      if (terms.size() >= 2) {
        // Greedily pack terms into parts of roughly max_ops each.
        std::vector<std::vector<std::pair<expr::ExprId, bool>>> groups;
        groups.emplace_back();
        std::size_t group_ops = 0;
        for (const auto& t : terms) {
          const std::size_t top = ctx.pool.dag_op_count(t.first) + 1;
          if (group_ops > 0 && group_ops + top > opts.max_ops_per_task) {
            groups.emplace_back();
            group_ops = 0;
          }
          groups.back().push_back(t);
          group_ops += top;
        }
        if (groups.size() >= 2) {
          const int num_parts = static_cast<int>(groups.size());
          for (int g = 0; g < num_parts; ++g) {
            Candidate c;
            c.unit.state = a.index;
            c.unit.part = g;
            c.unit.num_parts = num_parts;
            c.unit.rhs = rebuild_sum(ctx.pool, groups[g]);
            if (denom != expr::kNoExpr) {
              c.unit.rhs = ctx.pool.div(c.unit.rhs, denom);
            }
            c.ops = ctx.pool.dag_op_count(c.unit.rhs);
            candidates.push_back(c);
          }
          continue;
        }
      }
      // Not splittable (single huge product, etc.) — fall through.
    }
    Candidate c;
    c.unit.state = a.index;
    c.unit.rhs = inlined;
    c.ops = ops;
    candidates.push_back(c);
  }

  // 2. Group small units into tasks of at least min_ops_per_task.
  TaskSpec current;
  auto flush = [&]() {
    if (!current.units.empty()) {
      plan.tasks.push_back(std::move(current));
      current = TaskSpec{};
    }
  };
  for (const Candidate& c : candidates) {
    current.units.push_back(c.unit);
    current.est_ops += c.ops;
    if (current.est_ops >= opts.min_ops_per_task) {
      flush();
    }
  }
  flush();

  // 3. Label tasks for diagnostics and schedules.
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    TaskSpec& t = plan.tasks[i];
    const TaskUnit& u0 = t.units.front();
    std::string label =
        flat.state_name(static_cast<std::size_t>(u0.state)) + "'";
    if (u0.num_parts > 1) {
      label += " part " + std::to_string(u0.part + 1) + "/" +
               std::to_string(u0.num_parts);
    }
    if (t.units.size() > 1) {
      label += " (+" + std::to_string(t.units.size() - 1) + " more)";
    }
    t.label = std::move(label);
  }
  return plan;
}

}  // namespace omx::codegen
