// §2.1/§2.5 reproduction: parallelism at the SYSTEM-of-equations level.
//
// The paper's conclusion: SCC partitioning pays off for the hydro plant
// and the servo ("could be reasonably parallelized through such
// partitioning") but not for the bearing ("only yielded two SCCs, where
// all the computation was embedded in one of them"). This bench computes,
// per model, the critical-path speedup bound of the subsystem schedule
// (work / weighted critical path through the condensation) and the
// available pipeline depth.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "omx/analysis/partition.hpp"
#include "omx/models/bearing2d.hpp"
#include "omx/models/hydro.hpp"
#include "omx/models/servo.hpp"
#include "omx/pipeline/pipeline.hpp"

namespace {

using omx::pipeline::CompiledModel;

struct SubsystemMetrics {
  double speedup_bound = 0.0;  // total work / critical path
  std::size_t sccs = 0;
  std::size_t width = 0;
  std::uint32_t depth = 0;
};

SubsystemMetrics analyze(CompiledModel& cm) {
  // Weight per subsystem: DAG op count of its member equations (with
  // algebraics inlined — the actual computation in that subsystem).
  const auto& part = cm.partition;
  std::vector<double> weight(part.num_subsystems(), 0.0);
  for (std::size_t c = 0; c < part.num_subsystems(); ++c) {
    for (int s : part.subsystems[c].states) {
      const auto rhs =
          cm.assignments.inlined_rhs[static_cast<std::size_t>(s)];
      weight[c] += static_cast<double>(cm.ctx->pool.dag_op_count(rhs));
    }
  }
  // Critical path through the condensation (longest weighted path).
  const auto order = cm.partition.condensation.topological_order();
  std::vector<double> path(part.num_subsystems(), 0.0);
  double critical = 0.0, total = 0.0;
  for (auto c : order) {
    path[c] += weight[c];
    critical = std::max(critical, path[c]);
    total += weight[c];
    for (auto succ : cm.partition.condensation.successors(c)) {
      path[succ] = std::max(path[succ], path[c]);
    }
  }
  SubsystemMetrics m;
  m.speedup_bound = total / critical;
  m.sccs = part.num_subsystems();
  m.width = part.max_parallel_width();
  m.depth = part.pipeline_depth();
  return m;
}

}  // namespace

int main() {
  using namespace omx;

  struct Row {
    const char* name;
    pipeline::ModelBuilder builder;
    const char* paper;
    bool expect_useful;
  };
  const Row rows[] = {
      {"hydro plant", models::build_hydro,
       "partitions (Fig 3)", true},
      {"servo (3 axes)", models::build_servo,
       "'trivial servo' partitions", true},
      {"2-D bearing", [](expr::Context& ctx) {
         return models::build_bearing(ctx, models::BearingConfig{});
       },
       "does NOT partition (Fig 6)", false},
  };

  std::printf("Equation-system-level parallelism (Sections 2.1, 2.5, 6)\n\n");
  std::printf("%-16s %6s %7s %7s %14s   %-28s %s\n", "model", "SCCs",
              "width", "depth", "speedup bound", "paper", "verdict");
  for (const Row& r : rows) {
    pipeline::CompiledModel cm = pipeline::compile_model(r.builder);
    const SubsystemMetrics m = analyze(cm);
    const bool useful = m.speedup_bound > 1.5;
    std::printf("%-16s %6zu %7zu %7u %13.2fx   %-28s %s\n", r.name, m.sccs,
                m.width, m.depth, m.speedup_bound, r.paper,
                useful == r.expect_useful ? "[MATCH]" : "[MISMATCH]");
  }
  std::printf("\npaper: 'the technique of extracting parallelism through"
              " subsystems of equations\nis highly application dependent"
              " and cannot in general be expected to pay off' (sec 6)\n");
  return 0;
}
