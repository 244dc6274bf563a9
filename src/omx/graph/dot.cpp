#include "omx/graph/dot.hpp"

#include <sstream>

#include "omx/support/diagnostics.hpp"

namespace omx::graph {

namespace {

std::string label_of(const std::vector<std::string>& labels, NodeId n) {
  if (labels.empty()) {
    std::string name = "n";
    name += std::to_string(n);
    return name;
  }
  return labels[n];
}

void emit_edges(std::ostringstream& os, const Digraph& g,
                const std::vector<std::string>& labels) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.successors(u)) {
      os << "  \"" << label_of(labels, u) << "\" -> \"" << label_of(labels, v)
         << "\";\n";
    }
  }
}

}  // namespace

std::string to_dot(const Digraph& g, const std::vector<std::string>& labels) {
  OMX_REQUIRE(labels.empty() || labels.size() == g.num_nodes(),
              "label count mismatch");
  std::ostringstream os;
  os << "digraph deps {\n  rankdir=LR;\n  node [shape=box];\n";
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    os << "  \"" << label_of(labels, u) << "\";\n";
  }
  emit_edges(os, g, labels);
  os << "}\n";
  return os.str();
}

std::string to_dot_clustered(const Digraph& g, const SccResult& scc,
                             const std::vector<std::string>& labels) {
  OMX_REQUIRE(labels.empty() || labels.size() == g.num_nodes(),
              "label count mismatch");
  std::ostringstream os;
  os << "digraph deps {\n  rankdir=LR;\n  node [shape=box];\n";
  for (std::uint32_t c = 0; c < scc.num_components(); ++c) {
    os << "  subgraph cluster_" << c << " {\n";
    os << "    label=\"SCC " << c << " (x " << scc.members[c].size()
       << ")\";\n";
    for (NodeId u : scc.members[c]) {
      os << "    \"" << label_of(labels, u) << "\";\n";
    }
    os << "  }\n";
  }
  emit_edges(os, g, labels);
  os << "}\n";
  return os.str();
}

}  // namespace omx::graph
