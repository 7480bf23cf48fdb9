#include "mcast/graph_dump.hpp"

#include <span>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/dissemination_graph.hpp"
#include "playback/playback.hpp"
#include "routing/network_view.hpp"
#include "trace/condition_timeline.hpp"

namespace dg::mcast {

namespace {

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string renderDot(const graph::DisseminationGraph& dg,
                      const trace::Topology& topology, graph::NodeId source,
                      std::span<const graph::NodeId> receivers) {
  const graph::Graph& overlay = dg.overlay();
  std::string out = "digraph dissemination {\n  rankdir=LR;\n";
  out += "  \"" + topology.name(source) + "\" [shape=doublecircle];\n";
  for (const graph::NodeId receiver : receivers)
    out += "  \"" + topology.name(receiver) + "\" [shape=doubleoctagon];\n";
  for (const graph::EdgeId e : dg.edges()) {
    const graph::Edge& edge = overlay.edge(e);
    out += "  \"" + topology.name(edge.from) + "\" -> \"" +
           topology.name(edge.to) +
           "\" [label=\"" + std::to_string(edge.latency) + "us\"];\n";
  }
  out += "}\n";
  return out;
}

std::string renderJson(const graph::DisseminationGraph& dg,
                       const trace::Topology& topology, graph::NodeId source,
                       std::span<const graph::NodeId> receivers,
                       std::string_view schemeName, std::size_t interval) {
  const graph::Graph& overlay = dg.overlay();
  std::string out = "{\n  \"source\": \"";
  out += jsonEscape(topology.name(source));
  out += "\",\n  \"receivers\": [";
  for (std::size_t r = 0; r < receivers.size(); ++r) {
    if (r != 0) out += ", ";
    out += '"';
    out += jsonEscape(topology.name(receivers[r]));
    out += '"';
  }
  out += "],\n  \"interval\": " + std::to_string(interval);
  out += ",\n  \"scheme\": \"";
  out += jsonEscape(schemeName);
  out += "\",\n  \"edges\": [";
  for (std::size_t i = 0; i < dg.edges().size(); ++i) {
    const graph::EdgeId e = dg.edges()[i];
    const graph::Edge& edge = overlay.edge(e);
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"id\": " + std::to_string(e) + ", \"from\": \"" +
           jsonEscape(topology.name(edge.from)) + "\", \"to\": \"" +
           jsonEscape(topology.name(edge.to)) +
           "\", \"latency_us\": " + std::to_string(edge.latency) + "}";
  }
  out += dg.edges().empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

void validateRequest(const trace::Trace& trace,
                     const GraphDumpRequest& request) {
  if (request.interval >= trace.intervalCount())
    throw std::invalid_argument("graph dump: interval " +
                                std::to_string(request.interval) +
                                " out of range (trace has " +
                                std::to_string(trace.intervalCount()) +
                                " intervals)");
  if (request.viewStaleness < 0)
    throw std::invalid_argument("graph dump: negative staleness");
}

/// Renders the graph `kind` has in force for `group` at
/// request.interval, labeled `schemeName`. Adaptive kinds take each
/// receiver's selection at the interval from its decision timeline and
/// serve their union; static kinds freeze their union at baseline.
std::string dumpGraph(const graph::Graph& overlay, const trace::Trace& trace,
                      const trace::Topology& topology, const Group& group,
                      GroupSchemeKind kind,
                      const routing::SchemeParams& schemeParams,
                      std::string_view schemeName,
                      const GraphDumpRequest& request) {
  validateRequest(trace, request);
  graph::DisseminationGraph dg(overlay, group.source,
                               group.receivers.front());
  if (!isAdaptive(kind)) {
    auto scheme = makeGroupScheme(kind, overlay, group, schemeParams);
    scheme->initialize(routing::NetworkView::baseline(trace));
    dg = scheme->current();
  } else {
    const trace::ConditionIndex index(trace);
    const playback::DecisionReplay replay(
        overlay, trace, index,
        static_cast<std::size_t>(request.viewStaleness));
    const playback::IntervalWindow window{request.interval,
                                          request.interval + 1};
    std::vector<playback::DecisionTimeline> timelines;
    for (std::size_t i = 0; i < group.receivers.size(); ++i) {
      timelines.push_back(
          replay.run(unicastEquivalent(kind), receiverFlow(group, i),
                     receiverSchemeParams(group, i, schemeParams), nullptr,
                     {&window, 1}));
    }
    std::vector<const std::vector<graph::EdgeId>*> selections;
    for (const playback::DecisionTimeline& timeline : timelines)
      selections.push_back(&timeline.selectionAt(request.interval));
    uniteSelections(dg, selections);
  }
  return request.format == DumpFormat::kDot
             ? renderDot(dg, topology, group.source, group.receivers)
             : renderJson(dg, topology, group.source, group.receivers,
                          schemeName, request.interval);
}

}  // namespace

DumpFormat parseDumpFormat(std::string_view name) {
  if (name == "dot") return DumpFormat::kDot;
  if (name == "json") return DumpFormat::kJson;
  throw std::invalid_argument("unknown dump format: " + std::string(name) +
                              " (valid: dot, json)");
}

std::string dumpUnicastGraph(const graph::Graph& overlay,
                             const trace::Trace& trace,
                             const trace::Topology& topology,
                             routing::Flow flow, routing::SchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             const GraphDumpRequest& request) {
  return dumpGraph(overlay, trace, topology,
                   oneReceiverGroup(flow),
                   groupEquivalent(kind), schemeParams,
                   routing::schemeName(kind), request);
}

std::string dumpGroupGraph(const graph::Graph& overlay,
                           const trace::Trace& trace,
                           const trace::Topology& topology, const Group& group,
                           GroupSchemeKind kind,
                           const routing::SchemeParams& schemeParams,
                           const GraphDumpRequest& request) {
  return dumpGraph(overlay, trace, topology, group, kind, schemeParams,
                   groupSchemeName(kind), request);
}

}  // namespace dg::mcast
