// Dissemination-graph dump: exports the graph any scheme (unicast or
// group) has in force at a given interval, as Graphviz DOT or JSON, for
// the `dgnet graph dump` debug command. The selection is reproduced by
// replaying decisions over [0, interval] exactly as the playback engine
// does (same baseline view, same decision staleness), so the dumped graph
// is the one the engine would score that interval with.
#pragma once

#include <cstddef>
#include <string>

#include "graph/graph.hpp"
#include "mcast/group.hpp"
#include "mcast/scheme.hpp"
#include "routing/scheme.hpp"
#include "trace/topology.hpp"
#include "trace/trace.hpp"

namespace dg::mcast {

enum class DumpFormat { kDot, kJson };

/// Parses "dot" / "json"; throws std::invalid_argument listing the valid
/// names otherwise.
DumpFormat parseDumpFormat(std::string_view name);

struct GraphDumpRequest {
  std::size_t interval = 0;  ///< the scored interval whose graph to dump
  int viewStaleness = 1;     ///< decision staleness, intervals
  DumpFormat format = DumpFormat::kDot;
};

/// Dumps the graph a unicast routing scheme has selected at
/// request.interval: the graph of the flow's one-receiver group under the
/// scheme's group equivalent.
std::string dumpUnicastGraph(const graph::Graph& overlay,
                             const trace::Trace& trace,
                             const trace::Topology& topology,
                             routing::Flow flow, routing::SchemeKind kind,
                             const routing::SchemeParams& schemeParams,
                             const GraphDumpRequest& request);

/// Dumps the graph a group scheme has selected at request.interval; every
/// receiver is highlighted.
std::string dumpGroupGraph(const graph::Graph& overlay,
                           const trace::Trace& trace,
                           const trace::Topology& topology, const Group& group,
                           GroupSchemeKind kind,
                           const routing::SchemeParams& schemeParams,
                           const GraphDumpRequest& request);

}  // namespace dg::mcast
