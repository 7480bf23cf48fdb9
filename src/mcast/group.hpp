// Receiver-set (multicast) flows.
//
// A Group generalizes routing::Flow from one destination to a receiver
// set: one source floods a packet on a single dissemination graph, and
// delivery is scored against every receiver's own deadline. The flooding
// semantics of graph::DisseminationGraph already support multiple sinks
// -- what the mcast layer adds is per-receiver reachability, per-receiver
// deadlines, and group-level (delivered-to-all / delivered-to-k) cost and
// timeliness accounting.
//
// Receiver order is significant and preserved everywhere: it feeds the
// deterministic per-(group, scheme, interval) RNG stream derivation and
// fixes which receiver anchors the union graph, so two Groups with the
// same receivers in different orders are different workloads (with
// statistically equivalent results).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "routing/scheme.hpp"
#include "trace/topology.hpp"
#include "util/sim_time.hpp"

namespace dg::mcast {

struct Group {
  graph::NodeId source = graph::kInvalidNode;
  /// Non-empty, duplicate-free, never containing the source.
  std::vector<graph::NodeId> receivers;
  /// Per-receiver delivery deadlines, parallel to `receivers`; empty
  /// means every receiver uses the engine-level default deadline.
  std::vector<util::SimTime> deadlines;

  bool operator==(const Group&) const = default;
};

/// Validates group shape against an overlay of `nodeCount` nodes; throws
/// std::invalid_argument with a "mcast:" prefix on the first violation
/// (empty receiver set, out-of-range node, receiver == source, duplicate
/// receiver, deadline list length mismatch, non-positive deadline).
void validateGroup(const Group& group, std::size_t nodeCount);

/// The unicast flow of one receiver: source -> receivers[i].
routing::Flow receiverFlow(const Group& group, std::size_t i);

/// A unicast flow as a group: {flow.source; flow.destination}, default
/// deadline.
Group oneReceiverGroup(routing::Flow flow);

/// Receiver i's deadline, or `fallback` when the group carries none.
util::SimTime receiverDeadline(const Group& group, std::size_t i,
                               util::SimTime fallback);

/// Numeric telemetry label, "SRC->R1+R2+R3" (node ids), mirroring the
/// playback engine's "src->dst" flow label.
std::string groupLabel(const Group& group);

/// Site-name rendering for reports, "NYC->SJC+LAX".
std::string groupName(const Group& group, const trace::Topology& topology);

/// Parses one group spec "SRC:R1+R2+R3" (site names against `topology`).
/// Throws std::invalid_argument on unknown sites or malformed syntax.
Group parseGroupSpec(std::string_view spec, const trace::Topology& topology);

/// Parses a comma-separated list of group specs.
std::vector<Group> parseGroupList(std::string_view specs,
                                  const trace::Topology& topology);

}  // namespace dg::mcast
