// The live daemon's overlay node: a core::Relay driven by real messages
// and soak time. The relay holds the forwarding and per-hop recovery
// rules (core/relay.hpp), the same ones the simulator runs, which is what
// makes the live-vs-model differential meaningful. This driver adds:
//   - flow metadata (deadline, endpoints, graph mask) read in-band from
//     each message, so intermediate nodes need no flow directory; only
//     stamped (distributed) mode exists live;
//   - the sender and edge fields stamped into every outgoing message,
//     which leaves through a LiveNodeSender;
//   - per-flow delivery stats (flowStats), kept ordered by flow id for
//     the StatsReply.
#pragma once

#include <cstdint>
#include <map>

#include "core/relay.hpp"
#include "graph/graph.hpp"
#include "live/wire.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace dg::live {

/// Where the node's outbound messages go. The daemon's implementation
/// serializes onto UDP (through the impairment shim); tests use an
/// in-memory fan-out.
class LiveNodeSender {
 public:
  virtual ~LiveNodeSender() = default;
  /// `message.edge` is the directed overlay edge to traverse.
  virtual void sendOnEdge(graph::EdgeId edge, const Message& message) = 0;
};

/// A flow this node originates: metadata stamped into every packet.
struct LiveFlow {
  net::FlowId id = 0;
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  util::SimTime deadline = 0;
  /// Dissemination graph as an edge bitmask (net::graphMaskOf).
  std::uint64_t graphMask = 0;
};

using LiveNodeConfig = core::RelayConfig;

class LiveNode final : private core::RelaySink<Message> {
 public:
  LiveNode(graph::NodeId id, const graph::Graph& overlay,
           LiveNodeSender& sender, LiveNodeConfig config = {});

  graph::NodeId id() const { return relay_.id(); }

  /// Injects a fresh data packet (this node must be the flow source).
  void originate(const LiveFlow& flow, net::SequenceNumber sequence,
                 util::SimTime now);

  /// Entry point for received edge messages (Data / Retransmission /
  /// Nack); other message types are ignored. `now` is soak time. An edge
  /// message whose edge is not an overlay edge ending at this node is
  /// dropped and counted in foreignEdgeDropped().
  void handleMessage(const Message& message, util::SimTime now);

  /// Per-flow delivery stats observed at this node (sent at the source,
  /// deliveries at the destination, transmissions everywhere), keyed by
  /// flow id -- exactly the StatsReply payload.
  const std::map<net::FlowId, FlowStatsEntry>& flowStats() const {
    return flowStats_;
  }

  std::uint64_t duplicatesDropped() const {
    return relay_.duplicatesDropped();
  }
  std::uint64_t expiredDropped() const { return relay_.expiredDropped(); }
  std::uint64_t nacksSent() const { return relay_.nacksSent(); }
  std::uint64_t retransmissionsSent() const {
    return relay_.retransmissionsSent();
  }
  /// Retransmissions that arrived as the first (useful) copy.
  std::uint64_t nackRecoveries() const { return relay_.nackRecoveries(); }
  /// Edge messages dropped for naming an edge that does not end here.
  std::uint64_t foreignEdgeDropped() const { return foreignEdgeDropped_; }

 private:
  // RelaySink:
  void send(graph::EdgeId edge, Message& message) override;
  void deliver(const Message& message, util::SimTime now) override;

  FlowStatsEntry& statsFor(net::FlowId flow);

  const graph::Graph* overlay_;
  LiveNodeSender* sender_;
  core::Relay<Message> relay_;
  std::uint64_t foreignEdgeDropped_ = 0;
  std::map<net::FlowId, FlowStatsEntry> flowStats_;
};

}  // namespace dg::live
