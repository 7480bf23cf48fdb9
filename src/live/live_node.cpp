#include "live/live_node.hpp"

#include <algorithm>

namespace dg::live {

LiveNode::LiveNode(graph::NodeId id, const graph::Graph& overlay,
                   LiveNodeSender& sender, LiveNodeConfig config)
    : overlay_(&overlay),
      sender_(&sender),
      relay_(id, overlay, *this, config) {}

FlowStatsEntry& LiveNode::statsFor(net::FlowId flow) {
  FlowStatsEntry& entry = flowStats_[flow];
  entry.flow = flow;
  return entry;
}

void LiveNode::originate(const LiveFlow& flow, net::SequenceNumber sequence,
                         util::SimTime now) {
  Message message;
  message.type = MessageType::Data;
  message.flow = flow.id;
  message.sequence = sequence;
  message.originTime = now;
  message.deadline = flow.deadline;
  message.graphMask = flow.graphMask;
  message.source = flow.source;
  message.destination = flow.destination;
  ++statsFor(flow.id).sent;
  relay_.originate(message, {flow.deadline, flow.destination, nullptr}, now);
}

// dgcheck: hot
void LiveNode::handleMessage(const Message& message, util::SimTime now) {
  const bool nack = message.type == MessageType::Nack;
  if (!nack && message.type != MessageType::Data &&
      message.type != MessageType::Retransmission) {
    return;  // membership/control messages are the daemon's business
  }
  // The edge comes off the wire, and the relay indexes the overlay by it.
  if (message.edge >= overlay_->edgeCount() ||
      overlay_->edge(message.edge).to != id()) {
    ++foreignEdgeDropped_;
    return;
  }
  if (nack) {
    relay_.handleNack(message, message.edge);
  } else {
    relay_.handleData(message, message.edge,
                      {message.deadline, message.destination, nullptr}, now);
  }
}

// dgcheck: hot
void LiveNode::send(graph::EdgeId edge, Message& message) {
  message.sender = id();
  message.edge = edge;
  if (message.type != MessageType::Nack) {
    ++statsFor(message.flow).transmissions;
  }
  sender_->sendOnEdge(edge, message);
}

void LiveNode::deliver(const Message& message, util::SimTime now) {
  FlowStatsEntry& stats = statsFor(message.flow);
  const util::SimTime latency = now - message.originTime;
  if (latency <= message.deadline) {
    ++stats.deliveredOnTime;
  } else {
    ++stats.deliveredLate;
  }
  stats.latencySumUs +=
      static_cast<std::uint64_t>(std::max<util::SimTime>(latency, 0));
}

}  // namespace dg::live
