#include "core/overlay_node.hpp"

#include <algorithm>

namespace dg::core {

OverlayNode::OverlayNode(graph::NodeId id, net::SimulatedNetwork& network,
                         FlowDirectory& directory, RelayConfig config)
    : network_(&network),
      directory_(&directory),
      relay_(id, network.overlay(), *this, config) {}

void OverlayNode::setTelemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  relayCounters_.fill(nullptr);
  linkStateFloodsCounter_ = nullptr;
  linkStateAcceptedCounter_ = nullptr;
  if (telemetry_ == nullptr) return;
  const telemetry::Labels labels{{"node", std::to_string(id())}};
  telemetry::MetricsRegistry& metrics = telemetry_->metrics;
  const char* const relayNames[] = {
      "dg_core_duplicates_dropped_total", "dg_core_expired_dropped_total",
      "dg_core_nacks_sent_total", "dg_core_retransmissions_sent_total"};
  for (std::size_t i = 0; i < relayCounters_.size(); ++i)
    relayCounters_[i] = &metrics.counter(relayNames[i], labels);
  linkStateFloodsCounter_ =
      &metrics.counter("dg_core_link_state_floods_total", labels);
  linkStateAcceptedCounter_ =
      &metrics.counter("dg_core_link_state_accepted_total", labels);
}

void OverlayNode::setCrashed(bool crashed) {
  if (crashed_ == crashed) return;
  crashed_ = crashed;
  if (crashed) return;
  // Restart: soft state is gone. The link-state epoch deliberately
  // survives so peers' newest-epoch dedup accepts post-restart floods.
  relay_.restart();
  if (linkState_) resetLinkState();
}

void OverlayNode::handlePacket(graph::EdgeId arrivalEdge,
                               const net::Packet& packet) {
  if (crashed_) {
    ++crashDropped_;
    return;
  }
  switch (packet.type) {
    case net::Packet::Type::Data:
    case net::Packet::Type::Retransmission:
      if (const FlowContext* context = directory_->flowContext(packet.flow)) {
        relay_.handleData(packet, arrivalEdge,
                          {context->deadline, context->flow.destination,
                           context->activeGraph},
                          network_->simulator().now());
      }
      return;
    case net::Packet::Type::Nack:
      relay_.handleNack(packet, arrivalEdge);
      return;
    case net::Packet::Type::Probe:
      handleProbe(arrivalEdge, packet);
      return;
    case net::Packet::Type::LinkState:
      handleLinkState(arrivalEdge, packet);
      return;
  }
}

void OverlayNode::originate(const FlowContext& context,
                            net::SequenceNumber sequence,
                            util::SimTime originTime) {
  if (crashed_) return;
  net::Packet packet;
  packet.type = net::Packet::Type::Data;
  packet.flow = context.id;
  packet.sequence = sequence;
  packet.originTime = originTime;
  packet.graphMask = context.graphMask;
  relay_.originate(packet,
                   {context.deadline, context.flow.destination,
                    context.activeGraph},
                   network_->simulator().now());
}

// dgcheck: cold: the simulated link queues each send as a simulator event holding a packet copy; that is the event simulator's cost, not the relay's
void OverlayNode::send(graph::EdgeId edge, net::Packet& packet) {
  network_->transmit(edge, packet);
}

void OverlayNode::deliver(const net::Packet& packet, util::SimTime /*now*/) {
  directory_->onDelivered(packet.flow, packet);
}

void OverlayNode::note(RelayEvent event, const net::Packet& packet,
                       graph::EdgeId edge) {
  if (telemetry_ == nullptr) return;
  relayCounters_[static_cast<std::size_t>(event)]->inc();
  if (event == RelayEvent::Nack) {
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::NackSent, packet.flow,
                             id(), edge,
                             static_cast<double>(packet.nackSequences.size()));
  } else if (event == RelayEvent::Retransmission) {
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::Retransmission,
                             packet.flow, id(), edge,
                             static_cast<double>(packet.sequence));
  }
}

void OverlayNode::enableLinkState(
    std::vector<trace::LinkConditions> baseline, LinkStateConfig config) {
  linkState_ = std::make_unique<LinkStateState>();
  linkState_->config = config;
  linkState_->baseline = std::move(baseline);
  linkState_->newestEpochFrom.assign(network_->overlay().nodeCount(), 0);
  resetLinkState();
}

void OverlayNode::resetLinkState() {
  LinkStateState& state = *linkState_;
  state.lossView.clear();
  state.latencyView.clear();
  for (const trace::LinkConditions& c : state.baseline) {
    state.lossView.push_back(c.lossRate);
    state.latencyView.push_back(c.latency);
  }
  state.probesReceived.assign(network_->overlay().edgeCount(), 0);
  state.probeLatencySumUs.assign(network_->overlay().edgeCount(), 0.0);
}

void OverlayNode::handleProbe(graph::EdgeId arrivalEdge,
                              const net::Packet& packet) {
  if (!linkState_) return;
  ++linkState_->probesReceived[arrivalEdge];
  linkState_->probeLatencySumUs[arrivalEdge] += static_cast<double>(
      network_->simulator().now() - packet.hopSendTime);
}

void OverlayNode::handleLinkState(graph::EdgeId arrivalEdge,
                                  const net::Packet& packet) {
  if (!linkState_) return;
  if (packet.linkStateOrigin == id()) return;  // our own update, looped
  std::uint32_t& newest =
      linkState_->newestEpochFrom[packet.linkStateOrigin];
  if (packet.linkStateEpoch <= newest) return;  // old or duplicate
  newest = packet.linkStateEpoch;
  ++linkState_->updatesAccepted;
  if (telemetry_ != nullptr) {
    linkStateAcceptedCounter_->inc();
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::LinkStateAccepted,
                             -1, id(), arrivalEdge,
                             static_cast<double>(packet.linkStateEpoch));
  }
  for (const net::LinkStateEntry& entry : packet.linkState) {
    linkState_->lossView[entry.edge] = entry.conditions.lossRate;
    linkState_->latencyView[entry.edge] = entry.conditions.latency;
  }
  // Re-flood the first copy on every link except back where it came from.
  const graph::Graph& overlay = network_->overlay();
  const graph::NodeId arrivalNeighbor = overlay.edge(arrivalEdge).from;
  for (const graph::EdgeId out : overlay.outEdges(id())) {
    if (overlay.edge(out).to == arrivalNeighbor) continue;
    network_->transmit(out, packet);
  }
}

void OverlayNode::emitLinkState() {
  if (!linkState_ || crashed_) return;
  LinkStateState& state = *linkState_;
  ++state.epoch;
  if (telemetry_ != nullptr) {
    linkStateFloodsCounter_->inc();
    telemetry_->trace.record(network_->simulator().now(),
                             telemetry::TraceEventKind::LinkStateFlood,
                             -1, id(), -1, static_cast<double>(state.epoch));
  }

  net::Packet update;
  update.type = net::Packet::Type::LinkState;
  update.linkStateOrigin = id();
  update.linkStateEpoch = state.epoch;
  update.originTime = network_->simulator().now();

  const graph::Graph& overlay = network_->overlay();
  const double expected =
      static_cast<double>(state.config.expectedProbesPerInterval);
  for (const graph::EdgeId in : overlay.inEdges(id())) {
    net::LinkStateEntry entry;
    entry.edge = in;
    if (state.config.expectedProbesPerInterval >= state.config.minSamples) {
      const double received =
          static_cast<double>(state.probesReceived[in]);
      entry.conditions.lossRate =
          std::clamp(1.0 - received / expected, 0.0, 1.0);
      entry.conditions.latency =
          state.probesReceived[in] > 0
              ? static_cast<util::SimTime>(state.probeLatencySumUs[in] /
                                           received)
              : state.baseline[in].latency;
    } else {
      entry.conditions = state.baseline[in];
    }
    state.probesReceived[in] = 0;
    state.probeLatencySumUs[in] = 0.0;
    // Apply to our own view immediately.
    state.lossView[in] = entry.conditions.lossRate;
    state.latencyView[in] = entry.conditions.latency;
    update.linkState.push_back(entry);
  }

  for (const graph::EdgeId out : overlay.outEdges(id())) {
    network_->transmit(out, update);
  }
}

routing::NetworkView OverlayNode::view() const {
  return routing::NetworkView(linkState_->lossView, linkState_->latencyView);
}

}  // namespace dg::core
