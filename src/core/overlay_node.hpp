// The simulator's overlay daemon: a core::Relay driven by the simulated
// network, plus what only the simulator has. The relay holds the
// forwarding and per-hop recovery rules (relay.hpp). This driver adds
// the flow directory lookup (packets of unknown flows are dropped),
// crash and restart, telemetry counters and trace events, and the
// distributed link-state plane: probes, flooded updates and the node's
// own view.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "core/flow_context.hpp"
#include "core/relay.hpp"
#include "net/network.hpp"
#include "routing/network_view.hpp"
#include "telemetry/telemetry.hpp"

namespace dg::core {

/// Distributed monitoring (enabled per node via enableLinkState): the
/// node measures its incoming links from the probe stream, periodically
/// floods a link-state update, merges updates from every other node into
/// a local view, and -- as the source of a flow -- stamps the selected
/// dissemination graph into packets as an edge bitmask.
struct LinkStateConfig {
  /// Probes expected per measurement interval on each incoming link
  /// (decision interval / probe interval); losses are inferred from the
  /// shortfall, so a silent link reads as 100% loss.
  int expectedProbesPerInterval = 100;
  /// Below this many expected probes the estimate is unusable.
  int minSamples = 8;
};

class OverlayNode final : private RelaySink<net::Packet> {
 public:
  OverlayNode(graph::NodeId id, net::SimulatedNetwork& network,
              FlowDirectory& directory, RelayConfig config);

  graph::NodeId id() const { return relay_.id(); }

  /// Entry point wired to the network's delivery handler.
  void handlePacket(graph::EdgeId arrivalEdge, const net::Packet& packet);

  /// Crash/restart (chaos injection). While crashed the daemon is dead:
  /// every arriving packet is dropped unprocessed and originate() is a
  /// no-op. Restarting (setCrashed(false)) models a process restart --
  /// all soft state (duplicate-suppression windows, gap-detection state,
  /// retransmission buffers, link measurements) is lost, the link-state
  /// view resets to baseline, but the link-state epoch survives (it keeps
  /// increasing so peers do not discard post-restart updates as stale).
  void setCrashed(bool crashed);
  bool crashed() const { return crashed_; }
  std::uint64_t crashDropped() const { return crashDropped_; }

  /// Injects a fresh data packet at this node (must be the flow source).
  /// When the context carries a graph mask, the packet is stamped with it
  /// and every node forwards by mask (distributed mode).
  void originate(const FlowContext& context, net::SequenceNumber sequence,
                 util::SimTime originTime);

  // --- Distributed link-state monitoring --------------------------------

  /// Turns on link-state participation: the node starts measuring its
  /// incoming links from probes and accepting/merging/re-flooding
  /// link-state updates. `baseline` seeds the local view.
  void enableLinkState(std::vector<trace::LinkConditions> baseline,
                       LinkStateConfig config);
  bool linkStateEnabled() const { return linkState_ != nullptr; }

  /// Closes the node's measurement interval: updates its own view from
  /// its incoming-link measurements and floods a link-state update to
  /// the rest of the overlay. Call once per decision interval.
  void emitLinkState();

  /// The node's current believed network state (valid only with link
  /// state enabled).
  routing::NetworkView view() const;

  std::uint64_t linkStateUpdatesAccepted() const {
    return linkState_ ? linkState_->updatesAccepted : 0;
  }

  /// The relay's counters: duplicates, expiries, NACKs, retransmissions.
  const RelayState& relay() const { return relay_; }

  /// Attaches telemetry (nullable): per-node counters for duplicate and
  /// expired drops, NACKs, retransmissions and link-state activity, plus
  /// NackSent / Retransmission / LinkStateFlood / LinkStateAccepted trace
  /// events.
  void setTelemetry(telemetry::Telemetry* telemetry);

 private:
  // RelaySink:
  void send(graph::EdgeId edge, net::Packet& packet) override;
  void deliver(const net::Packet& packet, util::SimTime now) override;
  void note(RelayEvent event, const net::Packet& packet,
            graph::EdgeId edge) override;

  void handleProbe(graph::EdgeId arrivalEdge, const net::Packet& packet);
  void handleLinkState(graph::EdgeId arrivalEdge, const net::Packet& packet);
  /// Views back to the baseline and measurements cleared, as at start-up.
  void resetLinkState();

  net::SimulatedNetwork* network_;
  FlowDirectory* directory_;
  Relay<net::Packet> relay_;

  /// Distributed monitoring state (absent unless enabled).
  struct LinkStateState {
    LinkStateConfig config;
    std::vector<trace::LinkConditions> baseline;
    // Local view of every link.
    std::vector<double> lossView;
    std::vector<util::SimTime> latencyView;
    // Measurements of this node's incoming links, current interval.
    std::vector<std::uint64_t> probesReceived;  // per edge
    std::vector<double> probeLatencySumUs;      // per edge
    // Flood dedup: newest accepted epoch per origin node.
    std::vector<std::uint32_t> newestEpochFrom;
    std::uint32_t epoch = 0;
    std::uint64_t updatesAccepted = 0;
  };
  std::unique_ptr<LinkStateState> linkState_;

  bool crashed_ = false;
  std::uint64_t crashDropped_ = 0;

  telemetry::Telemetry* telemetry_ = nullptr;
  /// One counter per RelayEvent, in enum order.
  std::array<telemetry::Counter*, 4> relayCounters_{};
  telemetry::Counter* linkStateFloodsCounter_ = nullptr;
  telemetry::Counter* linkStateAcceptedCounter_ = nullptr;
};

}  // namespace dg::core
