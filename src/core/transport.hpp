// The overlay transport service: the library's top-level public API.
//
// A TransportService stands up a full overlay -- one daemon per site, the
// simulated wide-area links between them driven by a condition trace, a
// link monitor, and per-flow routing schemes -- and delivers timely,
// highly reliable flows over it:
//
//   auto topology = dg::trace::Topology::ltn12();
//   auto synthetic = dg::trace::generateSyntheticTrace(topology.graph(), {});
//   dg::core::TransportService service(topology, synthetic.trace, {});
//   auto flow = service.openFlow("NYC", "SJC",
//                                dg::routing::SchemeKind::TargetedRedundancy);
//   service.run(dg::util::minutes(10));
//   const auto& stats = service.stats(flow);   // on-time rate, cost, ...
//
// Flows emit packets at their configured rate; every decision interval
// the monitor's measurements are rolled and each flow's scheme selects
// the dissemination graph for the next interval.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/flow_context.hpp"
#include "core/metrics.hpp"
#include "core/monitor.hpp"
#include "core/overlay_node.hpp"
#include "net/network.hpp"
#include "net/simulator.hpp"
#include "routing/scheme.hpp"
#include "trace/topology.hpp"
#include "trace/trace.hpp"

namespace dg::core {

/// How routing learns about network conditions.
enum class MonitorMode {
  /// One service-wide monitor aggregates all link observations and every
  /// scheme reads the same view (simple; the playback engine's model).
  Centralized,
  /// Spines-like: every node measures its incoming links from the probe
  /// stream and floods link-state updates (which themselves ride the
  /// lossy overlay); each flow's scheme runs on its *source node's* view
  /// and the chosen dissemination graph is stamped into packets as an
  /// edge bitmask. Convergence delays and update losses are emergent.
  Distributed,
};

struct TransportConfig {
  routing::SchemeParams schemeParams;
  MonitorMode monitorMode = MonitorMode::Centralized;
  /// How often the monitor rolls and schemes re-select graphs.
  util::SimTime decisionInterval = util::seconds(10);
  /// Per-link probe period (keeps the monitor fed on idle links).
  util::SimTime probeInterval = util::milliseconds(100);
  RelayConfig node;
  int monitorMinSamples = 8;
  std::uint64_t seed = 42;
  /// Optional link capacity model (default unlimited); see
  /// net::LinkCapacity for semantics.
  net::LinkCapacity linkCapacity;
};

class TransportService final : public FlowDirectory {
 public:
  /// The topology and trace must outlive the service.
  TransportService(const trace::Topology& topology,
                   const trace::Trace& trace, TransportConfig config = {});

  /// Opens a flow between two named sites; it starts sending one packet
  /// per `packetInterval` immediately. `deadline` defaults to the
  /// scheme-params deadline.
  net::FlowId openFlow(std::string_view source, std::string_view destination,
                       routing::SchemeKind scheme,
                       util::SimTime packetInterval = util::milliseconds(10));

  /// Pauses/resumes a flow's packet generation.
  void setSending(net::FlowId id, bool sending);

  /// Advances the simulation by `duration`.
  void run(util::SimTime duration);

  const FlowStats& stats(net::FlowId id) const;
  const FlowContext& context(net::FlowId id) const;
  std::size_t flowCount() const { return flows_.size(); }
  const OverlayNode& node(graph::NodeId id) const { return *nodes_[id]; }
  /// Mutable node access (chaos injection: crash/restart).
  OverlayNode& node(graph::NodeId id) { return *nodes_[id]; }
  MonitorMode monitorMode() const { return config_.monitorMode; }
  /// The monitor's current routing view (last closed interval).
  routing::NetworkView currentView() const { return monitor_.view(); }
  net::Simulator& simulator() { return simulator_; }
  /// The simulated network (chaos injection: condition overrides).
  net::SimulatedNetwork& network() { return network_; }
  const trace::Topology& topology() const { return *topology_; }

  /// Observes every app-layer delivery (first copy reaching the flow
  /// destination): (flow, packet, end-to-end latency, counted on-time).
  /// Runs after the stats update. Used by the chaos InvariantChecker.
  using DeliveryObserver = std::function<void(
      net::FlowId, const net::Packet&, util::SimTime latency, bool onTime)>;
  void setDeliveryObserver(DeliveryObserver observer);

  /// Delays every decision tick scheduled from now on by `delay` beyond
  /// the configured interval (chaos monitor-delay faults; 0 restores the
  /// normal cadence). Takes effect from the next tick scheduling.
  void setDecisionTickDelay(util::SimTime delay);

  // FlowDirectory:
  const FlowContext* flowContext(net::FlowId id) const override;
  void onDelivered(net::FlowId id, const net::Packet& packet) override;

  /// Attaches telemetry (nullable) across every layer the service owns:
  /// the event simulator, the simulated network, the link monitor, every
  /// overlay node, and every flow's routing scheme -- plus per-flow send
  /// / delivery / recovery counters, a delivery-latency histogram, and
  /// GraphSwitch trace events whenever a decision tick changes a flow's
  /// dissemination graph. Flows opened later inherit the telemetry.
  void setTelemetry(telemetry::Telemetry* telemetry);

 private:
  struct FlowRuntime {
    FlowContext context;
    std::unique_ptr<routing::RoutingScheme> scheme;
    net::SequenceNumber nextSequence = 0;
    FlowStats stats;
    bool sending = true;
    // Telemetry handles (null when telemetry is detached).
    telemetry::Counter* sentCounter = nullptr;
    telemetry::Counter* onTimeCounter = nullptr;
    telemetry::Counter* lateCounter = nullptr;
    telemetry::Counter* recoveredCounter = nullptr;
    telemetry::HistogramMetric* latencyHistogram = nullptr;
    telemetry::Counter* graphSwitchCounter = nullptr;
    /// Member edges of the last selected graph (graph-switch detection).
    std::vector<graph::EdgeId> lastGraphEdges;
  };

  void scheduleDecisionTick();
  void scheduleProbeTick();
  void scheduleFlowTick(net::FlowId id);
  void attachFlowTelemetry(FlowRuntime& runtime);
  /// Called after each select(): counts a graph switch when the member
  /// edge set changed since the previous decision.
  void noteGraphSelected(FlowRuntime& runtime);

  const trace::Topology* topology_;
  TransportConfig config_;
  net::Simulator simulator_;
  net::SimulatedNetwork network_;
  LinkMonitor monitor_;
  std::vector<std::unique_ptr<OverlayNode>> nodes_;
  std::vector<std::unique_ptr<FlowRuntime>> flows_;
  DeliveryObserver deliveryObserver_;
  util::SimTime decisionTickDelay_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace dg::core
