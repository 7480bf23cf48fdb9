// The live overlay daemon: one UDP socket, one LiveNode, membership and
// an optional chaos impairment shim, wired onto an EventLoop.
//
// Lifecycle (driven by a fleet coordinator over the same socket):
//   1. start(): joins the loop, begins heartbeating seeded peers.
//   2. Go: fixes the soak epoch and starts originating configured flows
//      every packetInterval until the horizon.
//   3. StatsRequest -> StatsReply: counters + per-flow delivery stats.
//   4. Shutdown: invokes the shutdown hook (default: stop the loop).
//
// The impairment shim sits on the *send* side: immediately before a
// datagram would leave on an overlay edge, the plan is consulted at
// current soak time -- a drop means no sendto() ever happens, and the
// link latency holds the datagram on a loop timer (loopback itself is
// ~free, so the shim IS the emulated propagation delay). Membership and
// control datagrams bypass the shim: they are the management plane.
//
// The per-datagram path allocates nothing once warmed up: every
// outgoing datagram is encoded into a pooled buffer of the delay line (a
// slot reused through a free list), a delayed one's timer captures only
// the slot index, and a received datagram is decoded into one reused
// Message.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "chaos/schedule.hpp"
#include "graph/graph.hpp"
#include "live/event_loop.hpp"
#include "live/impairment.hpp"
#include "live/live_node.hpp"
#include "live/membership.hpp"
#include "live/udp.hpp"
#include "live/wire.hpp"
#include "telemetry/telemetry.hpp"

namespace dg::live {

struct DaemonConfig {
  graph::NodeId node = graph::kInvalidNode;
  /// UDP port to bind (0 = kernel-assigned; read back via port()).
  std::uint16_t port = 0;
  /// Where StatsReply datagrams go (the coordinator's port).
  std::uint16_t coordinatorPort = 0;
  /// Bumped across restarts so peers can tell a restart from lag.
  std::uint64_t incarnation = 1;
  bool recoveryEnabled = false;
  std::size_t sendBufferPackets = 64;
  MembershipConfig membership;
  /// Origination cadence of this daemon's configured flows.
  util::SimTime packetInterval = util::milliseconds(5);
};

class Daemon : public LiveNodeSender {
 public:
  /// `overlay` must outlive the daemon. Binds the socket immediately;
  /// throws std::system_error when the port is taken.
  Daemon(EventLoop& loop, const graph::Graph& overlay, DaemonConfig config);

  graph::NodeId nodeId() const { return config_.node; }
  std::uint16_t port() const { return socket_.localPort(); }

  /// Replays `schedule` as socket-layer drops/delays, seeded per edge.
  void enableImpairment(const chaos::ChaosSchedule& schedule,
                        std::uint64_t seed, double residualLoss = 1e-4);

  /// Registers a flow this daemon originates after Go (flow.source must
  /// be this node).
  void addFlow(const LiveFlow& flow);

  /// Seeds a peer's address (static fleet configuration).
  void seedPeer(graph::NodeId peer, std::uint16_t peerPort);

  /// Joins the event loop and starts heartbeating.
  void start();
  /// Sends Bye to every peer and leaves the loop.
  void stop();

  /// Discovery hooks, forwarded from membership (the daemon also records
  /// telemetry churn events on these transitions).
  void onDiscover(Membership::PeerCallback callback) {
    userOnDiscover_ = std::move(callback);
  }
  void onDisappear(Membership::PeerCallback callback) {
    userOnDisappear_ = std::move(callback);
  }
  /// Invoked on a Shutdown datagram; defaults to stopping the loop.
  void onShutdown(std::function<void()> callback) {
    onShutdown_ = std::move(callback);
  }

  /// Attaches telemetry (nullable): membership churn trace events are
  /// recorded live; exportTelemetry() publishes the counter totals.
  void setTelemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }
  /// Publishes this daemon's counters into the registry under
  /// dg_live_* names labeled with the node id.
  void exportTelemetry(telemetry::Telemetry& telemetry) const;

  /// Aggregate counter snapshot (daemon + node + membership + loop).
  DaemonCounters counters() const;
  const Membership& membership() const { return membership_; }
  const LiveNode& node() const { return node_; }
  bool goReceived() const { return goReceived_; }

  /// Ascending-flow-id stats entries, exactly as a StatsReply carries.
  std::vector<FlowStatsEntry> flowStatsEntries() const;

  // LiveNodeSender: overlay-edge messages go through the impairment shim.
  void sendOnEdge(graph::EdgeId edge, const Message& message) override;

 private:
  struct FlowState {
    LiveFlow flow;
    net::SequenceNumber nextSequence = 0;
    util::SimTime nextDue = 0;  ///< soak time of the next origination
  };

  /// One datagram of the delay line: its encoding and destination.
  struct PendingSend {
    std::vector<std::byte> bytes;  ///< keeps its capacity across reuses
    std::size_t size = 0;
    std::uint16_t port = 0;
    std::uint32_t nextFree = 0;
  };
  static constexpr std::uint32_t kNoPending = UINT32_MAX;

  util::SimTime soakNow() const { return loop_->now() - soakStart_; }
  void onReadable();
  void dispatch(const Message& message);
  void handleGo(const Message& message);
  void handleShutdown();
  void sendStatsReply(std::uint32_t token);
  void originateTick(std::size_t flowIndex);
  void heartbeatTick();
  /// Direct (unimpaired) management-plane send to a peer node.
  void sendControl(graph::NodeId peer, const Message& message);
  /// Encodes `message` into a free delay-line slot bound for `port`.
  /// Every datagram the daemon sends passes through one.
  std::uint32_t enqueue(std::uint16_t port, const Message& message);
  /// Sends a slot's datagram and returns the slot to the free list.
  void transmitPending(std::uint32_t index);
  void growDelayLine();
  void growPendingBuffer(PendingSend& pending, std::size_t size);

  EventLoop* loop_;
  const graph::Graph* overlay_;
  DaemonConfig config_;
  UdpSocket socket_;
  Membership membership_;
  LiveNode node_;
  std::unique_ptr<ImpairmentPlan> impairment_;
  std::vector<FlowState> flows_;

  bool started_ = false;
  bool goReceived_ = false;
  /// Loop time of the soak epoch; -1 until the soak has started.
  util::SimTime soakStart_ = -1;
  util::SimTime horizon_ = 0;
  std::uint32_t helloSeq_ = 0;

  DaemonCounters counters_;  ///< socket/decode/impairment counters only
  /// The last datagram decoded, reused for every receive.
  Message received_;
  std::vector<PendingSend> delayLine_;
  std::uint32_t freePending_ = kNoPending;

  Membership::PeerCallback userOnDiscover_;
  Membership::PeerCallback userOnDisappear_;
  std::function<void()> onShutdown_;
  telemetry::Telemetry* telemetry_ = nullptr;
};

}  // namespace dg::live
