#include "live/daemon.hpp"

#include <algorithm>
#include <utility>

namespace dg::live {

Daemon::Daemon(EventLoop& loop, const graph::Graph& overlay,
               DaemonConfig config)
    : loop_(&loop),
      overlay_(&overlay),
      config_(config),
      socket_(config.port),
      membership_(config.node, config.membership),
      node_(config.node, overlay, *this,
            LiveNodeConfig{config.recoveryEnabled, config.sendBufferPackets}) {
  onShutdown_ = [this] { loop_->stop(); };
  membership_.onDiscover([this](const PeerInfo& peer) {
    if (telemetry_ != nullptr) {
      telemetry_->trace.record(loop_->now(),
                               telemetry::TraceEventKind::PeerDiscovered, -1,
                               config_.node, -1,
                               static_cast<double>(peer.node));
    }
    if (userOnDiscover_) userOnDiscover_(peer);
  });
  membership_.onDisappear([this](const PeerInfo& peer) {
    if (telemetry_ != nullptr) {
      telemetry_->trace.record(loop_->now(),
                               telemetry::TraceEventKind::PeerDisappeared, -1,
                               config_.node, -1,
                               static_cast<double>(peer.node));
    }
    if (userOnDisappear_) userOnDisappear_(peer);
  });
}

void Daemon::enableImpairment(const chaos::ChaosSchedule& schedule,
                              std::uint64_t seed, double residualLoss) {
  impairment_ =
      std::make_unique<ImpairmentPlan>(*overlay_, schedule, seed,
                                       residualLoss);
}

void Daemon::addFlow(const LiveFlow& flow) {
  flows_.push_back(FlowState{flow, 0, 0});
}

void Daemon::seedPeer(graph::NodeId peer, std::uint16_t peerPort) {
  membership_.seed(peer, peerPort);
}

void Daemon::start() {
  if (started_) return;
  started_ = true;
  loop_->addFd(socket_.fd(), [this] { onReadable(); });
  heartbeatTick();
}

void Daemon::stop() {
  if (!started_) return;
  started_ = false;
  Message bye;
  bye.type = MessageType::Bye;
  bye.sender = config_.node;
  bye.incarnation = config_.incarnation;
  bye.helloSeq = helloSeq_;
  for (const auto& [peer, info] : membership_.peers()) {
    sendControl(peer, bye);
  }
  loop_->removeFd(socket_.fd());
}

// dgcheck: hot
void Daemon::onReadable() {
  socket_.drain([this](std::span<const std::byte> datagram) {
    ++counters_.socketReceives;
    if (!decodeMessageInto(datagram, received_)) {
      ++counters_.decodeErrors;
      return;
    }
    dispatch(received_);
  });
}

// dgcheck: hot
void Daemon::dispatch(const Message& message) {
  switch (message.type) {
    case MessageType::Data:
    case MessageType::Retransmission:
    case MessageType::Nack:
      // An edge message can beat our Go by the coordinator's fan-out
      // skew; the first one pins the soak epoch just as Go would.
      if (soakStart_ < 0) soakStart_ = loop_->now();
      node_.handleMessage(message, soakNow());
      return;
    case MessageType::Hello:
      membership_.recordHello(message.sender, 0, message.incarnation,
                              loop_->now());
      return;
    case MessageType::Bye:
      membership_.recordBye(message.sender, loop_->now());
      return;
    case MessageType::Go:
      handleGo(message);
      return;
    case MessageType::StatsRequest:
      sendStatsReply(message.token);
      return;
    case MessageType::StatsReply:
      return;  // coordinator traffic; daemons have nothing to do
    case MessageType::Shutdown:
      handleShutdown();
      return;
  }
}

// dgcheck: cold: once per soak; the coordinator sends Go twice at most
void Daemon::handleGo(const Message& message) {
  if (goReceived_) return;  // the coordinator sends Go twice for safety
  goReceived_ = true;
  if (soakStart_ < 0) soakStart_ = loop_->now();
  horizon_ = message.horizon;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    flows_[i].nextDue = 0;
    originateTick(i);
  }
}

void Daemon::handleShutdown() {
  if (onShutdown_) onShutdown_();
}

void Daemon::originateTick(std::size_t flowIndex) {
  FlowState& state = flows_[flowIndex];
  const util::SimTime now = soakNow();
  if (now >= horizon_) return;  // the flow is done
  node_.originate(state.flow, state.nextSequence++, now);
  // Anchor the cadence to the grid (nextDue += interval, not now +
  // interval) so timer jitter cannot drift the total packet count.
  state.nextDue += config_.packetInterval;
  loop_->scheduleAt(state.nextDue + soakStart_,
                    [this, flowIndex] { originateTick(flowIndex); });
}

void Daemon::heartbeatTick() {
  Message hello;
  hello.type = MessageType::Hello;
  hello.sender = config_.node;
  hello.incarnation = config_.incarnation;
  hello.helloSeq = helloSeq_++;
  for (const auto& [peer, info] : membership_.peers()) {
    sendControl(peer, hello);
  }
  membership_.tick(loop_->now());
  loop_->scheduleAfter(config_.membership.heartbeatInterval,
                       [this] { heartbeatTick(); });
}

// dgcheck: hot
void Daemon::sendOnEdge(graph::EdgeId edge, const Message& message) {
  const util::SimTime now = soakStart_ < 0 ? 0 : soakNow();
  util::SimTime delay = 0;
  if (impairment_ != nullptr) {
    const ImpairmentDecision decision = impairment_->decide(edge, now);
    if (decision.drop) {
      ++counters_.impairmentDrops;
      return;
    }
    delay = decision.delay;
    if (delay > impairment_->baselineLatency(edge)) {
      ++counters_.impairmentDelays;
    }
  }
  const graph::NodeId to = overlay_->edge(edge).to;
  const auto peerPort = membership_.lookup(to);
  if (!peerPort || *peerPort == 0) return;  // peer address unknown
  const std::uint32_t index = enqueue(*peerPort, message);
  if (delay > 0) {
    loop_->scheduleAfter(delay, [this, index] { transmitPending(index); });
  } else {
    transmitPending(index);
  }
}

std::uint32_t Daemon::enqueue(std::uint16_t port, const Message& message) {
  if (freePending_ == kNoPending) growDelayLine();
  const std::uint32_t index = freePending_;
  PendingSend& pending = delayLine_[index];
  freePending_ = pending.nextFree;
  const std::size_t size = encodedSize(message);
  if (pending.bytes.size() < size) growPendingBuffer(pending, size);
  pending.size = encodeMessageInto(message, pending.bytes);
  pending.port = port;
  return index;
}

// dgcheck: hot
void Daemon::transmitPending(std::uint32_t index) {
  PendingSend& pending = delayLine_[index];
  if (socket_.sendTo(pending.port, {pending.bytes.data(), pending.size}))
    ++counters_.socketSends;
  pending.nextFree = freePending_;
  freePending_ = index;
}

// dgcheck: cold: adds a delay-line slot; the line only grows to the peak number of datagrams in flight
void Daemon::growDelayLine() {
  freePending_ = static_cast<std::uint32_t>(delayLine_.size());
  delayLine_.emplace_back();
  delayLine_.back().nextFree = kNoPending;
}

// dgcheck: cold: a slot's buffer grows to the largest datagram it has held, at most one full NACK or StatsReply
void Daemon::growPendingBuffer(PendingSend& pending, std::size_t size) {
  pending.bytes.resize(size);
}

void Daemon::sendControl(graph::NodeId peer, const Message& message) {
  const auto peerPort = membership_.lookup(peer);
  if (!peerPort || *peerPort == 0) return;
  transmitPending(enqueue(*peerPort, message));
}

// dgcheck: cold: coordinator traffic, one reply per StatsRequest
void Daemon::sendStatsReply(std::uint32_t token) {
  if (config_.coordinatorPort == 0) return;
  Message reply;
  reply.type = MessageType::StatsReply;
  reply.sender = config_.node;
  reply.token = token;
  reply.counters = counters();
  reply.flowStats = flowStatsEntries();
  transmitPending(enqueue(config_.coordinatorPort, reply));
}

std::vector<FlowStatsEntry> Daemon::flowStatsEntries() const {
  std::vector<FlowStatsEntry> entries;
  entries.reserve(node_.flowStats().size());
  for (const auto& [flow, entry] : node_.flowStats()) {
    if (entries.size() >= kMaxFlowStats) break;
    entries.push_back(entry);
  }
  return entries;
}

DaemonCounters Daemon::counters() const {
  DaemonCounters c = counters_;
  // An edge message on an edge that does not end here is as malformed
  // as one that fails to decode.
  c.decodeErrors += node_.foreignEdgeDropped();
  c.duplicatesDropped = node_.duplicatesDropped();
  c.expiredDropped = node_.expiredDropped();
  c.nacksSent = node_.nacksSent();
  c.retransmissionsSent = node_.retransmissionsSent();
  c.nackRecoveries = node_.nackRecoveries();
  c.membershipDiscoveries = membership_.discoveries();
  c.membershipDisappearances = membership_.disappearances();
  // With a shared in-process loop these are fleet-wide; per-process they
  // are this daemon's own.
  c.eventLoopWakeups = loop_->wakeups();
  c.timersFired = loop_->timersFired();
  c.membershipAlive = membership_.aliveCount();
  return c;
}

void Daemon::exportTelemetry(telemetry::Telemetry& telemetry) const {
  const DaemonCounters c = counters();
  const telemetry::Labels labels{{"node", std::to_string(config_.node)}};
  auto publish = [&](std::string_view name, std::uint64_t value) {
    telemetry.metrics.counter(name, labels).inc(value);
  };
  publish("dg_live_socket_sends_total", c.socketSends);
  publish("dg_live_socket_receives_total", c.socketReceives);
  publish("dg_live_decode_errors_total", c.decodeErrors);
  publish("dg_live_impairment_drops_total", c.impairmentDrops);
  publish("dg_live_impairment_delays_total", c.impairmentDelays);
  publish("dg_live_duplicates_dropped_total", c.duplicatesDropped);
  publish("dg_live_expired_dropped_total", c.expiredDropped);
  publish("dg_live_nacks_sent_total", c.nacksSent);
  publish("dg_live_retransmissions_sent_total", c.retransmissionsSent);
  publish("dg_live_nack_roundtrips_total", c.nackRecoveries);
  publish("dg_live_membership_discover_total", c.membershipDiscoveries);
  publish("dg_live_membership_disappear_total", c.membershipDisappearances);
  publish("dg_live_event_loop_wakeups_total", c.eventLoopWakeups);
  publish("dg_live_timers_fired_total", c.timersFired);
  telemetry.metrics.gauge("dg_live_membership_alive", labels)
      .high(static_cast<double>(c.membershipAlive));
}

}  // namespace dg::live
