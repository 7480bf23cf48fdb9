// The relay: one overlay node's forwarding and recovery rules, as a state
// machine with no I/O. A driver passes in each data or NACK message with
// the current time; the relay answers through a RelaySink with the sends
// and deliveries the rules call for. core::OverlayNode drives it on the
// event simulator, live::LiveNode in the UDP daemon.
//
// Forwarding: the first copy of a packet goes out on every member
// out-edge (from the stamped graph mask, else the driver's active graph)
// except back to the neighbor it came from. Later copies are dropped, and
// so is a packet already as old as its deadline.
// Recovery: each (in-edge, flow) keeps a cursor of the next expected link
// sequence. A packet beyond it opens a gap, whose missing sequences are
// NACKed once on the reverse edge; the upstream node retransmits from a
// per-(out-edge, flow) ring of its last sends. All of it is soft state
// that restart() forgets; after a restart a cursor starts at the first
// sequence that arrives, so nothing missed while down is NACKed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "core/sequence_window.hpp"
#include "graph/dissemination_graph.hpp"
#include "graph/graph.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace dg::core {

/// The NACK window: a gap asks for at most its newest this many
/// sequences, the ones still worth recovering. Also the wire cap on a
/// live Nack.
inline constexpr std::size_t kMaxNackSequences = 256;

struct RelayConfig {
  bool recoveryEnabled = true;
  /// Retransmission buffer per (out-edge, flow), in packets.
  std::size_t sendBufferPackets = 64;
};

/// What the driver knows about a packet's flow.
struct RelayFlow {
  util::SimTime deadline = 0;
  graph::NodeId destination = graph::kInvalidNode;
  /// Member edges for unstamped packets (graphMask == 0); null: none.
  const graph::DisseminationGraph* graph = nullptr;
};

/// Counted relay events, reported to the sink as they happen.
enum class RelayEvent { Duplicate, Expired, Nack, Retransmission };

template <typename Message>
class RelaySink {
 public:
  RelaySink() = default;
  /// The relay keeps a pointer to its sink, so a driver stays in place.
  RelaySink(const RelaySink&) = delete;
  RelaySink& operator=(const RelaySink&) = delete;
  virtual ~RelaySink() = default;
  /// Puts `message` on overlay edge `edge`. The message is the relay's
  /// scratch buffer: the sink may stamp its own fields into it and must
  /// copy what it keeps.
  virtual void send(graph::EdgeId edge, Message& message) = 0;
  /// The first copy of a packet reached its flow destination.
  virtual void deliver(const Message& message, util::SimTime now) = 0;
  /// A counted event, before any send it causes. `edge` is the data edge
  /// of a retransmission, otherwise the arrival edge.
  virtual void note(RelayEvent /*event*/, const Message& /*message*/,
                    graph::EdgeId /*edge*/) {}
};

/// The message-independent half of the relay: duplicate suppression,
/// gap detection and the counters.
class RelayState {
 public:
  graph::NodeId id() const { return id_; }
  std::uint64_t duplicatesDropped() const { return duplicatesDropped_; }
  std::uint64_t expiredDropped() const { return expiredDropped_; }
  std::uint64_t nacksSent() const { return nacksSent_; }
  std::uint64_t retransmissionsSent() const { return retransmissionsSent_; }
  /// Retransmissions that arrived as the first (useful) copy.
  std::uint64_t nackRecoveries() const { return nackRecoveries_; }

 protected:
  RelayState(graph::NodeId id, const graph::Graph& overlay,
             RelayConfig config);

  /// Marks (flow, sequence) seen; false when it already was.
  bool firstCopy(net::FlowId flow, net::SequenceNumber sequence);
  /// Moves the (edge, flow) cursor past `sequence` and returns the start
  /// of the NACK window [start, sequence): `sequence` itself when none of
  /// it is missing.
  net::SequenceNumber noteArrival(graph::EdgeId edge, net::FlowId flow,
                                  net::SequenceNumber sequence);
  static std::uint64_t key(graph::EdgeId edge, net::FlowId flow) {
    return (static_cast<std::uint64_t>(edge) << 32) | flow;
  }

  graph::NodeId id_;
  const graph::Graph* overlay_;
  RelayConfig config_;
  std::uint64_t duplicatesDropped_ = 0;
  std::uint64_t expiredDropped_ = 0;
  std::uint64_t nacksSent_ = 0;
  std::uint64_t retransmissionsSent_ = 0;
  std::uint64_t nackRecoveries_ = 0;
  std::unordered_map<net::FlowId, SequenceWindow> seen_;
  /// Next expected sequence per (in-edge, flow).
  std::unordered_map<std::uint64_t, net::SequenceNumber> expected_;
  /// Set by the first restart: from then on a new cursor starts at its
  /// first arrival instead of at sequence 0.
  bool restarted_ = false;
};

/// The relay over a driver's message type. It reads `type`, `flow`,
/// `sequence`, `originTime`, `graphMask` and `nackSequences`; buffered
/// copies are the driver's own messages.
template <typename Message>
class Relay : public RelayState {
  using Type = decltype(Message::type);

 public:
  Relay(graph::NodeId id, const graph::Graph& overlay,
        RelaySink<Message>& sink, RelayConfig config)
      : RelayState(id, overlay, config), sink_(&sink) {}

  /// A fresh data packet from this node, the flow source.
  // dgcheck: hot
  void originate(const Message& message, const RelayFlow& flow,
                 util::SimTime now) {
    firstCopy(message.flow, message.sequence);
    forward(message, graph::kInvalidEdge, flow, now);
  }

  /// A Data or Retransmission copy arrived on `arrivalEdge`.
  // dgcheck: hot
  void handleData(const Message& message, graph::EdgeId arrivalEdge,
                  const RelayFlow& flow, util::SimTime now) {
    // Gap detection runs for every copy, even duplicates: link
    // sequencing is a property of the link, not of the flood.
    if (message.type == Type::Data && config_.recoveryEnabled &&
        arrivalEdge != graph::kInvalidEdge) {
      requestGap(message, arrivalEdge);
    }
    if (!firstCopy(message.flow, message.sequence)) {
      ++duplicatesDropped_;
      sink_->note(RelayEvent::Duplicate, message, arrivalEdge);
      return;
    }
    if (message.type == Type::Retransmission) ++nackRecoveries_;
    // A destination can still have member out-edges (e.g. flooding):
    // keep forwarding so the dissemination semantics stay uniform.
    if (id_ == flow.destination) sink_->deliver(message, now);
    forward(message, arrivalEdge, flow, now);
  }

  /// A NACK arrived on `arrivalEdge`, the reverse of a data edge this
  /// node sent on: retransmit what the buffer still holds.
  // dgcheck: hot
  void handleNack(const Message& nack, graph::EdgeId arrivalEdge) {
    if (arrivalEdge == graph::kInvalidEdge) return;
    const auto dataEdge = overlay_->reverseEdge(arrivalEdge);
    if (!dataEdge) return;
    const auto it = sendRings_.find(key(*dataEdge, nack.flow));
    if (it == sendRings_.end()) return;
    const SendRing& ring = it->second;
    for (const net::SequenceNumber seq : nack.nackSequences) {
      const Message* found = ring.find(seq);
      if (found == nullptr) continue;
      out_ = *found;
      out_.type = Type::Retransmission;
      ++retransmissionsSent_;
      sink_->note(RelayEvent::Retransmission, out_, *dataEdge);
      sink_->send(*dataEdge, out_);
    }
  }

  /// A process restart: every piece of soft state is gone.
  void restart() {
    seen_.clear();
    expected_.clear();
    sendRings_.clear();
    restarted_ = true;
  }

 private:
  /// The copies last sent on one (out-edge, flow), oldest first. It grows
  /// one slot per send up to sendBufferPackets, then each send overwrites
  /// the oldest copy. Recovered packets enter it out of sequence order,
  /// so it is searched, not indexed by sequence.
  struct SendRing {
    std::vector<Message> slots;
    std::size_t oldest = 0;  ///< index of the oldest copy once full

    /// The oldest copy of `sequence`, or null.
    const Message* find(net::SequenceNumber sequence) const {
      for (std::size_t i = oldest; i < slots.size(); ++i)
        if (slots[i].sequence == sequence) return &slots[i];
      for (std::size_t i = 0; i < oldest; ++i)
        if (slots[i].sequence == sequence) return &slots[i];
      return nullptr;
    }
  };

  void forward(const Message& message, graph::EdgeId arrivalEdge,
               const RelayFlow& flow, util::SimTime now) {
    const bool stamped = message.graphMask != 0;
    if (!stamped && flow.graph == nullptr) return;
    if (now - message.originTime >= flow.deadline) {
      ++expiredDropped_;
      sink_->note(RelayEvent::Expired, message, arrivalEdge);
      return;  // cannot be useful downstream anymore
    }
    const graph::NodeId arrivalNeighbor =
        arrivalEdge == graph::kInvalidEdge ? graph::kInvalidNode
                                           : overlay_->edge(arrivalEdge).from;
    out_ = message;
    out_.type = Type::Data;
    out_.nackSequences.clear();
    const auto forwardOn = [&](graph::EdgeId out) {
      if (overlay_->edge(out).to == arrivalNeighbor) return;  // no echo
      if (config_.recoveryEnabled) bufferForRetransmit(out);
      sink_->send(out, out_);
    };
    if (stamped) {
      for (const graph::EdgeId out : overlay_->outEdges(id_)) {
        if (message.graphMask & (std::uint64_t{1} << out)) forwardOn(out);
      }
    } else {
      for (const graph::EdgeId out : flow.graph->outEdges(id_)) forwardOn(out);
    }
  }

  void requestGap(const Message& message, graph::EdgeId arrivalEdge) {
    const net::SequenceNumber first =
        noteArrival(arrivalEdge, message.flow, message.sequence);
    if (first == message.sequence) return;
    const auto reverse = overlay_->reverseEdge(arrivalEdge);
    if (!reverse) return;  // no reverse link: recovery impossible
    nack_.type = Type::Nack;
    nack_.flow = message.flow;
    nack_.sequence = message.sequence;
    nack_.originTime = message.originTime;
    nack_.nackSequences.resize(
        static_cast<std::size_t>(message.sequence - first));
    std::iota(nack_.nackSequences.begin(), nack_.nackSequences.end(), first);
    ++nacksSent_;
    sink_->note(RelayEvent::Nack, nack_, arrivalEdge);
    sink_->send(*reverse, nack_);
  }

  void bufferForRetransmit(graph::EdgeId outEdge) {
    if (config_.sendBufferPackets == 0) return;
    SendRing& ring = sendRings_[key(outEdge, out_.flow)];
    if (ring.slots.size() < config_.sendBufferPackets) {
      growRing(ring);
      return;
    }
    ring.slots[ring.oldest] = out_;
    if (++ring.oldest == ring.slots.size()) ring.oldest = 0;
  }

  /// Appends out_ to a ring that is not full yet.
  // dgcheck: cold: a ring grows to sendBufferPackets copies in its first sends, then only overwrites
  void growRing(SendRing& ring) {
    if (ring.slots.size() == ring.slots.capacity()) {
      ring.slots.reserve(
          std::min(config_.sendBufferPackets,
                   std::max<std::size_t>(4, 2 * ring.slots.size())));
    }
    ring.slots.push_back(out_);
  }

  RelaySink<Message>* sink_;
  /// Per (out-edge, flow) retransmission rings.
  std::unordered_map<std::uint64_t, SendRing> sendRings_;
  /// Reused output messages: no per-packet allocation.
  Message out_;
  Message nack_;
};

}  // namespace dg::core
