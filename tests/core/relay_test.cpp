// The relay's forwarding and recovery rules, run through both of its
// drivers: core::OverlayNode (the simulator) and live::LiveNode (the
// daemon). Each test is a template over the driver and runs once per
// driver, registered under the driver's own suite name (OverlayNode.*,
// LiveNode.*), so a test id names the driver that failed.
//
// Both drivers ride the same net::SimulatedNetwork: LiveNode messages
// cross it as tickets, so a seeded loss pattern is the same for both.
// Wire::Network hands every arrival to the nodes (latency and loss from
// the trace). Wire::Manual has zero-latency links whose arrivals are only
// recorded in `sent`; the test delivers them itself, at explicit times.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/overlay_node.hpp"
#include "live/live_node.hpp"
#include "test_support.hpp"

namespace dg {
namespace {

using core::OverlayNode;
using live::LiveNode;

enum class Wire { Network, Manual };

struct TestFlow {
  net::FlowId id = 0;
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  util::SimTime deadline = util::milliseconds(65);
  /// The simulator forwards unstamped on this graph; the daemon stamps
  /// its mask. Null: both stamp `mask`.
  const graph::DisseminationGraph* graph = nullptr;
  std::uint64_t mask = 0;
};

template <typename Msg>
struct Sent {
  graph::EdgeId edge;
  Msg message;
};

template <typename Msg>
class HarnessBase {
 public:
  using Type = decltype(Msg::type);

  std::vector<Sent<Msg>> sentBy(graph::NodeId node) const {
    std::vector<Sent<Msg>> out;
    for (const Sent<Msg>& s : sent)
      if (g.edge(s.edge).from == node) out.push_back(s);
    return out;
  }

  graph::Graph g;
  trace::Trace trace;
  net::Simulator sim;
  net::SimulatedNetwork network;
  std::vector<Sent<Msg>> sent;
  std::vector<std::pair<net::FlowId, net::SequenceNumber>> deliveries;
  std::uint64_t deliveredOnTime = 0;
  std::uint64_t deliveredLate = 0;

 protected:
  HarnessBase(const graph::Graph& graph, Wire wire, std::uint64_t seed,
              double residualLoss)
      : g(graph),
        trace(wire == Wire::Manual
                  ? trace::Trace(util::seconds(10), 1,
                                 std::vector<trace::LinkConditions>(
                                     graph.edgeCount()))
                  : test::healthyTrace(graph, 1000, util::seconds(10),
                                       residualLoss)),
        network(sim, g, trace, seed),
        wire_(wire) {}

  Wire wire_;
};

template <typename Driver>
class Harness;

template <>
class Harness<OverlayNode> final : public HarnessBase<net::Packet>,
                                   public core::FlowDirectory {
 public:
  explicit Harness(const graph::Graph& graph, Wire wire = Wire::Network,
                   core::RelayConfig config = {}, std::uint64_t seed = 1,
                   double residualLoss = 0.0)
      : HarnessBase(graph, wire, seed, residualLoss) {
    for (graph::NodeId n = 0; n < g.nodeCount(); ++n) {
      nodes_.push_back(
          std::make_unique<OverlayNode>(n, network, *this, config));
      network.setDeliveryHandler(
          n, [this, n](graph::EdgeId e, const net::Packet& p) {
            if (wire_ == Wire::Manual) {
              sent.push_back({e, p});
            } else {
              nodes_[n]->handlePacket(e, p);
            }
          });
    }
  }

  const core::RelayState& node(graph::NodeId n) { return nodes_[n]->relay(); }

  void addFlow(const TestFlow& flow) {
    core::FlowContext& context = contexts_[flow.id];
    context.id = flow.id;
    context.flow = routing::Flow{flow.source, flow.destination};
    context.deadline = flow.deadline;
    context.activeGraph = flow.graph;
    context.graphMask = flow.graph != nullptr ? 0 : flow.mask;
  }

  void originateNow(graph::NodeId n, net::FlowId flow,
                    net::SequenceNumber seq) {
    ++originated_[{n, flow}];
    nodes_[n]->originate(contexts_.at(flow), seq, sim.now());
  }

  void receive(graph::EdgeId edge, const net::Packet& packet) {
    nodes_[g.edge(edge).to]->handlePacket(edge, packet);
  }

  net::Packet data(net::FlowId flow, graph::EdgeId /*edge*/,
                   net::SequenceNumber seq, util::SimTime originTime) const {
    net::Packet p;
    p.type = net::Packet::Type::Data;
    p.flow = flow;
    p.sequence = seq;
    p.originTime = originTime;
    p.graphMask = contexts_.at(flow).graphMask;
    return p;
  }

  graph::NodeId senderOf(const Sent<net::Packet>& s) const {
    return g.edge(s.edge).from;
  }
  graph::EdgeId edgeOf(const Sent<net::Packet>& s) const { return s.edge; }
  std::uint64_t flowSent(graph::NodeId n, net::FlowId flow) const {
    return originated_.at({n, flow});
  }
  std::uint64_t flowTransmissions(graph::NodeId n, net::FlowId flow) const {
    std::uint64_t count = 0;
    for (const Sent<net::Packet>& s : sentBy(n))
      if (s.message.flow == flow && s.message.type != Type::Nack) ++count;
    return count;
  }

  // FlowDirectory:
  const core::FlowContext* flowContext(net::FlowId id) const override {
    const auto it = contexts_.find(id);
    return it == contexts_.end() ? nullptr : &it->second;
  }
  void onDelivered(net::FlowId id, const net::Packet& packet) override {
    deliveries.push_back({id, packet.sequence});
    if (sim.now() - packet.originTime <= contexts_.at(id).deadline) {
      ++deliveredOnTime;
    } else {
      ++deliveredLate;
    }
  }

 private:
  std::vector<std::unique_ptr<OverlayNode>> nodes_;
  std::map<net::FlowId, core::FlowContext> contexts_;
  std::map<std::pair<graph::NodeId, net::FlowId>, std::uint64_t> originated_;
};

template <>
class Harness<LiveNode> final : public HarnessBase<live::Message> {
 public:
  explicit Harness(const graph::Graph& graph, Wire wire = Wire::Network,
                   core::RelayConfig config = {}, std::uint64_t seed = 1,
                   double residualLoss = 0.0)
      : HarnessBase(graph, wire, seed, residualLoss) {
    ports_.reserve(g.nodeCount());
    for (graph::NodeId n = 0; n < g.nodeCount(); ++n) {
      ports_.emplace_back(*this);
      nodes_.push_back(std::make_unique<LiveNode>(n, g, ports_[n], config));
      network.setDeliveryHandler(
          n, [this](graph::EdgeId e, const net::Packet& ticket) {
            const live::Message message = inFlight_[ticket.sequence];
            if (wire_ == Wire::Manual) {
              sent.push_back({e, message});
            } else {
              receive(e, message);
            }
          });
    }
  }

  LiveNode& node(graph::NodeId n) { return *nodes_[n]; }

  void addFlow(const TestFlow& flow) {
    live::LiveFlow& f = flows_[flow.id];
    f.id = flow.id;
    f.source = flow.source;
    f.destination = flow.destination;
    f.deadline = flow.deadline;
    f.graphMask =
        flow.graph != nullptr ? net::graphMaskOf(*flow.graph) : flow.mask;
  }

  void originateNow(graph::NodeId n, net::FlowId flow,
                    net::SequenceNumber seq) {
    nodes_[n]->originate(flows_.at(flow), seq, sim.now());
  }

  /// Hands `message` to the head of `edge`, recording a delivery when the
  /// destination's stats count one.
  void receive(graph::EdgeId edge, const live::Message& message) {
    LiveNode& to = *nodes_[g.edge(edge).to];
    const live::FlowStatsEntry before = statsOf(to, message.flow);
    to.handleMessage(message, sim.now());
    const live::FlowStatsEntry after = statsOf(to, message.flow);
    deliveredOnTime += after.deliveredOnTime - before.deliveredOnTime;
    deliveredLate += after.deliveredLate - before.deliveredLate;
    if (after.deliveredOnTime + after.deliveredLate !=
        before.deliveredOnTime + before.deliveredLate) {
      deliveries.push_back({message.flow, message.sequence});
    }
  }

  live::Message data(net::FlowId flow, graph::EdgeId edge,
                     net::SequenceNumber seq, util::SimTime originTime) const {
    const live::LiveFlow& f = flows_.at(flow);
    live::Message m;
    m.type = live::MessageType::Data;
    m.sender = g.edge(edge).from;
    m.edge = edge;
    m.flow = flow;
    m.sequence = seq;
    m.originTime = originTime;
    m.deadline = f.deadline;
    m.graphMask = f.graphMask;
    m.source = f.source;
    m.destination = f.destination;
    return m;
  }

  graph::NodeId senderOf(const Sent<live::Message>& s) const {
    return s.message.sender;
  }
  graph::EdgeId edgeOf(const Sent<live::Message>& s) const {
    return s.message.edge;
  }
  std::uint64_t flowSent(graph::NodeId n, net::FlowId flow) const {
    return nodes_[n]->flowStats().at(flow).sent;
  }
  std::uint64_t flowTransmissions(graph::NodeId n, net::FlowId flow) const {
    return nodes_[n]->flowStats().at(flow).transmissions;
  }

 private:
  struct Port final : live::LiveNodeSender {
    explicit Port(Harness& harness) : h(&harness) {}
    void sendOnEdge(graph::EdgeId edge,
                    const live::Message& message) override {
      net::Packet ticket;
      ticket.sequence = h->inFlight_.size();
      h->inFlight_.push_back(message);
      h->network.transmit(edge, ticket);
    }
    Harness* h;
  };

  static live::FlowStatsEntry statsOf(const LiveNode& node, net::FlowId flow) {
    const auto it = node.flowStats().find(flow);
    return it == node.flowStats().end() ? live::FlowStatsEntry{} : it->second;
  }

  std::vector<Port> ports_;
  std::vector<std::unique_ptr<LiveNode>> nodes_;
  std::map<net::FlowId, live::LiveFlow> flows_;
  std::vector<live::Message> inFlight_;
};

/// Manual-wire steps at explicit times, which must not decrease.
template <typename H>
void originate(H& h, graph::NodeId n, net::FlowId flow,
               net::SequenceNumber seq, util::SimTime at) {
  EXPECT_GE(at, h.sim.now());
  h.sim.runUntil(at);
  h.originateNow(n, flow, seq);
  h.sim.runUntil(at);
}

template <typename H, typename Msg>
void deliver(H& h, graph::EdgeId edge, const Msg& message, util::SimTime at) {
  EXPECT_GE(at, h.sim.now());
  h.sim.runUntil(at);
  h.receive(edge, message);
  h.sim.runUntil(at);
}

class DriverTest : public ::testing::Test {
 public:
  explicit DriverTest(void (*body)()) : body_(body) {}
  void TestBody() override { body_(); }

 private:
  void (*body_)();
};

bool registerForBothDrivers(const char* name, void (*overlay)(),
                            void (*live)(), int line) {
  ::testing::RegisterTest("OverlayNode", name, nullptr, nullptr, __FILE__,
                          line, [overlay]() -> ::testing::Test* {
                            return new DriverTest(overlay);
                          });
  ::testing::RegisterTest("LiveNode", name, nullptr, nullptr, __FILE__, line,
                          [live]() -> ::testing::Test* {
                            return new DriverTest(live);
                          });
  return true;
}

#define RELAY_TEST(Name)                                                   \
  template <typename Driver>                                               \
  void Name();                                                             \
  [[maybe_unused]] const bool Name##Registered = registerForBothDrivers(   \
      #Name, &Name<OverlayNode>, &Name<LiveNode>, __LINE__);               \
  template <typename Driver>                                               \
  void Name()

// --- Rules on the simulated network ------------------------------------

/// Line S-M-D with the S-M-D path as the flow's graph.
template <typename Driver>
struct LineCase {
  test::Line line;
  graph::DisseminationGraph dg;
  Harness<Driver> h;

  explicit LineCase(core::RelayConfig config = {})
      : dg(line.g, line.s, line.d), h(line.g, Wire::Network, config, 99) {
    dg.addPath({line.sm, line.md});
    h.addFlow({0, line.s, line.d, util::milliseconds(65), &dg, 0});
  }

  /// 100 packets 10 ms apart while S->M loses half of all transmissions.
  void sendThroughLossyFirstHop() {
    h.trace.setCondition(line.sm, 0,
                         trace::LinkConditions{0.5, util::milliseconds(10)});
    for (net::SequenceNumber seq = 0; seq < 100; ++seq) {
      h.sim.scheduleAt(
          static_cast<util::SimTime>(seq) * util::milliseconds(10),
          [this, seq] { h.originateNow(line.s, 0, seq); });
    }
    h.sim.runUntil(util::seconds(20));
  }
};

RELAY_TEST(DeliversAlongPath) {
  LineCase<Driver> c;
  c.h.originateNow(c.line.s, 0, 0);
  c.h.sim.runUntil(util::seconds(1));
  ASSERT_EQ(c.h.deliveries.size(), 1u);
  EXPECT_EQ(c.h.deliveries[0].second, 0u);
  // Two transmissions: S->M, M->D.
  EXPECT_EQ(c.h.network.transmissionCount(), 2u);
}

RELAY_TEST(RecoversFromSingleLoss) {
  LineCase<Driver> c;
  c.sendThroughLossyFirstHop();
  // All 100 packets fall inside the lossy interval, so retransmissions
  // also face 50% loss: expected delivery ~ (1-p) + p(1-p) = 75%.
  EXPECT_GE(c.h.deliveries.size(), 62u);
  EXPECT_LE(c.h.deliveries.size(), 88u);
  EXPECT_GT(c.h.node(c.line.m).nacksSent(), 0u);
  EXPECT_GT(c.h.node(c.line.s).retransmissionsSent(), 0u);
}

RELAY_TEST(NoRecoveryWhenDisabled) {
  core::RelayConfig config;
  config.recoveryEnabled = false;
  LineCase<Driver> c(config);
  c.sendThroughLossyFirstHop();
  EXPECT_EQ(c.h.node(c.line.m).nacksSent(), 0u);
  EXPECT_EQ(c.h.node(c.line.s).retransmissionsSent(), 0u);
  // Roughly half the packets are simply gone.
  EXPECT_LT(c.h.deliveries.size(), 80u);
  EXPECT_GT(c.h.deliveries.size(), 20u);
}

RELAY_TEST(DuplicateSuppressionOnMultipath) {
  // Diamond with both paths in the graph: destination receives two
  // copies, delivers once, drops one duplicate.
  test::Diamond d;
  graph::DisseminationGraph dg(d.g, d.s, d.d);
  dg.addPath({d.sa, d.ad});
  dg.addPath({d.sb, d.bd});
  Harness<Driver> h(d.g);
  h.addFlow({0, d.s, d.d, util::milliseconds(65), &dg, 0});
  h.originateNow(d.s, 0, 0);
  h.sim.runUntil(util::seconds(1));
  EXPECT_EQ(h.deliveries.size(), 1u);
  EXPECT_EQ(h.node(d.d).duplicatesDropped(), 1u);
  EXPECT_EQ(h.network.transmissionCount(), 4u);
}

RELAY_TEST(ExpiredPacketsNotForwarded) {
  LineCase<Driver> c;
  // Deadline shorter than the first hop: M drops instead of forwarding.
  c.h.addFlow({1, c.line.s, c.line.d, util::milliseconds(5), &c.dg, 0});
  c.h.originateNow(c.line.s, 1, 0);
  c.h.sim.runUntil(util::seconds(1));
  EXPECT_TRUE(c.h.deliveries.empty());
  EXPECT_EQ(c.h.network.transmissionCount(), 1u);
  EXPECT_EQ(c.h.node(c.line.m).expiredDropped(), 1u);
}

RELAY_TEST(NoEchoRule) {
  // Flooding graph on the line: M must not send the packet back to S.
  test::Line line;
  const auto dg = graph::floodingGraph(line.g, line.s, line.d);
  Harness<Driver> h(line.g);
  h.addFlow({0, line.s, line.d, util::milliseconds(65), &dg, 0});
  h.originateNow(line.s, 0, 0);
  h.sim.runUntil(util::seconds(1));
  // S->M, then M->D only (not M->S). D has no member out-edge except
  // back to M, suppressed. Total: 2 transmissions.
  EXPECT_EQ(h.network.transmissionCount(), 2u);
  EXPECT_EQ(h.deliveries.size(), 1u);
}

RELAY_TEST(RecoveryRequestedOncePerSequence) {
  LineCase<Driver> c;
  // Deliver 0, skip 1, deliver 2 and 3 by injecting at M.
  c.h.receive(c.line.sm, c.h.data(0, c.line.sm, 0, 0));
  c.h.receive(c.line.sm, c.h.data(0, c.line.sm, 2, 0));  // gap: requests 1
  c.h.receive(c.line.sm, c.h.data(0, c.line.sm, 3, 0));  // no new gap
  EXPECT_EQ(c.h.node(c.line.m).nacksSent(), 1u);
}

// --- Rules step by step on a manual wire --------------------------------

/// Diamond A(0) -> {B(1), C(2)} -> D(3), all links bidirectional:
/// edges 0,1 A-B; 2,3 A-C; 4,5 B-D; 6,7 C-D.
graph::Graph diamond() {
  graph::Graph g;
  g.addNodes(4);
  g.addBidirectional(0, 1, util::milliseconds(10));
  g.addBidirectional(0, 2, util::milliseconds(10));
  g.addBidirectional(1, 3, util::milliseconds(10));
  g.addBidirectional(2, 3, util::milliseconds(10));
  return g;
}

/// Both forward paths of the diamond: A->B->D and A->C->D.
constexpr std::uint64_t kTwoPathMask = (1u << 0) | (1u << 2) | (1u << 4) |
                                       (1u << 6);
const TestFlow kDiamondFlow{7, 0, 3, util::milliseconds(65), nullptr,
                            kTwoPathMask};

/// Link A(0) <-> B(1): edges 0 (A->B), 1 (B->A); flow 3 ends at B.
graph::Graph linkPair() {
  graph::Graph g;
  g.addNodes(2);
  g.addBidirectional(0, 1, util::milliseconds(10));
  return g;
}
const TestFlow kLinkFlow{3, 0, 1, util::milliseconds(65), nullptr, 1u << 0};

util::SimTime ms(std::int64_t v) { return util::milliseconds(v); }

RELAY_TEST(OriginateFansOutOnMaskedOutEdges) {
  Harness<Driver> h(diamond(), Wire::Manual);
  h.addFlow(kDiamondFlow);
  originate(h, 0, 7, 0, ms(100));

  ASSERT_EQ(h.sent.size(), 2u);
  EXPECT_EQ(h.sent[0].edge, 0u);
  EXPECT_EQ(h.sent[1].edge, 2u);
  for (const auto& s : h.sent) {
    EXPECT_EQ(s.message.type, Harness<Driver>::Type::Data);
    EXPECT_EQ(h.senderOf(s), 0u);
    EXPECT_EQ(h.edgeOf(s), s.edge);
    EXPECT_EQ(s.message.graphMask, kTwoPathMask);
  }
  EXPECT_EQ(h.flowSent(0, 7), 1u);
  EXPECT_EQ(h.flowTransmissions(0, 7), 2u);
}

RELAY_TEST(NoEchoBackToTheArrivalNeighbor) {
  Harness<Driver> h(diamond(), Wire::Manual);
  // Mask deliberately includes B's echo edge (1: B->A) alongside the
  // forward edge (4: B->D); the no-echo rule must win over the mask.
  TestFlow flow = kDiamondFlow;
  flow.mask = (1u << 0) | (1u << 1) | (1u << 4);
  h.addFlow(flow);
  deliver(h, 0, h.data(7, 0, 0, ms(100)), ms(110));

  ASSERT_EQ(h.sent.size(), 1u);
  EXPECT_EQ(h.sent[0].edge, 4u);
}

RELAY_TEST(DuplicateSecondCopyDropped) {
  Harness<Driver> h(diamond(), Wire::Manual);
  h.addFlow(kDiamondFlow);
  // The same packet arrives over both diamond branches.
  deliver(h, 4, h.data(7, 4, 0, ms(100)), ms(120));
  deliver(h, 6, h.data(7, 6, 0, ms(100)), ms(125));

  EXPECT_EQ(h.node(3).duplicatesDropped(), 1u);
  EXPECT_EQ(h.deliveredOnTime, 1u);
  EXPECT_EQ(h.deliveredLate, 0u);
}

RELAY_TEST(ExpiredPacketIsDroppedNotForwarded) {
  Harness<Driver> h(diamond(), Wire::Manual);
  h.addFlow(kDiamondFlow);
  // Age at forward time equals the deadline: too old to be useful.
  deliver(h, 0, h.data(7, 0, 0, ms(100)), ms(100) + kDiamondFlow.deadline);

  EXPECT_TRUE(h.sent.empty());
  EXPECT_EQ(h.node(1).expiredDropped(), 1u);
}

RELAY_TEST(GapTriggersNackRetransmissionAndRecovery) {
  Harness<Driver> h(linkPair(), Wire::Manual);
  h.addFlow(kLinkFlow);
  originate(h, 0, 3, 0, ms(100));
  deliver(h, 0, h.sentBy(0)[0].message, ms(110));
  originate(h, 0, 3, 1, ms(200));
  originate(h, 0, 3, 2, ms(300));
  const auto fromA = h.sentBy(0);
  ASSERT_EQ(fromA.size(), 3u);
  deliver(h, 0, fromA[2].message, ms(310));  // sequence 1 was "lost"

  // B detected the gap and NACKed exactly sequence 1 on the reverse edge.
  const auto fromB = h.sentBy(1);
  ASSERT_EQ(fromB.size(), 1u);
  EXPECT_EQ(h.node(1).nacksSent(), 1u);
  const auto& nack = fromB[0];
  EXPECT_EQ(nack.message.type, Harness<Driver>::Type::Nack);
  EXPECT_EQ(h.edgeOf(nack), 1u);
  EXPECT_EQ(nack.message.nackSequences,
            (std::vector<net::SequenceNumber>{1}));

  // A retransmits from its per-(edge, flow) buffer...
  deliver(h, 1, nack.message, ms(315));
  const auto fromA2 = h.sentBy(0);
  ASSERT_EQ(fromA2.size(), 4u);
  EXPECT_EQ(h.node(0).retransmissionsSent(), 1u);
  const auto& retransmission = fromA2[3];
  EXPECT_EQ(retransmission.message.type,
            Harness<Driver>::Type::Retransmission);
  EXPECT_EQ(retransmission.message.sequence, 1u);

  // ...and the retransmission is B's first copy: a recovery, delivered.
  deliver(h, 0, retransmission.message, ms(320));
  EXPECT_EQ(h.node(1).nackRecoveries(), 1u);
  EXPECT_EQ(h.deliveredOnTime, 2u);
  EXPECT_EQ(h.deliveredLate, 1u);  // seq 1 recovered past its deadline
}

RELAY_TEST(RetransmissionOfSeenSequenceIsNotARecovery) {
  Harness<Driver> h(linkPair(), Wire::Manual);
  h.addFlow(kLinkFlow);
  const auto data = h.data(3, 0, 0, ms(100));
  deliver(h, 0, data, ms(110));
  auto again = data;
  again.type = Harness<Driver>::Type::Retransmission;
  deliver(h, 0, again, ms(120));

  EXPECT_EQ(h.node(1).nackRecoveries(), 0u);
  EXPECT_EQ(h.node(1).duplicatesDropped(), 1u);
}

RELAY_TEST(RecoveryDisabledSendsNoNacks) {
  core::RelayConfig config;
  config.recoveryEnabled = false;
  Harness<Driver> h(linkPair(), Wire::Manual, config);
  h.addFlow(kLinkFlow);
  originate(h, 0, 3, 0, ms(100));
  deliver(h, 0, h.sentBy(0)[0].message, ms(110));
  originate(h, 0, 3, 1, ms(200));
  originate(h, 0, 3, 2, ms(300));
  deliver(h, 0, h.sentBy(0)[2].message, ms(310));

  EXPECT_TRUE(h.sentBy(1).empty());
  EXPECT_EQ(h.node(1).nacksSent(), 0u);
}

RELAY_TEST(EvictedSequencesCannotBeRetransmitted) {
  core::RelayConfig config;
  config.sendBufferPackets = 4;
  Harness<Driver> h(linkPair(), Wire::Manual, config);
  h.addFlow(kLinkFlow);
  for (net::SequenceNumber seq = 0; seq < 10; ++seq) {
    originate(h, 0, 3, seq, ms(100 * static_cast<std::int64_t>(seq + 1)));
  }
  // Only sequence 9 arrives: B NACKs 0..8, but A's 4-deep buffer only
  // still holds 6, 7, 8 (9 was never requested).
  deliver(h, 0, h.sentBy(0)[9].message, ms(1010));
  const auto fromB = h.sentBy(1);
  ASSERT_EQ(fromB.size(), 1u);
  EXPECT_EQ(fromB[0].message.nackSequences.size(), 9u);

  deliver(h, 1, fromB[0].message, ms(1015));
  EXPECT_EQ(h.node(0).retransmissionsSent(), 3u);
  std::vector<net::SequenceNumber> recovered;
  const auto fromA = h.sentBy(0);
  for (std::size_t i = 10; i < fromA.size(); ++i) {
    recovered.push_back(fromA[i].message.sequence);
  }
  EXPECT_EQ(recovered, (std::vector<net::SequenceNumber>{6, 7, 8}));
}

/// Line A(0) - B(1) - C(2): edges 0 (A->B), 1 (B->A), 2 (B->C),
/// 3 (C->B); flow 5 runs A->B->C.
graph::Graph line3() {
  graph::Graph g;
  g.addNodes(3);
  g.addBidirectional(0, 1, util::milliseconds(10));
  g.addBidirectional(1, 2, util::milliseconds(10));
  return g;
}
const TestFlow kLine3Flow{5, 0, 2, util::milliseconds(65), nullptr,
                          (1u << 0) | (1u << 2)};

/// The first message `node` sent on `edge` of `type` for `seq`.
template <typename H>
auto sentOn(const H& h, graph::NodeId node, graph::EdgeId edge,
            typename H::Type type, net::SequenceNumber seq) {
  for (const auto& s : h.sentBy(node))
    if (s.edge == edge && s.message.type == type &&
        (type == H::Type::Nack || s.message.sequence == seq))
      return s.message;
  ADD_FAILURE() << "node " << node << " sent nothing on edge " << edge
                << " for sequence " << seq;
  return decltype(h.sent[0].message){};
}

RELAY_TEST(RingEvictsRecoveredCopiesByInsertionOrder) {
  core::RelayConfig config;
  config.sendBufferPackets = 4;
  Harness<Driver> h(line3(), Wire::Manual, config);
  using Type = typename Harness<Driver>::Type;
  h.addFlow(kLine3Flow);
  for (net::SequenceNumber seq = 0; seq <= 4; ++seq)
    originate(h, 0, 5, seq, ms(100 + static_cast<std::int64_t>(seq)));
  // B hears 0, 1, 3 and 4, NACKs 2, and A resends it from its ring.
  for (const net::SequenceNumber seq : {0, 1, 3, 4}) {
    deliver(h, 0, sentOn(h, 0, 0, Type::Data, seq),
            ms(110 + static_cast<std::int64_t>(seq)));
  }
  deliver(h, 1, sentOn(h, 1, 1, Type::Nack, 0), ms(115));
  deliver(h, 0, sentOn(h, 0, 0, Type::Retransmission, 2), ms(116));
  // B's ring on B->C now holds 1, 3, 4, 2 in insertion order.
  for (net::SequenceNumber seq = 5; seq <= 7; ++seq) {
    const auto at = ms(112 + static_cast<std::int64_t>(seq));
    originate(h, 0, 5, seq, at);
    deliver(h, 0, sentOn(h, 0, 0, Type::Data, seq), at);
  }
  // Three more sends evicted 1, 3 and 4: the oldest insertions, though 2
  // is the lowest sequence. C hears only 7 and NACKs 0-6.
  deliver(h, 2, sentOn(h, 1, 2, Type::Data, 7), ms(120));
  const auto nack = sentOn(h, 2, 3, Type::Nack, 0);
  EXPECT_EQ(nack.nackSequences,
            (std::vector<net::SequenceNumber>{0, 1, 2, 3, 4, 5, 6}));
  deliver(h, 3, nack, ms(121));

  // Only what the ring still holds comes back: 2, 5 and 6.
  EXPECT_EQ(h.node(1).retransmissionsSent(), 3u);
  std::vector<net::SequenceNumber> resent;
  for (const auto& s : h.sentBy(1))
    if (s.message.type == Type::Retransmission)
      resent.push_back(s.message.sequence);
  EXPECT_EQ(resent, (std::vector<net::SequenceNumber>{2, 5, 6}));
}

RELAY_TEST(LateFillAfterNackDoesNotRenack) {
  Harness<Driver> h(linkPair(), Wire::Manual);
  h.addFlow(kLinkFlow);
  originate(h, 0, 3, 0, ms(100));
  originate(h, 0, 3, 1, ms(200));
  const auto fromA = h.sentBy(0);
  deliver(h, 0, fromA[1].message, ms(210));
  ASSERT_EQ(h.node(1).nacksSent(), 1u);
  // The original copy of 0 straggles in after the NACK: a late fill,
  // not a new gap.
  deliver(h, 0, fromA[0].message, ms(220));
  EXPECT_EQ(h.node(1).nacksSent(), 1u);
  EXPECT_EQ(h.sentBy(1).size(), 1u);
}

RELAY_TEST(NackRequestsNewestMissingSequences) {
  Harness<Driver> h(linkPair(), Wire::Manual);
  h.addFlow(kLinkFlow);
  // One packet per millisecond; B hears 0, then nothing until 400.
  for (net::SequenceNumber seq = 0; seq <= 400; ++seq) {
    originate(h, 0, 3, seq, ms(static_cast<std::int64_t>(seq)));
    if (seq == 0) deliver(h, 0, h.sentBy(0)[0].message, ms(0));
  }
  deliver(h, 0, h.sentBy(0)[400].message, ms(410));

  // The NACK asks for the newest kMaxNackSequences missing sequences,
  // 144..399, not the oldest ones, 1..256: those are long expired, and
  // A's 64-deep buffer no longer holds them.
  const auto fromB = h.sentBy(1);
  ASSERT_EQ(fromB.size(), 1u);
  const auto& nack = fromB[0].message.nackSequences;
  ASSERT_EQ(nack.size(), core::kMaxNackSequences);
  EXPECT_EQ(nack.front(), 144u);
  EXPECT_EQ(nack.back(), 399u);

  // A still holds 337..400 and resends 337..399; the 45 of them younger
  // than the 65 ms deadline at 420 ms arrive on time.
  deliver(h, 1, fromB[0].message, ms(415));
  EXPECT_EQ(h.node(0).retransmissionsSent(), 63u);
  for (const auto& s : h.sentBy(0)) {
    if (s.message.type == Harness<Driver>::Type::Retransmission) {
      deliver(h, 0, s.message, ms(420));
    }
  }
  EXPECT_EQ(h.node(1).nackRecoveries(), 63u);
  EXPECT_EQ(h.deliveredOnTime, 2u + 45u);
}

}  // namespace
}  // namespace dg
