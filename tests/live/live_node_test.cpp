// The daemon driver's own rules: the destination classifies each first
// copy as on time or late in flowStats(), and an edge message read off
// the wire is dropped unless its edge ends at this node. The forwarding
// and recovery rules it shares with the simulator are tested against
// both drivers in tests/core/relay_test.cpp.
#include "live/live_node.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dg {
namespace {

class RecordingSender : public live::LiveNodeSender {
 public:
  struct Sent {
    graph::EdgeId edge;
    live::Message message;
  };

  void sendOnEdge(graph::EdgeId edge, const live::Message& message) override {
    sent.push_back({edge, message});
  }

  std::vector<Sent> sent;
};

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

live::LiveFlow diamondFlow() {
  live::LiveFlow flow;
  flow.id = 7;
  flow.source = 0;
  flow.destination = 3;
  flow.deadline = util::milliseconds(65);
  flow.graphMask = kTwoPathMask;
  return flow;
}

live::Message arrival(const live::LiveFlow& flow, graph::EdgeId edge,
                      net::SequenceNumber sequence, util::SimTime originTime) {
  live::Message m;
  m.type = live::MessageType::Data;
  m.sender = 0;
  m.edge = edge;
  m.flow = flow.id;
  m.sequence = sequence;
  m.originTime = originTime;
  m.deadline = flow.deadline;
  m.graphMask = flow.graphMask;
  m.source = flow.source;
  m.destination = flow.destination;
  return m;
}

TEST(LiveNode, DestinationClassifiesOnTimeAndLate) {
  const graph::Graph g = diamond();
  RecordingSender sender;
  live::LiveNode node(3, g, sender);
  const live::LiveFlow flow = diamondFlow();
  node.handleMessage(arrival(flow, 4, 0, util::milliseconds(100)),
                     util::milliseconds(100) + flow.deadline);  // boundary
  node.handleMessage(arrival(flow, 4, 1, util::milliseconds(100)),
                     util::milliseconds(100) + flow.deadline + 1);

  const auto& stats = node.flowStats().at(7);
  EXPECT_EQ(stats.deliveredOnTime, 1u);
  EXPECT_EQ(stats.deliveredLate, 1u);
  EXPECT_EQ(stats.latencySumUs,
            static_cast<std::uint64_t>(2 * flow.deadline + 1));
}

/// Node 0 linked to nodes 1 and 2: edges 0 (0->1), 1 (1->0), 2 (0->2),
/// 3 (2->0).
graph::Graph twoSpokes() {
  graph::Graph g;
  g.addNodes(3);
  g.addBidirectional(0, 1, util::milliseconds(10));
  g.addBidirectional(0, 2, util::milliseconds(10));
  return g;
}

live::LiveFlow spokeFlow() {
  live::LiveFlow flow;
  flow.id = 4;
  flow.source = 0;
  flow.destination = 1;
  flow.deadline = util::milliseconds(65);
  flow.graphMask = 1u << 0;
  return flow;
}

TEST(LiveNode, DropsEdgeMessagesOnAnEdgeThatEndsElsewhere) {
  const graph::Graph g = twoSpokes();
  RecordingSender sender;
  live::LiveNode node(1, g, sender);
  const live::LiveFlow flow = spokeFlow();
  // Edge 2 runs 0->2. Trusting it, node 1 would see a gap and NACK
  // sequences 1-4 on edge 3 (2->0), an edge it does not own.
  node.handleMessage(arrival(flow, 2, 0, util::milliseconds(100)),
                     util::milliseconds(105));
  node.handleMessage(arrival(flow, 2, 5, util::milliseconds(100)),
                     util::milliseconds(110));
  live::Message nack;
  nack.type = live::MessageType::Nack;
  nack.edge = 2;
  nack.flow = flow.id;
  nack.nackSequences = {0};
  node.handleMessage(nack, util::milliseconds(115));

  EXPECT_TRUE(sender.sent.empty());
  EXPECT_TRUE(node.flowStats().empty());
  EXPECT_EQ(node.foreignEdgeDropped(), 3u);
  EXPECT_EQ(node.nacksSent(), 0u);
}

TEST(LiveNode, DropsEdgeMessagesOnAnEdgePastTheOverlay) {
  const graph::Graph g = twoSpokes();
  RecordingSender sender;
  live::LiveNode node(1, g, sender);
  const live::LiveFlow flow = spokeFlow();
  node.handleMessage(arrival(flow, 4, 0, util::milliseconds(100)),
                     util::milliseconds(105));
  node.handleMessage(arrival(flow, 0xFFFE, 1, util::milliseconds(100)),
                     util::milliseconds(105));
  node.handleMessage(arrival(flow, graph::kInvalidEdge, 2,
                             util::milliseconds(100)),
                     util::milliseconds(105));
  EXPECT_EQ(node.foreignEdgeDropped(), 3u);
  EXPECT_TRUE(node.flowStats().empty());

  // The edge that does end here still delivers.
  node.handleMessage(arrival(flow, 0, 3, util::milliseconds(100)),
                     util::milliseconds(105));
  EXPECT_EQ(node.flowStats().at(flow.id).deliveredOnTime, 1u);
  EXPECT_EQ(node.foreignEdgeDropped(), 3u);
}

}  // namespace
}  // namespace dg
