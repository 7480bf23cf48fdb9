// The daemon driver's own rule: the destination classifies each first
// copy as on time or late in flowStats(). The forwarding and recovery
// rules it shares with the simulator are tested against both drivers in
// tests/core/relay_test.cpp.
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

}  // namespace
}  // namespace dg
