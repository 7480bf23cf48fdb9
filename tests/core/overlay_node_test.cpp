// The simulator driver's own rule: packets of flows the directory does
// not know are dropped. The forwarding and recovery rules it shares with
// the daemon are tested against both drivers in relay_test.cpp.
#include "core/overlay_node.hpp"

#include <gtest/gtest.h>

#include <map>

#include "test_support.hpp"

namespace dg::core {
namespace {

/// Minimal directory for driving nodes directly in tests.
class TestDirectory final : public FlowDirectory {
 public:
  const FlowContext* flowContext(net::FlowId id) const override {
    const auto it = contexts_.find(id);
    return it == contexts_.end() ? nullptr : &it->second;
  }
  void onDelivered(net::FlowId id, const net::Packet& packet) override {
    deliveries.push_back({id, packet.sequence});
  }
  FlowContext& add(net::FlowId id, routing::Flow flow,
                   const graph::DisseminationGraph* dg,
                   util::SimTime deadline = util::milliseconds(65)) {
    FlowContext& context = contexts_[id];
    context.id = id;
    context.flow = flow;
    context.deadline = deadline;
    context.activeGraph = dg;
    return context;
  }

  std::vector<std::pair<net::FlowId, net::SequenceNumber>> deliveries;

 private:
  std::map<net::FlowId, FlowContext> contexts_;
};

/// A line overlay with per-node OverlayNode instances wired to the
/// network.
struct LineHarness {
  test::Line line;
  trace::Trace trace;
  net::Simulator sim;
  net::SimulatedNetwork network;
  TestDirectory directory;
  std::vector<std::unique_ptr<OverlayNode>> nodes;
  graph::DisseminationGraph dg;

  LineHarness()
      : trace(test::healthyTrace(line.g, 1000, util::seconds(10))),
        network(sim, line.g, trace, 99),
        dg(line.g, line.s, line.d) {
    dg.addPath({line.sm, line.md});
    directory.add(0, routing::Flow{line.s, line.d}, &dg);
    for (graph::NodeId n = 0; n < line.g.nodeCount(); ++n) {
      nodes.push_back(
          std::make_unique<OverlayNode>(n, network, directory, RelayConfig{}));
      network.setDeliveryHandler(
          n, [this, n](graph::EdgeId e, const net::Packet& p) {
            nodes[n]->handlePacket(e, p);
          });
    }
  }
};

TEST(OverlayNode, DropsUnknownFlow) {
  LineHarness h;
  net::Packet packet;
  packet.type = net::Packet::Type::Data;
  packet.flow = 42;
  h.network.transmit(h.line.sm, packet);
  h.sim.runUntil(util::seconds(1));
  EXPECT_TRUE(h.directory.deliveries.empty());
  EXPECT_EQ(h.network.transmissionCount(), 1u);  // not forwarded
}

}  // namespace
}  // namespace dg::core
