// The simulator driver's own rules: packets of flows the directory does
// not know are dropped, and a crashed node restarts with fresh soft
// state. The forwarding and recovery rules it shares with the daemon are
// tested against both drivers in relay_test.cpp.
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

TEST(OverlayNode, RestartNacksNothingMissedWhileDown) {
  // S sends every 10 ms along S-M-D, and M is down from 15 s to 30 s.
  LineHarness h;
  const FlowContext& flow = *h.directory.flowContext(0);
  for (net::SequenceNumber seq = 0; seq < 4500; ++seq) {
    h.sim.scheduleAt(static_cast<util::SimTime>(seq) * util::milliseconds(10),
                     [&h, &flow, seq] {
                       h.nodes[h.line.s]->originate(flow, seq, h.sim.now());
                     });
  }
  h.sim.scheduleAt(util::seconds(15),
                   [&h] { h.nodes[h.line.m]->setCrashed(true); });
  h.sim.scheduleAt(util::seconds(30),
                   [&h] { h.nodes[h.line.m]->setCrashed(false); });
  h.sim.runUntil(util::seconds(50));

  // The first packet after the restart only sets M's cursor. A cursor
  // restarting at 0 NACKed the 256 newest sequences M had missed, and S
  // resent its whole ring, every copy already past its deadline: 61
  // resends, 58 of them dropped at M as expired, none on time.
  const RelayState& m = h.nodes[h.line.m]->relay();
  EXPECT_EQ(m.nacksSent(), 0u);
  EXPECT_EQ(m.expiredDropped(), 0u);
  EXPECT_EQ(h.nodes[h.line.s]->relay().retransmissionsSent(), 0u);
  // Every packet sent after the restart still arrives.
  std::size_t afterRestart = 0;
  for (const auto& [id, seq] : h.directory.deliveries)
    if (seq >= 3000) ++afterRestart;
  EXPECT_EQ(afterRestart, 1500u);
}

}  // namespace
}  // namespace dg::core
