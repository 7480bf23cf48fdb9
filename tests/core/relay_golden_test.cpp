// Golden regression for the forwarding and recovery rules, through both
// of their drivers:
//   (a) TransportService (simulator OverlayNodes) on ltn12 under one
//       seeded chaos schedule with a node crash and link blackouts, in
//       centralized and distributed mode, recovery on and off: per-node
//       duplicate / expired / NACK / retransmission / crash-drop counts,
//       per-flow FlowStats, and digests of the Prometheus and trace-event
//       JSON exports;
//   (b) four live::LiveNodes over an in-memory sender on a virtual clock
//       with a seeded drop pattern and one long blackout: per-node
//       counters and flowStats().
// Everything is compared EXACTLY against a committed fixture.
//
// To regenerate after an intentional behavior change:
//   DG_UPDATE_RELAY_GOLDEN=1 ./test_core --gtest_filter='RelayGolden.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "chaos/injector.hpp"
#include "chaos/schedule.hpp"
#include "core/transport.hpp"
#include "live/live_node.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/topology.hpp"
#include "util/rng.hpp"

namespace dg {
namespace {

std::string fixturePath() {
  return std::string(DG_CORE_FIXTURE_DIR) + "/relay_golden.txt";
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// FNV-1a 64 of a byte string, as hex.
std::string fnv(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string digest(const std::string& bytes) {
  return "bytes=" + std::to_string(bytes.size()) + " fnv=" + fnv(bytes);
}

/// The seeded schedule, plus one crash of a transit site and one
/// 10-second blackout of a link on the NYC side, so both the restart
/// path and gaps longer than a NACK can carry are always exercised.
chaos::ChaosSchedule schedule(const trace::Topology& topology) {
  chaos::ChaosScheduleParams params;
  params.seed = 20;
  params.horizon = util::seconds(60);
  params.faults = 4;
  chaos::ChaosSchedule s = chaos::ChaosSchedule::random(topology, params);
  chaos::ChaosFault crash;
  crash.kind = chaos::ChaosFault::Kind::NodeCrash;
  crash.node = topology.at("CHI");
  crash.start = util::seconds(20);
  crash.duration = util::seconds(10);
  crash.lossRate = 1.0;
  s.add(crash);
  chaos::ChaosFault blackout;
  blackout.kind = chaos::ChaosFault::Kind::LinkLoss;
  blackout.link = *topology.graph().findEdge(topology.at("NYC"),
                                             topology.at("WAS"));
  blackout.start = util::seconds(40);
  blackout.duration = util::seconds(10);
  blackout.lossRate = 1.0;
  s.add(blackout);
  return s;
}

std::string renderService(const trace::Topology& topology,
                          const chaos::ChaosSchedule& faults,
                          core::MonitorMode mode, bool recovery) {
  const trace::Trace trace(faults.intervalLength(), faults.intervalCount(),
                           trace::healthyBaseline(topology.graph(), 0.002));
  core::TransportConfig config;
  config.monitorMode = mode;
  config.decisionInterval = faults.intervalLength();
  config.node.recoveryEnabled = recovery;
  config.seed = 7;
  core::TransportService service(topology, trace, config);
  telemetry::Telemetry telemetry;
  service.setTelemetry(&telemetry);
  chaos::ChaosInjector injector(service, faults);
  injector.setTelemetry(&telemetry);
  injector.arm();
  service.openFlow("NYC", "SJC", routing::SchemeKind::TargetedRedundancy);
  service.openFlow("WAS", "LAX", routing::SchemeKind::DynamicTwoDisjoint);
  service.openFlow("SEA", "ATL", routing::SchemeKind::TimeConstrainedFlooding);
  service.run(faults.horizon() + util::seconds(1));

  std::ostringstream out;
  out << "service mode="
      << (mode == core::MonitorMode::Distributed ? "distributed"
                                                 : "centralized")
      << " recovery=" << recovery << "\n";
  for (graph::NodeId n = 0; n < topology.graph().nodeCount(); ++n) {
    const core::RelayState& relay = service.node(n).relay();
    out << "  node " << topology.name(n) << " dup "
        << relay.duplicatesDropped() << " expired " << relay.expiredDropped()
        << " nacks " << relay.nacksSent() << " retx "
        << relay.retransmissionsSent() << " crash-dropped "
        << service.node(n).crashDropped() << "\n";
  }
  for (net::FlowId f = 0; f < service.flowCount(); ++f) {
    const core::FlowStats& s = service.stats(f);
    out << "  flow " << f << " sent " << s.sent << " on-time "
        << s.deliveredOnTime << " late " << s.deliveredLate << " tx "
        << s.transmissions << " latency n=" << s.latencyUs.count()
        << " mean=" << g17(s.latencyUs.mean())
        << " min=" << g17(s.latencyUs.min())
        << " max=" << g17(s.latencyUs.max()) << "\n";
  }
  out << "  prometheus " << digest(telemetry::toPrometheus(telemetry.metrics))
      << "\n  trace events=" << telemetry.trace.size() << " "
      << digest(telemetry::toJson(telemetry.trace)) << "\n";
  return out.str();
}

/// Four LiveNodes on a virtual clock. Datagrams take their edge's
/// latency plus a seeded jitter; a seeded 3% of them are dropped, and
/// every datagram on edge 0 (A->B) is dropped for 400 ms mid-run.
class VirtualWire {
 public:
  /// Diamond A(0) -> {B(1), C(2)} -> D(3), all links bidirectional:
  /// edges 0,1 A-B; 2,3 A-C; 4,5 B-D; 6,7 C-D.
  VirtualWire() {
    graph_.addNodes(4);
    graph_.addBidirectional(0, 1, util::milliseconds(10));
    graph_.addBidirectional(0, 2, util::milliseconds(12));
    graph_.addBidirectional(1, 3, util::milliseconds(11));
    graph_.addBidirectional(2, 3, util::milliseconds(9));
    ports_.reserve(4);
    for (graph::NodeId n = 0; n < 4; ++n) {
      ports_.emplace_back(*this);
      nodes_.push_back(std::make_unique<live::LiveNode>(n, graph_, ports_[n]));
    }
  }

  std::string run() {
    live::LiveFlow forward;
    forward.id = 1;
    forward.source = 0;
    forward.destination = 3;
    forward.deadline = util::milliseconds(65);
    forward.graphMask = (1u << 0) | (1u << 2) | (1u << 4) | (1u << 6);
    live::LiveFlow backward;
    backward.id = 2;
    backward.source = 3;
    backward.destination = 0;
    backward.deadline = util::milliseconds(45);
    backward.graphMask = (1u << 5) | (1u << 1);
    for (net::SequenceNumber seq = 0; seq < 2000; ++seq) {
      const util::SimTime at = static_cast<util::SimTime>(seq) * 1000;
      advanceTo(at);
      nodes_[0]->originate(forward, seq, at);
      if (seq % 2 == 0) nodes_[3]->originate(backward, seq / 2, at);
    }
    advanceTo(util::seconds(3));

    std::ostringstream out;
    out << "live sent " << sent_ << " dropped " << dropped_ << "\n";
    for (const auto& node : nodes_) {
      out << "  node " << node->id() << " dup " << node->duplicatesDropped()
          << " expired " << node->expiredDropped() << " nacks "
          << node->nacksSent() << " retx " << node->retransmissionsSent()
          << " recoveries " << node->nackRecoveries() << "\n";
      for (const auto& [flow, s] : node->flowStats()) {
        out << "    flow " << flow << " sent " << s.sent << " on-time "
            << s.deliveredOnTime << " late " << s.deliveredLate << " tx "
            << s.transmissions << " latency-sum-us " << s.latencySumUs
            << "\n";
      }
    }
    return out.str();
  }

 private:
  struct Port final : live::LiveNodeSender {
    explicit Port(VirtualWire& wire) : wire(&wire) {}
    void sendOnEdge(graph::EdgeId edge,
                    const live::Message& message) override {
      wire->send(edge, message);
    }
    VirtualWire* wire;
  };

  void send(graph::EdgeId edge, const live::Message& message) {
    ++sent_;
    const bool blackout = edge == 0 && now_ >= util::milliseconds(700) &&
                          now_ < util::milliseconds(1100);
    if (rng_.uniform() < 0.03 || blackout) {
      ++dropped_;
      return;
    }
    const util::SimTime arrival =
        now_ + graph_.edge(edge).latency +
        static_cast<util::SimTime>(rng_.uniformInt(2000));
    queue_.emplace(std::make_tuple(arrival, order_++), message);
  }

  void advanceTo(util::SimTime until) {
    while (!queue_.empty() && std::get<0>(queue_.begin()->first) <= until) {
      const auto it = queue_.begin();
      now_ = std::get<0>(it->first);
      const live::Message message = it->second;
      queue_.erase(it);
      nodes_[graph_.edge(message.edge).to]->handleMessage(message, now_);
    }
    now_ = until;
  }

  graph::Graph graph_;
  std::vector<Port> ports_;
  std::vector<std::unique_ptr<live::LiveNode>> nodes_;
  std::map<std::tuple<util::SimTime, std::uint64_t>, live::Message> queue_;
  util::Rng rng_{20260};
  util::SimTime now_ = 0;
  std::uint64_t order_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t dropped_ = 0;
};

TEST(RelayGolden, DriversMatchCommittedFixture) {
  const trace::Topology topology = trace::Topology::ltn12();
  const chaos::ChaosSchedule faults = schedule(topology);
  std::ostringstream out;
  out << "relay-golden v1\n" << faults.toString();
  for (const core::MonitorMode mode :
       {core::MonitorMode::Centralized, core::MonitorMode::Distributed}) {
    for (const bool recovery : {true, false}) {
      out << renderService(topology, faults, mode, recovery);
    }
  }
  out << VirtualWire().run();

  const std::string rendered = out.str();
  if (std::getenv("DG_UPDATE_RELAY_GOLDEN") != nullptr) {
    std::ofstream file(fixturePath(), std::ios::binary);
    ASSERT_TRUE(file.good()) << "cannot write " << fixturePath();
    file << rendered;
    GTEST_SKIP() << "fixture regenerated at " << fixturePath();
  }
  std::ifstream in(fixturePath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing fixture " << fixturePath()
                         << " (run with DG_UPDATE_RELAY_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(rendered, expected.str())
      << "relay output drifted from the committed golden fixture; if the "
         "change is intentional, regenerate with DG_UPDATE_RELAY_GOLDEN=1";
}

}  // namespace
}  // namespace dg
