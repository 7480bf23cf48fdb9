// Cross-layer telemetry integration: counters asserted against the
// engines' own ground truth (FlowStats, node accessors, trace events and
// the synthetic generator's event log), plus the thread-count
// determinism guarantee for exports.
#include <gtest/gtest.h>

#include "core/transport.hpp"
#include "playback/experiment.hpp"
#include "playback/playback.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"

namespace dg {
namespace {

trace::Trace lossyTrace(const trace::Topology& topology,
                        std::size_t intervals, std::size_t problemFirst,
                        std::size_t problemLast, double loss) {
  trace::Trace tr(util::seconds(10), intervals,
                  trace::healthyBaseline(topology.graph(), 1e-4));
  const auto& g = topology.graph();
  const auto nyc = topology.at("NYC");
  for (std::size_t i = problemFirst; i < problemLast; ++i) {
    for (const graph::EdgeId e : g.outEdges(nyc)) {
      tr.setCondition(e, i, trace::LinkConditions{loss, g.edge(e).latency});
      if (const auto r = g.reverseEdge(e))
        tr.setCondition(*r, i,
                        trace::LinkConditions{loss, g.edge(*r).latency});
    }
  }
  return tr;
}

TEST(TelemetryIntegration, SimulateCountersMatchEngineGroundTruth) {
  const auto topology = trace::Topology::ltn12();
  const auto tr = lossyTrace(topology, 60, 0, 60, 0.2);

  telemetry::Telemetry telemetry;
  core::TransportService service(topology, tr);
  service.setTelemetry(&telemetry);
  const auto flow = service.openFlow(
      "NYC", "SJC", routing::SchemeKind::StaticSinglePath);
  service.run(util::seconds(60));

  const auto& stats = service.stats(flow);
  const telemetry::MetricsRegistry& m = telemetry.metrics;
  const telemetry::Labels flowLabels{{"flow", "0"}};
  EXPECT_EQ(m.counterValue("dg_core_sent_total", flowLabels), stats.sent);
  EXPECT_EQ(m.counterValue("dg_core_delivered_on_time_total", flowLabels),
            stats.deliveredOnTime);
  EXPECT_EQ(m.counterValue("dg_core_delivered_late_total", flowLabels),
            stats.deliveredLate);
  const telemetry::HistogramMetric* latency =
      m.findHistogram("dg_core_delivery_latency_ms", flowLabels);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), stats.delivered());

  // Per-node counters agree with the nodes' own accounting.
  std::uint64_t nacks = 0, retransmissions = 0, duplicates = 0;
  for (graph::NodeId n = 0; n < topology.graph().nodeCount(); ++n) {
    const core::RelayState& node = service.node(n).relay();
    const telemetry::Labels nodeLabels{{"node", std::to_string(n)}};
    EXPECT_EQ(m.counterValue("dg_core_nacks_sent_total", nodeLabels),
              node.nacksSent());
    EXPECT_EQ(
        m.counterValue("dg_core_retransmissions_sent_total", nodeLabels),
        node.retransmissionsSent());
    EXPECT_EQ(m.counterValue("dg_core_duplicates_dropped_total", nodeLabels),
              node.duplicatesDropped());
    nacks += node.nacksSent();
    retransmissions += node.retransmissionsSent();
    duplicates += node.duplicatesDropped();
  }
  // 20% loss on every NYC link for a minute: recovery must have fired.
  EXPECT_GT(nacks, 0u);
  EXPECT_GT(retransmissions, 0u);

  // Recovered deliveries: counted, and each one has a trace event.
  const std::uint64_t recovered =
      m.counterValue("dg_core_recovered_deliveries_total", flowLabels);
  EXPECT_GT(recovered, 0u);
  EXPECT_LE(recovered, retransmissions);
  EXPECT_EQ(telemetry.trace
                .eventsOfKind(telemetry::TraceEventKind::RecoveredDelivery)
                .size(),
            recovered);

  // Per-link drop counters sum to the drops the trace events recorded
  // for data packets, and something was dropped under 20% loss.
  std::uint64_t linkDrops = 0;
  for (graph::EdgeId e = 0; e < topology.graph().edgeCount(); ++e) {
    linkDrops += m.counterValue("dg_net_link_drops_total",
                                {{"edge", std::to_string(e)}});
  }
  EXPECT_GT(linkDrops, 0u);

  // Sim-time stamps only: every event within the simulated horizon.
  for (const telemetry::TraceEvent& event : telemetry.trace.events()) {
    EXPECT_GE(event.time, 0);
    EXPECT_LE(event.time, util::seconds(60));
  }
}

TEST(TelemetryIntegration, PlaybackCountersMatchRunAndTraceEvents) {
  const auto topology = trace::Topology::ltn12();
  const auto tr = lossyTrace(topology, 60, 5, 40, 0.6);
  playback::PlaybackParams params;
  params.mcSamples = 200;
  const playback::PlaybackEngine engine(topology.graph(), tr, params);
  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};

  telemetry::Telemetry telemetry;
  const auto result =
      engine.run(flow, routing::SchemeKind::TargetedRedundancy,
                 routing::SchemeParams{}, &telemetry);

  const telemetry::MetricsRegistry& m = telemetry.metrics;
  const std::string flowLabel = std::to_string(flow.source) + "->" +
                                std::to_string(flow.destination);
  const telemetry::Labels labels{{"flow", flowLabel},
                                 {"scheme", "targeted"}};
  EXPECT_EQ(m.counterValue("dg_playback_intervals_total", labels),
            tr.intervalCount());
  const std::uint64_t mcIntervals =
      m.counterValue("dg_playback_mc_intervals_total", labels);
  EXPECT_GT(mcIntervals, 0u);
  EXPECT_EQ(m.counterValue("dg_playback_mc_samples_total", labels),
            mcIntervals * 200u);

  // The injected source problem must be classified, and the targeted
  // scheme must have switched graphs; switches and classifications both
  // count and leave trace events.
  std::uint64_t classifications = 0;
  for (const auto& [key, counter] : m.counters()) {
    if (key.name == "dg_routing_classifications_total")
      classifications += counter->value();
  }
  EXPECT_GT(classifications, 0u);
  const std::uint64_t switches =
      m.counterValue("dg_routing_graph_switches_total", labels);
  EXPECT_GT(switches, 0u);
  EXPECT_EQ(telemetry.trace
                .eventsOfKind(telemetry::TraceEventKind::GraphSwitch)
                .size(),
            switches);
  // Problematic intervals exist and the run saw them.
  EXPECT_GT(result.problematicIntervals, 0u);

  // Interval timestamps are exact sim-time multiples of the interval.
  for (const telemetry::TraceEvent& event :
       telemetry.trace.eventsOfKind(telemetry::TraceEventKind::GraphSwitch)) {
    EXPECT_EQ(event.time % tr.intervalLength(), 0);
    EXPECT_LT(event.time, tr.duration());
  }
}

TEST(TelemetryIntegration, PlaybackQuietOnSyntheticTraceWithoutEvents) {
  // Ground truth from the generator: when the synthetic event log is
  // empty, a dynamic scheme must never switch graphs and no interval
  // needs Monte-Carlo.
  const auto topology = trace::Topology::ltn12();
  trace::GeneratorParams params;
  params.duration = util::minutes(30);
  params.nodeEventsPerDay = 0.0;
  params.linkEventsPerDay = 0.0;
  params.blipsPerLinkPerDay = 0.0;
  const auto synthetic = generateSyntheticTrace(topology.graph(), params);
  ASSERT_TRUE(synthetic.events.empty());

  const playback::PlaybackEngine engine(topology.graph(), synthetic.trace,
                                        {});
  telemetry::Telemetry telemetry;
  engine.run(routing::Flow{topology.at("NYC"), topology.at("SJC")},
             routing::SchemeKind::TargetedRedundancy,
             routing::SchemeParams{}, &telemetry);
  const telemetry::MetricsRegistry& m = telemetry.metrics;
  std::uint64_t switches = 0;
  for (const auto& [key, counter] : m.counters()) {
    if (key.name == "dg_routing_graph_switches_total")
      switches += counter->value();
  }
  EXPECT_EQ(switches, 0u);
  EXPECT_TRUE(
      telemetry.trace.eventsOfKind(telemetry::TraceEventKind::GraphSwitch)
          .empty());
}

TEST(TelemetryIntegration, ExperimentExportsAreIdenticalAcrossThreadCounts) {
  const auto topology = trace::Topology::ltn12();
  trace::GeneratorParams genParams;
  genParams.duration = util::hours(1);
  genParams.seed = 11;
  const auto synthetic = generateSyntheticTrace(topology.graph(), genParams);

  playback::ExperimentConfig config;
  config.flows = {routing::Flow{topology.at("NYC"), topology.at("SJC")},
                  routing::Flow{topology.at("WAS"), topology.at("SEA")}};
  config.schemes = {routing::SchemeKind::DynamicSinglePath,
                    routing::SchemeKind::TargetedRedundancy};
  config.playback.mcSamples = 100;

  std::string jsonByThreads[3];
  std::string traceByThreads[3];
  const unsigned threadCounts[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    config.threads = threadCounts[i];
    telemetry::Telemetry telemetry;
    playback::runExperiment(topology.graph(), synthetic.trace, config,
                            &telemetry);
    jsonByThreads[i] = telemetry::toJson(telemetry.metrics);
    traceByThreads[i] = telemetry::toJson(telemetry.trace);
    EXPECT_FALSE(telemetry.metrics.empty());
  }
  EXPECT_EQ(jsonByThreads[0], jsonByThreads[1]);
  EXPECT_EQ(jsonByThreads[0], jsonByThreads[2]);
  EXPECT_EQ(traceByThreads[0], traceByThreads[1]);
  EXPECT_EQ(traceByThreads[0], traceByThreads[2]);
}

}  // namespace
}  // namespace dg
