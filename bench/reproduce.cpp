// bench_reproduce: every experiment report of EXPERIMENTS.md, from one
// binary and one fixed configuration.
//
//   bench_reproduce [E1 E2 E3 E4 E5 E6 E7 E9 E10 E11 ablations]
//                   [--out-dir=DIR]
//
// With no ids it runs every experiment. Without --out-dir the reports go
// to stdout; with it each report is written to DIR/<file>, under the
// names results/ holds, so `bench_reproduce --out-dir=D && diff -r D
// results` checks every committed claim. Any other argument exits 2.
// E3, E4, E5 and E7 read one shared sweep, run once per invocation.
// (E8, the microbenchmarks, is bench_micro_algorithms.)
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/transport.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/shortest_path.hpp"
#include "playback/ablation.hpp"
#include "playback/classification.hpp"
#include "playback/experiment.hpp"
#include "playback/graph_optimizer.hpp"
#include "playback/playback.hpp"
#include "playback/report.hpp"
#include "routing/targeted_graphs.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace {

using namespace dg;

// The canonical run: master seed, 28 synthetic days, 1000 Monte-Carlo
// samples per lossy interval, one interval of monitoring staleness, a
// 65 ms one-way deadline (130 ms RTT), per-hop recovery on.
constexpr std::uint64_t kSeed = 20170605;
constexpr std::int64_t kDays = 28;
constexpr int kMcSamples = 1000;
constexpr int kStaleness = 1;
constexpr std::int64_t kDeadlineMs = 65;
// Latency distributions stabilize quickly, so E11 runs a shorter trace.
constexpr std::int64_t kLatencyDays = 7;
// The ablation suite reruns the whole sweep once per ablation.
constexpr std::int64_t kAblationDays = 4;
constexpr int kAblationMcSamples = 300;

trace::GeneratorParams generatorParams(std::int64_t days) {
  trace::GeneratorParams params;
  params.seed = kSeed;
  params.duration = util::days(days);
  return params;
}

playback::ExperimentConfig experimentConfig(const trace::Topology& topology,
                                            int mcSamples) {
  playback::ExperimentConfig config;
  config.flows = playback::transcontinentalFlows(topology);
  config.playback.mcSamples = mcSamples;
  config.playback.viewStaleness = kStaleness;
  config.playback.delivery.recoveryEnabled = true;
  config.schemeParams.deadline = util::milliseconds(kDeadlineMs);
  config.playback.delivery.deadline = config.schemeParams.deadline;
  return config;
}

/// One transcontinental flows x schemes sweep over a synthetic trace.
struct Sweep {
  trace::SyntheticTrace synthetic;
  playback::ExperimentConfig config;
  playback::ExperimentResult result;
};

Sweep sweepFlows(const trace::Topology& topology, std::int64_t days,
                 bool collectLatencies) {
  Sweep sweep{
      generateSyntheticTrace(topology.graph(), generatorParams(days)),
      experimentConfig(topology, kMcSamples), {}};
  sweep.config.playback.collectIntervalLatencies = collectLatencies;
  sweep.result = runExperiment(topology.graph(), sweep.synthetic.trace,
                               sweep.config);
  return sweep;
}

struct Context {
  trace::Topology topology = trace::Topology::ltn12();
  std::optional<Sweep> canonical;

  /// The canonical sweep E3, E4, E5 and E7 report on.
  const Sweep& sweep() {
    if (!canonical) canonical = sweepFlows(topology, kDays, false);
    return *canonical;
  }
};

/// The title and run-configuration lines a sweep report opens with.
std::string runHeader(const std::string& title, const Sweep& sweep) {
  std::ostringstream out;
  out << "=== " << title << " ===\n";
  out << "trace: "
      << util::toSeconds(sweep.synthetic.trace.duration()) / 86'400.0
      << " days, " << sweep.synthetic.trace.intervalCount()
      << " intervals, " << sweep.synthetic.events.size() << " events; "
      << sweep.config.flows.size() << " flows, "
      << sweep.config.schemes.size() << " schemes\n\n";
  return out.str();
}

std::string flowName(const trace::Topology& topology,
                     const routing::Flow& flow) {
  return topology.name(flow.source) + "->" + topology.name(flow.destination);
}

// E1 (paper Fig. 1, reconstructed): example dissemination graphs for one
// transcontinental flow -- single path, two disjoint paths, targeted
// source/destination/robust graphs and time-constrained flooding -- as
// edge lists. (`dgnet graph dump --format=dot` writes Graphviz.)
std::string e1Graphs(Context& context) {
  const auto& topology = context.topology;
  const auto& g = topology.graph();
  const auto weights = g.baseLatencies();
  const util::SimTime deadline = util::milliseconds(kDeadlineMs);
  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};

  std::ostringstream out;
  const auto show = [&](const std::string& title,
                        const graph::DisseminationGraph& dg) {
    out << "--- " << title << " (" << dg.edgeCount() << " edges, cost "
        << dg.cost() << ", latency "
        << util::formatDuration(dg.latencyToDestination(weights)) << ")\n";
    for (const graph::EdgeId e : dg.edges()) {
      out << "  " << topology.edgeName(e) << " ("
          << util::formatDuration(g.edge(e).latency) << ")\n";
    }
    out << '\n';
  };

  out << "=== E1 / Fig. 1: dissemination graphs for "
      << flowName(topology, flow) << ", deadline "
      << util::formatDuration(deadline) << " ===\n\n";

  const auto single = graph::nodeDisjointPaths(g, flow.source,
                                               flow.destination, weights, 1);
  graph::DisseminationGraph singleGraph(g, flow.source, flow.destination);
  if (!single.paths.empty()) singleGraph.addPath(single.paths.front());
  show("single path", singleGraph);

  const auto targeted =
      routing::buildTargetedGraphs(g, flow, weights, deadline);
  show("two node-disjoint paths", targeted.twoDisjoint);
  show("source-problem graph", targeted.sourceProblem);
  show("destination-problem graph", targeted.destinationProblem);
  show("robust source-destination graph", targeted.robust);

  auto flooding = graph::floodingGraph(g, flow.source, flow.destination);
  flooding.pruneDeadlineInfeasible(weights, deadline);
  show("time-constrained flooding", flooding);
  return out.str();
}

// E2 (paper Table I, reconstructed): the overlay topology and evaluation
// workload -- sites, links, latencies, per-flow shortest / disjoint-path
// structure against the 65 ms one-way budget.
std::string e2Topology(Context& context) {
  const auto& topology = context.topology;
  const auto& g = topology.graph();
  const auto weights = g.baseLatencies();
  const util::SimTime deadline = util::milliseconds(kDeadlineMs);

  std::ostringstream out;
  out << "=== E2 / Table I: overlay topology and workload ===\n\n";
  out << "sites: " << topology.siteCount()
      << ", directed overlay links: " << g.edgeCount()
      << ", one-way deadline: " << util::formatDuration(deadline)
      << " (130ms RTT)\n\n";

  out << util::padRight("site", 6) << util::padLeft("degree", 8)
      << util::padLeft("lat", 9) << util::padLeft("lon", 10) << '\n';
  for (graph::NodeId n = 0; n < g.nodeCount(); ++n) {
    const auto& site = topology.site(n);
    out << util::padRight(site.name, 6)
        << util::padLeft(std::to_string(g.outDegree(n)), 8)
        << util::padLeft(util::formatFixed(site.latitudeDeg, 2), 9)
        << util::padLeft(util::formatFixed(site.longitudeDeg, 2), 10)
        << '\n';
  }

  out << "\nlinks (undirected, geo-derived fiber latency):\n";
  for (graph::EdgeId e = 0; e < g.edgeCount(); e += 2) {
    out << "  " << util::padRight(topology.edgeName(e), 10)
        << util::padLeft(util::formatDuration(g.edge(e).latency), 10)
        << '\n';
  }

  out << "\nevaluation flows (transcontinental):\n";
  out << util::padRight("flow", 12) << util::padLeft("shortest", 10)
      << util::padLeft("2-disjoint", 12) << util::padLeft("connectivity", 14)
      << util::padLeft("slack_vs_65ms", 15) << '\n';
  for (const auto& flow : playback::transcontinentalFlows(topology)) {
    const auto best =
        graph::shortestPath(g, flow.source, flow.destination, weights);
    const auto pair = graph::nodeDisjointPaths(g, flow.source,
                                               flow.destination, weights, 2);
    const int connectivity = graph::maxNodeDisjointPaths(
        g, flow.source, flow.destination, weights);
    const util::SimTime second =
        pair.paths.size() == 2 ? pair.totalLatency - best.distance : 0;
    out << util::padRight(flowName(topology, flow), 12)
        << util::padLeft(util::formatDuration(best.distance), 10)
        << util::padLeft(util::formatDuration(second), 12)
        << util::padLeft(std::to_string(connectivity), 14)
        << util::padLeft(util::formatDuration(deadline - best.distance), 15)
        << '\n';
  }
  return out.str();
}

// E3 (the paper's headline table): per-scheme unavailability, coverage of
// the single-path -> optimal gap and cost, then per-flow unavailability.
// Abstract targets: targeted redundancy covers > 99% of the gap, dynamic
// two-disjoint ~ 70%, static two-disjoint ~ 45%, at a cost ~ 2% above two
// disjoint paths, while flooding costs several times as much.
std::string e3Table(Context& context) {
  const Sweep& sweep = context.sweep();
  return runHeader(
             "E3 / Table II: gap coverage of routing schemes (reconstructed)",
             sweep) +
         renderSummaryTable(sweep.result, sweep.synthetic.trace.duration(),
                            sweep.config.flows.size()) +
         "\nPer-flow unavailability:\n" +
         renderPerFlowTable(sweep.result, sweep.config, context.topology) +
         "\n";
}

// E4 (reconstructed figure): where are the problems that defeat two
// disjoint paths? Joins each scheme's problematic intervals against the
// generator's ground-truth event log and buckets them by location
// relative to each flow. The paper's central empirical finding is that
// these are dominated by problems around a source or destination -- the
// motivation for targeted redundancy.
std::string e4Classification(Context& context) {
  const Sweep& sweep = context.sweep();
  const auto& schemes = sweep.config.schemes;
  std::ostringstream out;
  out << runHeader("E4: classification of problematic intervals by location",
                   sweep);
  // The single-path baseline, the static two-disjoint scheme the paper
  // analyzes, and targeted redundancy.
  for (const auto kind : {routing::SchemeKind::StaticSinglePath,
                          routing::SchemeKind::StaticTwoDisjoint,
                          routing::SchemeKind::TargetedRedundancy}) {
    const auto s = static_cast<std::size_t>(
        std::find(schemes.begin(), schemes.end(), kind) - schemes.begin());
    std::vector<playback::ProblemClassification> parts;
    for (std::size_t f = 0; f < sweep.config.flows.size(); ++f) {
      parts.push_back(playback::classifyProblems(
          context.topology.graph(), sweep.synthetic.events,
          sweep.config.flows[f], sweep.result.at(f, s, schemes.size()).problems));
    }
    out << "problematic intervals of " << routing::schemeName(kind) << ":\n"
        << renderClassification(playback::combineClassifications(parts))
        << '\n';
  }
  return out.str();
}

// E5 (reconstructed figure): the CDF of per-flow unavailability for every
// scheme, as plottable text, one line per flow quantile.
std::string e5Cdf(Context& context) {
  const Sweep& sweep = context.sweep();
  return runHeader("E5: CDF of per-flow unavailability", sweep) +
         renderUnavailabilityCdf(sweep.result, sweep.config);
}

// E6 (reconstructed case-study figure): delivery through a scripted
// source-site problem, two ways --
//   (a) playback timeline: per-10s-interval miss probability for each
//       scheme through a fluttering source degradation followed by a
//       partial outage;
//   (b) the same scenario driven end-to-end through the packet-level
//       event simulator (TransportService), with centralized monitoring
//       and with the Spines-like distributed mode (per-node measurement,
//       flooded link-state updates, source-stamped graphs).
// The shape to look for: single path collapses for the duration; two
// disjoint paths degrade whenever both first hops are hit; targeted
// redundancy tracks flooding after one detection interval.
std::string e6CaseStudy(Context& context) {
  const auto& topology = context.topology;
  const auto& g = topology.graph();
  const graph::NodeId src = topology.at("NYC");
  const routing::Flow flow{src, topology.at("SJC")};

  // 20 minutes of trace: healthy, then a fluttering degradation
  // (intervals 20-59), then healthy, then an all-but-one-link partial
  // outage (intervals 75-104).
  const std::size_t intervals = 120;
  trace::Trace tr(util::seconds(10), intervals,
                  trace::healthyBaseline(g, 1e-4));
  util::Rng rng(7);
  const auto degradation = trace::makeNodeEvent(
      g, src, 20, 40, /*coverage=*/1.0, /*activity=*/0.5,
      /*severity=*/0.9, 0, rng);
  trace::applyEvent(tr, g, degradation, rng, 0.5);
  const auto outage =
      trace::makeNodeOutageEvent(g, src, 75, 30, /*aliveLinks=*/1,
                                 /*severity=*/1.0, 0, rng);
  trace::applyEvent(tr, g, outage, rng, 0.5);

  // ---- (a) playback timelines ----------------------------------------
  playback::PlaybackParams params;
  params.mcSamples = 3000;
  const playback::PlaybackEngine engine(g, tr, params);
  const routing::SchemeParams schemeParams;

  std::ostringstream out;
  out << "=== E6: case study, NYC site problems, flow NYC->SJC ===\n";
  out << "fluttering degradation: intervals 20-59 (activity 0.5, "
         "loss 0.9); partial outage: intervals 75-104 (one link "
         "alive)\n\n";
  out << "per-interval miss probability (%):\n";
  out << util::padRight("t(s)", 7);
  std::vector<std::vector<double>> timelines;
  for (const auto kind : routing::allSchemeKinds()) {
    out << util::padLeft(std::string(routing::schemeName(kind)), 22);
    timelines.push_back(
        engine.missTimeline(flow, kind, schemeParams, 0, intervals));
  }
  out << '\n';
  for (std::size_t t = 10; t < intervals; ++t) {
    // Print the interesting window only.
    if (t > 64 && t < 70) continue;
    if (t > 108) break;
    out << util::padRight(std::to_string(t * 10), 7);
    for (const auto& timeline : timelines) {
      out << util::padLeft(util::formatFixed(timeline[t] * 100.0, 1), 22);
    }
    out << '\n';
  }

  // ---- (b) event-driven runs ------------------------------------------
  for (const auto mode :
       {core::MonitorMode::Centralized, core::MonitorMode::Distributed}) {
    core::TransportConfig serviceConfig;
    serviceConfig.monitorMode = mode;
    out << "\npacket-level event simulation over the same trace ("
        << (mode == core::MonitorMode::Distributed
                ? "distributed link-state monitoring"
                : "centralized monitoring")
        << "):\n";
    out << util::padRight("scheme", 22) << util::padLeft("sent", 8)
        << util::padLeft("on_time", 10) << util::padLeft("late", 7)
        << util::padLeft("lost", 7) << util::padLeft("on_time_rate", 14)
        << util::padLeft("cost/pkt", 10) << '\n';
    for (const auto kind : routing::allSchemeKinds()) {
      core::TransportService service(topology, tr, serviceConfig);
      const auto id = service.openFlow("NYC", "SJC", kind);
      service.run(util::seconds(10) * static_cast<util::SimTime>(intervals) -
                  util::milliseconds(500));
      const auto& stats = service.stats(id);
      out << util::padRight(std::string(routing::schemeName(kind)), 22)
          << util::padLeft(std::to_string(stats.sent), 8)
          << util::padLeft(std::to_string(stats.deliveredOnTime), 10)
          << util::padLeft(std::to_string(stats.deliveredLate), 7)
          << util::padLeft(std::to_string(stats.lost()), 7)
          << util::padLeft(util::formatPercent(stats.onTimeRate(), 2), 14)
          << util::padLeft(util::formatFixed(stats.costPerPacket(), 2), 10)
          << '\n';
    }
  }
  return out.str();
}

/// The per-flow cost matrix (rows: flows, columns: schemes).
std::string renderPerFlowCost(const Sweep& sweep,
                              const trace::Topology& topology) {
  const auto& config = sweep.config;
  std::ostringstream out;
  out << util::padRight("flow", 12);
  for (const auto kind : config.schemes)
    out << util::padLeft(std::string(routing::schemeName(kind)), 22);
  out << '\n';
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    out << util::padRight(flowName(topology, config.flows[f]), 12);
    for (std::size_t s = 0; s < config.schemes.size(); ++s) {
      out << util::padLeft(
          util::formatFixed(
              sweep.result.at(f, s, config.schemes.size()).averageCost, 2),
          22);
    }
    out << '\n';
  }
  return out.str();
}

// E7 (reconstructed table): the per-packet cost of each scheme, absolute
// and relative to static two disjoint paths, then the per-flow cost
// matrix.
std::string e7Cost(Context& context) {
  const Sweep& sweep = context.sweep();
  return runHeader("E7: per-packet cost of each scheme", sweep) +
         renderCostTable(sweep.result) + "\n" +
         renderPerFlowCost(sweep, context.topology);
}

// E9 (extension; the paper's future-work direction): how much of the
// optimization headroom do the precomputed targeted graphs capture? For
// a set of source-area condition snapshots, compares
//   - static two disjoint paths,
//   - the targeted source-problem graph (precomputed on healthy data),
//   - a per-snapshot greedily *optimized* dissemination graph with the
//     same edge budget,
//   - time-constrained flooding (the price-is-no-object bound),
// reporting P(on-time delivery) and cost for each.
std::string e9Optimizer(Context& context) {
  const auto& topology = context.topology;
  const auto& g = topology.graph();
  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};
  const auto latencies = g.baseLatencies();
  const util::SimTime deadline = util::milliseconds(kDeadlineMs);
  const int scoreSamples = 20000;

  const auto targeted =
      routing::buildTargetedGraphs(g, flow, latencies, deadline);
  auto flooding = graph::floodingGraph(g, flow.source, flow.destination);
  flooding.pruneDeadlineInfeasible(latencies, deadline);

  struct Snapshot {
    const char* name;
    double sourceLoss;   ///< loss on every source link
    int deadSourceLinks; ///< additionally, this many links fully dark
  };
  const Snapshot snapshots[] = {
      {"mild degradation (20% loss all src links)", 0.2, 0},
      {"heavy degradation (60% loss all src links)", 0.6, 0},
      {"severe degradation (90% loss all src links)", 0.9, 0},
      {"partial outage (all but one src link dark)", 0.0, -1},
      {"degradation + two dark links", 0.5, 2},
  };

  std::ostringstream out;
  out << "=== E9 (extension): optimized dissemination graphs vs "
         "targeted redundancy, flow "
      << flowName(topology, flow) << " ===\n\n";
  out << util::padRight("snapshot", 44) << util::padLeft("scheme", 22)
      << util::padLeft("on_time", 10) << util::padLeft("edges", 7)
      << util::padLeft("cost", 6) << '\n';

  for (const Snapshot& snapshot : snapshots) {
    std::vector<double> losses(g.edgeCount(), 1e-4);
    const auto sourceLinks = g.outEdges(flow.source);
    for (std::size_t i = 0; i < sourceLinks.size(); ++i) {
      losses[sourceLinks[i]] = snapshot.sourceLoss;
    }
    if (snapshot.deadSourceLinks == -1) {
      // All links dark except the one the shortest path uses (a survivor
      // that can actually reach the destination within the deadline).
      const auto best = graph::shortestPath(g, flow.source,
                                            flow.destination, latencies);
      for (const graph::EdgeId e : sourceLinks) {
        if (!best.edges.empty() && e == best.edges.front()) continue;
        losses[e] = 1.0;
      }
    } else {
      for (int i = 0; i < snapshot.deadSourceLinks &&
                      static_cast<std::size_t>(i) < sourceLinks.size();
           ++i) {
        losses[sourceLinks[static_cast<std::size_t>(i)]] = 1.0;
      }
    }

    playback::OptimizerParams optimizer;
    optimizer.edgeBudget =
        static_cast<int>(targeted.sourceProblem.edgeCount());
    optimizer.mcSamples = 4000;
    const auto optimized = playback::optimizeDisseminationGraph(
        g, flow, losses, latencies, optimizer);

    const auto row = [&](const char* name,
                         const graph::DisseminationGraph& dg) {
      util::Rng rng(11);
      const double onTime = playback::onTimeProbabilityMC(
          dg, losses, latencies, optimizer.delivery, scoreSamples, rng);
      out << util::padRight(snapshot.name, 44) << util::padLeft(name, 22)
          << util::padLeft(util::formatPercent(onTime, 2), 10)
          << util::padLeft(std::to_string(dg.edgeCount()), 7)
          << util::padLeft(std::to_string(dg.cost()), 6) << '\n';
    };
    row("two-disjoint", targeted.twoDisjoint);
    row("targeted-src", targeted.sourceProblem);
    row("optimized", optimized.graph);
    row("flooding", flooding);
    out << '\n';
  }
  out << "Reading: 'optimized' re-plans per snapshot with the same "
         "edge budget as targeted-src;\nthe gap between them is the "
         "headroom the paper's precomputed graphs leave on the table.\n";
  return out.str();
}

// E10 (extension): what the cost metric means operationally. The paper
// argues flooding is "prohibitively expensive"; with an explicit per-link
// capacity model the expense becomes visible as congestion. Several flows
// share the overlay while link capacity shrinks; flooding's 8x
// transmission count turns into queueing delay and drops that break its
// own deadline, while targeted redundancy keeps near-flooding
// availability at two-disjoint-paths load.
std::string e10Congestion(Context& context) {
  const auto& topology = context.topology;
  const auto& g = topology.graph();

  // A moderately problematic 5-minute trace so that redundancy earns its
  // keep: a fluttering degradation at NYC mid-run.
  trace::Trace tr(util::seconds(10), 30, trace::healthyBaseline(g, 1e-4));
  util::Rng rng(3);
  trace::applyEvent(tr, g,
                    trace::makeNodeEvent(g, topology.at("NYC"), 8, 16, 1.0,
                                         0.5, 0.9, 0, rng),
                    rng, 0.5);

  const std::pair<const char*, const char*> flowSpecs[] = {
      {"NYC", "SJC"}, {"NYC", "LAX"}, {"WAS", "SEA"}, {"ATL", "SJC"},
  };
  const double ratePerFlow = 100.0;

  std::ostringstream out;
  out << "=== E10 (extension): schemes under per-link capacity "
         "limits ===\n"
      << std::size(flowSpecs) << " flows x " << ratePerFlow
      << " pkt/s, NYC degradation t=80-240s\n\n";
  out << util::padRight("capacity (pkt/s/link)", 24);
  for (const auto kind : routing::allSchemeKinds()) {
    out << util::padLeft(std::string(routing::schemeName(kind)), 22);
  }
  out << "\n";

  for (const double capacity : {0.0, 2000.0, 1000.0, 500.0, 250.0}) {
    out << util::padRight(capacity == 0.0 ? std::string("unlimited")
                                          : util::formatFixed(capacity, 0),
                          24);
    for (const auto kind : routing::allSchemeKinds()) {
      core::TransportConfig config;
      config.linkCapacity.packetsPerSecond = capacity;
      core::TransportService service(topology, tr, config);
      std::vector<net::FlowId> flows;
      for (const auto& [src, dst] : flowSpecs) {
        flows.push_back(service.openFlow(
            src, dst, kind, static_cast<util::SimTime>(1e6 / ratePerFlow)));
      }
      service.run(tr.duration() - util::milliseconds(500));
      double onTimeSum = 0;
      for (const auto id : flows) {
        onTimeSum += service.stats(id).onTimeRate();
      }
      out << util::padLeft(
          util::formatPercent(onTimeSum / static_cast<double>(flows.size()),
                              2),
          22);
    }
    out << '\n';
  }
  out << "\n(on-time rate averaged over the flows; watch flooding "
         "collapse as capacity falls while targeted holds)\n";
  return out.str();
}

// E11 (reconstructed figure): delivery-latency distribution per routing
// scheme over the evaluation trace -- the "timely" half of the paper's
// guarantee. Reports min/median/p99/max of per-interval delivery latency
// for each scheme, against the 65 ms one-way budget.
std::string e11Latency(Context& context) {
  const Sweep sweep = sweepFlows(context.topology, kLatencyDays, true);
  const auto& config = sweep.config;
  std::ostringstream out;
  out << runHeader("E11: delivery-latency distribution per scheme", sweep);
  out << util::padRight("scheme", 22) << util::padLeft("min", 10)
      << util::padLeft("median", 10) << util::padLeft("p99", 10)
      << util::padLeft("max", 10)
      << util::padLeft("deadline_margin_p99", 21) << '\n';
  const util::SimTime deadline = config.schemeParams.deadline;
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    util::EmpiricalCdf cdf;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      for (const double latency :
           sweep.result.at(f, s, config.schemes.size()).intervalLatenciesUs) {
        cdf.add(latency);
      }
    }
    const auto ms = [](double us) {
      return util::formatFixed(us / 1000.0, 2) + "ms";
    };
    const double p99 = cdf.quantile(0.99);
    out << util::padRight(
               std::string(routing::schemeName(config.schemes[s])), 22)
        << util::padLeft(ms(cdf.quantile(0.0)), 10)
        << util::padLeft(ms(cdf.quantile(0.5)), 10)
        << util::padLeft(ms(p99), 10)
        << util::padLeft(ms(cdf.quantile(1.0)), 10)
        << util::padLeft(ms(static_cast<double>(deadline) - p99), 21)
        << '\n';
  }
  out << "\n(latencies are per-interval earliest arrivals of the "
         "active dissemination graph;\nschemes differ mainly in the "
         "tail -- redundancy keeps the tail close to the healthy "
         "shortest path)\n";
  return out.str();
}

// Ablations: the canonical sweep with one design choice changed at a
// time -- monitoring staleness, recovery on/off, the event mix, the
// number of disjoint paths (playback/ablation.hpp).
std::string ablations(Context& context) {
  const auto specs = playback::standardAblations();
  std::ostringstream out;
  out << "=== ablation suite (" << specs.size() << " runs of " << kAblationDays
      << " days, " << kAblationMcSamples << " MC samples) ===\n";
  for (const auto& spec : specs) {
    out << "  " << spec.name << ": " << spec.rationale << '\n';
  }
  out << '\n';
  const auto results = runAblationSuite(
      context.topology.graph(), generatorParams(kAblationDays),
      experimentConfig(context.topology, kAblationMcSamples), specs);
  out << "gap coverage by ablation:\n"
      << renderAblationComparison(
             results, {routing::SchemeKind::DynamicSinglePath,
                       routing::SchemeKind::StaticTwoDisjoint,
                       routing::SchemeKind::DynamicTwoDisjoint,
                       routing::SchemeKind::TargetedRedundancy});
  return out.str();
}

struct Experiment {
  std::string_view id;
  std::string_view file;  ///< the report's name under results/
  std::string (*run)(Context&);
};

const Experiment kExperiments[] = {
    {"E1", "e1_graphs.txt", e1Graphs},
    {"E2", "e2_topology.txt", e2Topology},
    {"E3", "e3_table2.txt", e3Table},
    {"E4", "e4_classification.txt", e4Classification},
    {"E5", "e5_cdf.txt", e5Cdf},
    {"E6", "e6_case_study.txt", e6CaseStudy},
    {"E7", "e7_cost.txt", e7Cost},
    {"E9", "e9_optimizer.txt", e9Optimizer},
    {"E10", "e10_congestion.txt", e10Congestion},
    {"E11", "e11_latency.txt", e11Latency},
    {"ablations", "ablations.txt", ablations},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<bool> selected(std::size(kExperiments), false);
  bool anySelected = false;
  std::string outDir;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto it = std::find_if(
        std::begin(kExperiments), std::end(kExperiments),
        [&](const Experiment& e) { return e.id == arg; });
    if (it != std::end(kExperiments)) {
      selected[static_cast<std::size_t>(it - std::begin(kExperiments))] = true;
      anySelected = true;
    } else if (arg.starts_with("--out-dir=") && arg.size() > 10) {
      outDir = arg.substr(10);
    } else {
      std::cerr << "bench_reproduce: unknown argument '" << arg
                << "'\nusage: bench_reproduce [E1 E2 E3 E4 E5 E6 E7 E9 E10 "
                   "E11 ablations] [--out-dir=DIR]\n";
      return 2;
    }
  }
  if (!outDir.empty()) {
    // A directory that cannot be made shows up as the first failed write.
    std::error_code ignored;
    std::filesystem::create_directories(outDir, ignored);
  }

  Context context;
  bool first = true;
  for (std::size_t i = 0; i < std::size(kExperiments); ++i) {
    if (anySelected && !selected[i]) continue;
    const Experiment& experiment = kExperiments[i];
    const std::string report = experiment.run(context);
    if (outDir.empty()) {
      std::cout << (first ? "" : "\n") << report << std::flush;
      first = false;
      continue;
    }
    const std::string path = outDir + "/" + std::string(experiment.file);
    std::ofstream out(path);
    out << report;
    if (!out) {
      std::cerr << "bench_reproduce: cannot write " << path << '\n';
      return 1;
    }
    std::cout << "wrote " << path << '\n';
  }
  return 0;
}
