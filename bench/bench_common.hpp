// Shared plumbing for the experiment binaries: every bench accepts
// --key=value overrides (see keys below) so the whole evaluation is
// scriptable; defaults reproduce the configuration recorded in
// EXPERIMENTS.md.
#pragma once

#include <sstream>
#include <string>

#include "playback/experiment.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/config.hpp"
#include "util/sim_time.hpp"

namespace dg::bench {

inline util::Config parseArgs(int argc, char** argv) {
  util::Config config;
  config.applyArgs(argc, argv);
  return config;
}

/// Generator parameters from config keys: seed, days, node_events_per_day,
/// link_events_per_day, steady_prob, blackout_prob, severity_min/max,
/// flutter_min/max, coverage_min/max, placement_exponent,
/// latency_event_prob, event_median_s.
inline trace::GeneratorParams makeGeneratorParams(
    const util::Config& config) {
  trace::GeneratorParams params;
  params.seed =
      static_cast<std::uint64_t>(config.getInt("seed", 20170605));
  params.duration = util::hours(
      static_cast<std::int64_t>(config.getDouble("days", 28.0) * 24.0));
  params.nodeEventsPerDay =
      config.getDouble("node_events_per_day", params.nodeEventsPerDay);
  params.linkEventsPerDay =
      config.getDouble("link_events_per_day", params.linkEventsPerDay);
  params.nodeSteadyProb =
      config.getDouble("steady_prob", params.nodeSteadyProb);
  params.nodeBlackoutProb =
      config.getDouble("blackout_prob", params.nodeBlackoutProb);
  params.lossSeverityMin =
      config.getDouble("severity_min", params.lossSeverityMin);
  params.lossSeverityMax =
      config.getDouble("severity_max", params.lossSeverityMax);
  params.nodeFlutterActivityMin =
      config.getDouble("flutter_min", params.nodeFlutterActivityMin);
  params.nodeFlutterActivityMax =
      config.getDouble("flutter_max", params.nodeFlutterActivityMax);
  params.nodePartialOutageProb =
      config.getDouble("partial_outage_prob", params.nodePartialOutageProb);
  params.outageAliveLinksMin = static_cast<int>(
      config.getInt("outage_alive_min", params.outageAliveLinksMin));
  params.outageAliveLinksMax = static_cast<int>(
      config.getInt("outage_alive_max", params.outageAliveLinksMax));
  params.nodePlacementDegreeExponent = config.getDouble(
      "placement_exponent", params.nodePlacementDegreeExponent);
  params.latencyEventProb =
      config.getDouble("latency_event_prob", params.latencyEventProb);
  params.nodeEventMedianSeconds =
      config.getDouble("event_median_s", params.nodeEventMedianSeconds);
  return params;
}

/// Experiment configuration from config keys: mc_samples, staleness,
/// deadline_ms, threads, recovery.
inline playback::ExperimentConfig makeExperimentConfig(
    const util::Config& config, const trace::Topology& topology) {
  playback::ExperimentConfig experiment;
  experiment.flows = playback::transcontinentalFlows(topology);
  experiment.playback.mcSamples =
      static_cast<int>(config.getInt("mc_samples", 1000));
  experiment.playback.viewStaleness =
      static_cast<int>(config.getInt("staleness", 1));
  experiment.playback.delivery.recoveryEnabled =
      config.getBool("recovery", true);
  experiment.schemeParams.deadline = util::milliseconds(
      config.getInt("deadline_ms", 65));
  experiment.playback.delivery.deadline =
      experiment.schemeParams.deadline;
  experiment.threads =
      static_cast<unsigned>(config.getInt("threads", 0));
  return experiment;
}

/// The title and run-configuration lines every experiment report opens
/// with.
inline std::string runHeader(const std::string& title,
                             const trace::SyntheticTrace& synthetic,
                             const playback::ExperimentConfig& config) {
  std::ostringstream out;
  out << "=== " << title << " ===\n";
  out << "trace: "
      << util::toSeconds(synthetic.trace.duration()) / 86'400.0
      << " days, " << synthetic.trace.intervalCount() << " intervals, "
      << synthetic.events.size() << " events; " << config.flows.size()
      << " flows, " << config.schemes.size() << " schemes\n\n";
  return out.str();
}

}  // namespace dg::bench
