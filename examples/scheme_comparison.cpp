// Scheme comparison study using the playback engine (the fast path for
// long horizons): generates a multi-day synthetic condition trace and
// compares every routing scheme for a flow you choose, printing the
// trade-off between timeliness, reliability and cost.
//
//   $ ./scheme_comparison --source=WAS --destination=SEA --days=7
#include <iostream>

#include "playback/experiment.hpp"
#include "playback/report.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/config.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace dg;
  util::Config args;
  args.applyArgs(argc, argv);

  const auto topology = trace::Topology::ltn12();
  const std::string source = args.getString("source", "NYC");
  const std::string destination = args.getString("destination", "SJC");

  trace::GeneratorParams generator;
  generator.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
  generator.duration = util::days(args.getInt("days", 7));
  const auto synthetic =
      generateSyntheticTrace(topology.graph(), generator);

  playback::ExperimentConfig config;
  config.flows = {routing::Flow{topology.at(source),
                                topology.at(destination)}};
  config.playback.mcSamples = static_cast<int>(args.getInt("mc_samples",
                                                           1000));
  const auto result =
      runExperiment(topology.graph(), synthetic.trace, config);

  std::cout << "Flow " << source << "->" << destination << " over "
            << args.getInt("days", 7) << " synthetic days ("
            << synthetic.events.size() << " network events)\n\n";
  std::cout << renderSummaryTable(result, synthetic.trace.duration(), 1) << '\n';

  // A simple recommendation based on the measurements.
  const playback::SchemeSummary* best = nullptr;
  for (const auto& summary : result.summary) {
    if (summary.scheme == routing::SchemeKind::TimeConstrainedFlooding)
      continue;  // the price ceiling, not a recommendation
    if (best == nullptr || summary.unavailability < best->unavailability)
      best = &summary;
  }
  if (best != nullptr) {
    std::cout << "recommended scheme: " << routing::schemeName(best->scheme)
              << " (unavailability "
              << util::formatFixed(best->unavailability * 1e6, 1)
              << " ppm at cost "
              << util::formatFixed(best->averageCost, 2)
              << " transmissions/packet)\n";
  }
  return 0;
}
