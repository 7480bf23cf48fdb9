// Experiments E3, E5 and E7 from one sweep over a multi-week synthetic
// trace and 16 transcontinental flows:
//   E3 (the paper's headline table): per-scheme unavailability, coverage
//      of the single-path -> optimal gap and cost, then per-flow
//      unavailability;
//   E5 (reconstructed figure): the CDF of per-flow unavailability for
//      every scheme, as plottable text, one line per flow quantile;
//   E7 (reconstructed table): the per-packet cost of each scheme,
//      absolute and relative to static two disjoint paths, then the
//      per-flow cost matrix.
//
// Abstract targets: targeted redundancy covers > 99% of the gap, dynamic
// two-disjoint ~ 70%, static two-disjoint ~ 45%, at a cost ~ 2% above two
// disjoint paths, while flooding costs several times as much.
//
// The three reports go to stdout. `--out-dir=DIR` also writes them to
// DIR/e3_table2.txt, DIR/e5_cdf.txt and DIR/e7_cost.txt, the files under
// results/. `--ablations` additionally sweeps monitoring staleness,
// recovery on/off and the event-mix knobs DESIGN.md calls out.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench_common.hpp"
#include "playback/ablation.hpp"
#include "playback/report.hpp"
#include "util/strings.hpp"

namespace {

using namespace dg;

/// The per-flow cost matrix (rows: flows, columns: schemes).
std::string renderPerFlowCost(const playback::ExperimentResult& result,
                              const playback::ExperimentConfig& config,
                              const trace::Topology& topology) {
  std::ostringstream out;
  out << util::padRight("flow", 12);
  for (const auto kind : config.schemes)
    out << util::padLeft(std::string(routing::schemeName(kind)), 22);
  out << '\n';
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const auto flow = config.flows[f];
    out << util::padRight(topology.name(flow.source) + "->" +
                              topology.name(flow.destination),
                          12);
    for (std::size_t s = 0; s < config.schemes.size(); ++s) {
      out << util::padLeft(
          util::formatFixed(
              result.at(f, s, config.schemes.size()).averageCost, 2),
          22);
    }
    out << '\n';
  }
  return out.str();
}

void runAblations(const trace::Topology& topology,
                  const util::Config& args) {
  const auto generator = bench::makeGeneratorParams(args);
  const auto config = bench::makeExperimentConfig(args, topology);
  const auto specs = playback::standardAblations();
  std::cout << "=== ablation suite (" << specs.size() << " runs) ===\n";
  for (const auto& spec : specs) {
    std::cout << "  " << spec.name << ": " << spec.rationale << '\n';
  }
  std::cout << '\n';
  const auto results =
      runAblationSuite(topology.graph(), generator, config, specs);
  std::cout << "gap coverage by ablation:\n"
            << renderAblationComparison(
                   results, {routing::SchemeKind::DynamicSinglePath,
                             routing::SchemeKind::StaticTwoDisjoint,
                             routing::SchemeKind::DynamicTwoDisjoint,
                             routing::SchemeKind::TargetedRedundancy})
            << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dg;
  const auto args = bench::parseArgs(argc, argv);
  const auto topology = trace::Topology::ltn12();

  const auto synthetic = generateSyntheticTrace(
      topology.graph(), bench::makeGeneratorParams(args));
  const auto config = bench::makeExperimentConfig(args, topology);
  const auto result = runExperiment(topology.graph(), synthetic.trace, config);

  const std::pair<const char*, std::string> reports[] = {
      {"e3_table2.txt",
       bench::runHeader(
           "E3 / Table II: gap coverage of routing schemes (reconstructed)",
           synthetic, config) +
           renderSummaryTable(result, synthetic.trace.duration(),
                              config.flows.size()) +
           "\nPer-flow unavailability:\n" +
           renderPerFlowTable(result, config, topology) + "\n"},
      {"e5_cdf.txt",
       bench::runHeader("E5: CDF of per-flow unavailability", synthetic,
                        config) +
           renderUnavailabilityCdf(result, config)},
      {"e7_cost.txt",
       bench::runHeader("E7: per-packet cost of each scheme", synthetic,
                        config) +
           renderCostTable(result) + "\n" +
           renderPerFlowCost(result, config, topology)},
  };
  for (const auto& [file, report] : reports) {
    std::cout << report << '\n';
    if (!args.has("out-dir")) continue;
    const std::string path = args.getString("out-dir") + "/" + file;
    std::ofstream out(path);
    out << report;
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  if (args.getBool("ablations", false)) {
    runAblations(topology, args);
  }
  return 0;
}
