// Experiment E4 (reconstructed figure): where are the problems that
// defeat two disjoint paths? Joins the static-two-disjoint scheme's
// problematic intervals against the generator's ground-truth event log
// and buckets them by location relative to each flow. The paper's central
// empirical finding is that these are dominated by problems around a
// source or destination -- the motivation for targeted redundancy.
#include <iostream>

#include "bench_common.hpp"
#include "playback/classification.hpp"
#include "playback/report.hpp"

int main(int argc, char** argv) {
  using namespace dg;
  auto args = bench::parseArgs(argc, argv);
  const auto topology = trace::Topology::ltn12();
  const auto synthetic = generateSyntheticTrace(
      topology.graph(), bench::makeGeneratorParams(args));
  auto config = bench::makeExperimentConfig(args, topology);
  // Classify for the schemes of interest: the single-path baseline and
  // the static two-disjoint scheme the paper analyzes.
  config.schemes = {routing::SchemeKind::StaticSinglePath,
                    routing::SchemeKind::StaticTwoDisjoint,
                    routing::SchemeKind::TargetedRedundancy};
  std::cout << bench::runHeader(
      "E4: classification of problematic intervals by location", synthetic,
      config);

  const auto result =
      runExperiment(topology.graph(), synthetic.trace, config);

  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    std::vector<playback::ProblemClassification> parts;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      parts.push_back(playback::classifyProblems(
          topology.graph(), synthetic.events, config.flows[f],
          result.at(f, s, config.schemes.size()).problems));
    }
    const auto combined = playback::combineClassifications(parts);
    std::cout << "problematic intervals of "
              << routing::schemeName(config.schemes[s]) << ":\n"
              << renderClassification(combined) << '\n';
  }
  return 0;
}
