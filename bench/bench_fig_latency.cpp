// Experiment E11 (reconstructed figure): delivery-latency distribution
// per routing scheme over the evaluation trace -- the "timely" half of
// the paper's guarantee. Reports min/median/p99/max of per-interval
// delivery latency for each scheme and flow group, against the 65 ms
// one-way budget.
#include <iostream>

#include "bench_common.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) {
  using namespace dg;
  auto args = bench::parseArgs(argc, argv);
  // A shorter default horizon: latency distributions stabilize quickly.
  if (!args.has("days")) args.set("days", "7");
  const auto topology = trace::Topology::ltn12();
  const auto synthetic = generateSyntheticTrace(
      topology.graph(), bench::makeGeneratorParams(args));
  auto config = bench::makeExperimentConfig(args, topology);
  config.playback.collectIntervalLatencies = true;
  std::cout << bench::runHeader(
      "E11: delivery-latency distribution per scheme", synthetic, config);

  const auto result =
      runExperiment(topology.graph(), synthetic.trace, config);

  std::cout << util::padRight("scheme", 22) << util::padLeft("min", 10)
            << util::padLeft("median", 10) << util::padLeft("p99", 10)
            << util::padLeft("max", 10)
            << util::padLeft("deadline_margin_p99", 21) << '\n';
  const util::SimTime deadline = config.schemeParams.deadline;
  for (std::size_t s = 0; s < config.schemes.size(); ++s) {
    util::EmpiricalCdf cdf;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      for (const double latency :
           result.at(f, s, config.schemes.size()).intervalLatenciesUs) {
        cdf.add(latency);
      }
    }
    const auto ms = [](double us) {
      return util::formatFixed(us / 1000.0, 2) + "ms";
    };
    const double p99 = cdf.quantile(0.99);
    std::cout << util::padRight(
                     std::string(routing::schemeName(config.schemes[s])), 22)
              << util::padLeft(ms(cdf.quantile(0.0)), 10)
              << util::padLeft(ms(cdf.quantile(0.5)), 10)
              << util::padLeft(ms(p99), 10)
              << util::padLeft(ms(cdf.quantile(1.0)), 10)
              << util::padLeft(
                     ms(static_cast<double>(deadline) - p99), 21)
              << '\n';
  }
  std::cout << "\n(latencies are per-interval earliest arrivals of the "
               "active dissemination graph;\nschemes differ mainly in the "
               "tail -- redundancy keeps the tail close to the healthy "
               "shortest path)\n";
  return 0;
}
