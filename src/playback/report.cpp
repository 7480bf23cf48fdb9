#include "playback/report.hpp"

#include <sstream>

#include "util/stats.hpp"
#include "util/strings.hpp"

namespace dg::playback {

namespace {
using util::formatFixed;
using util::formatPercent;
using util::padLeft;
using util::padRight;
}  // namespace

std::string renderSummaryTable(const ExperimentResult& result,
                               util::SimTime traceDuration,
                               std::size_t flowCount) {
  std::ostringstream out;
  const double traceDays = util::toSeconds(traceDuration) / 86'400.0;
  out << "Routing scheme performance over "
      << formatFixed(traceDays, 1) << " days, " << flowCount << " flows\n";
  out << padRight("scheme", 22) << padLeft("unavail", 12)
      << padLeft("unavail_s", 12) << padLeft("problem_ivls", 14)
      << padLeft("gap_cover", 11) << padLeft("avg_cost", 10)
      << padLeft("cost_vs_2dp", 13) << '\n';
  for (const SchemeSummary& s : result.summary) {
    out << padRight(std::string(routing::schemeName(s.scheme)), 22)
        << padLeft(formatFixed(s.unavailability * 1e6, 1) + "ppm", 12)
        << padLeft(formatFixed(s.unavailableSeconds, 1), 12)
        << padLeft(std::to_string(s.problematicIntervals), 14)
        << padLeft(formatPercent(s.gapCoverage, 2), 11)
        << padLeft(formatFixed(s.averageCost, 2), 10)
        << padLeft(s.costVsTwoDisjoint > 0
                       ? formatFixed(s.costVsTwoDisjoint, 3) + "x"
                       : "-",
                   13)
        << '\n';
  }
  return out.str();
}

std::string renderPerFlowTable(const ExperimentResult& result,
                               const ExperimentConfig& config,
                               const trace::Topology& topology) {
  std::ostringstream out;
  out << padRight("flow", 12);
  for (const routing::SchemeKind kind : config.schemes) {
    out << padLeft(std::string(routing::schemeName(kind)), 22);
  }
  out << '\n';
  const std::size_t schemeCount = config.schemes.size();
  for (std::size_t f = 0; f < config.flows.size(); ++f) {
    const routing::Flow flow = config.flows[f];
    out << padRight(topology.name(flow.source) + "->" +
                        topology.name(flow.destination),
                    12);
    for (std::size_t s = 0; s < schemeCount; ++s) {
      const FlowSchemeResult& r = result.at(f, s, schemeCount);
      out << padLeft(formatFixed(r.unavailability * 1e6, 1) + "ppm", 22);
    }
    out << '\n';
  }
  return out.str();
}

std::string renderCostTable(const ExperimentResult& result) {
  std::ostringstream out;
  out << padRight("scheme", 22) << padLeft("avg_cost", 10)
      << padLeft("vs_two_disjoint", 17) << '\n';
  for (const SchemeSummary& s : result.summary) {
    out << padRight(std::string(routing::schemeName(s.scheme)), 22)
        << padLeft(formatFixed(s.averageCost, 2), 10)
        << padLeft(s.costVsTwoDisjoint > 0
                       ? formatFixed((s.costVsTwoDisjoint - 1.0) * 100.0, 2) +
                             "%"
                       : "-",
                   17)
        << '\n';
  }
  return out.str();
}

std::string renderUnavailabilityCdf(const ExperimentResult& result,
                                    const ExperimentConfig& config) {
  std::ostringstream out;
  out << "scheme unavailability_ppm cumulative_fraction\n";
  const std::size_t schemeCount = config.schemes.size();
  for (std::size_t s = 0; s < schemeCount; ++s) {
    util::EmpiricalCdf cdf;
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
      cdf.add(result.at(f, s, schemeCount).unavailability * 1e6);
    }
    const auto& samples = cdf.sortedSamples();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      out << routing::schemeName(config.schemes[s]) << ' '
          << formatFixed(samples[i], 2) << ' '
          << formatFixed(static_cast<double>(i + 1) /
                             static_cast<double>(samples.size()),
                         4)
          << '\n';
    }
  }
  return out.str();
}

std::string renderClassification(const ProblemClassification& counts) {
  std::ostringstream out;
  const auto total = static_cast<double>(counts.total());
  const auto row = [&](const char* label, std::size_t count) {
    out << padRight(label, 26) << padLeft(std::to_string(count), 8)
        << padLeft(total > 0
                       ? formatPercent(static_cast<double>(count) / total, 1)
                       : "-",
                   9)
        << '\n';
  };
  out << padRight("problem location", 26) << padLeft("count", 8)
      << padLeft("share", 9) << '\n';
  row("source only", counts.sourceOnly);
  row("destination only", counts.destinationOnly);
  row("middle only", counts.middleOnly);
  row("source+destination", counts.sourceAndDestination);
  row("endpoint+middle", counts.endpointAndMiddle);
  row("unattributed", counts.unattributed);
  out << padRight("endpoint involved", 26) << padLeft("", 8)
      << padLeft(formatPercent(counts.endpointInvolvedFraction(), 1), 9)
      << '\n';
  return out.str();
}

}  // namespace dg::playback
