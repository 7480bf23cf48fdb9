#include "mcast/report.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace dg::mcast {

namespace {
using util::formatFixed;
using util::padLeft;
using util::padRight;
}  // namespace

std::string renderGroupSummaryTable(const GroupExperimentResult& result,
                                    util::SimTime traceDuration,
                                    std::size_t groupCount) {
  std::ostringstream out;
  const double traceDays = util::toSeconds(traceDuration) / 86'400.0;
  out << "Group scheme performance over " << formatFixed(traceDays, 1)
      << " days, " << groupCount << " groups\n";
  out << padRight("scheme", 22) << padLeft("unavail_all", 13)
      << padLeft("unavail_k", 13) << padLeft("unavail_s", 12)
      << padLeft("problem_ivls", 14) << padLeft("worst_rcvr", 13)
      << padLeft("avg_cost", 10) << '\n';
  for (const GroupSchemeSummary& s : result.summary) {
    out << padRight(std::string(groupSchemeName(s.scheme)), 22)
        << padLeft(formatFixed(s.unavailabilityAll * 1e6, 1) + "ppm", 13)
        << padLeft(formatFixed(s.unavailabilityK * 1e6, 1) + "ppm", 13)
        << padLeft(formatFixed(s.unavailableAllSeconds, 1), 12)
        << padLeft(std::to_string(s.problematicIntervals), 14)
        << padLeft(formatFixed(s.worstReceiverUnavailability * 1e6, 1) +
                       "ppm",
                   13)
        << padLeft(formatFixed(s.averageCost, 2), 10) << '\n';
  }
  return out.str();
}

std::string renderPerGroupTable(const GroupExperimentResult& result,
                                const GroupExperimentConfig& config,
                                const trace::Topology& topology) {
  std::ostringstream out;
  out << padRight("group", 28);
  for (const GroupSchemeKind kind : config.schemes)
    out << padLeft(std::string(groupSchemeName(kind)), 22);
  out << '\n';
  const std::size_t schemeCount = config.schemes.size();
  for (std::size_t g = 0; g < config.groups.size(); ++g) {
    out << padRight(groupName(config.groups[g], topology), 28);
    for (std::size_t s = 0; s < schemeCount; ++s) {
      const GroupSchemeResult& r = result.at(g, s, schemeCount);
      out << padLeft(formatFixed(r.unavailabilityAll * 1e6, 1) + "ppm", 22);
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace dg::mcast
