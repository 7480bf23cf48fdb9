#include "mcast/experiment.hpp"

#include <algorithm>
#include <utility>

#include "util/stats.hpp"

namespace dg::mcast {

namespace {

/// Per-scheme aggregation.
void summarizeSchemes(GroupExperimentResult& result,
                      const GroupExperimentConfig& config) {
  const std::size_t schemeCount = config.schemes.size();
  std::vector<GroupSchemeSummary> summaries(schemeCount);
  for (std::size_t s = 0; s < schemeCount; ++s) {
    GroupSchemeSummary& summary = summaries[s];
    summary.scheme = config.schemes[s];
    util::OnlineStats unavailAll;
    util::OnlineStats unavailK;
    util::OnlineStats cost;
    for (std::size_t g = 0; g < config.groups.size(); ++g) {
      const GroupSchemeResult& r = result.at(g, s, schemeCount);
      unavailAll.add(r.unavailabilityAll);
      unavailK.add(r.unavailabilityK);
      cost.add(r.averageCost);
      summary.unavailableAllSeconds += r.unavailableAllSeconds;
      summary.problematicIntervals += r.problematicIntervals;
      for (const GroupReceiverResult& receiver : r.receivers) {
        summary.worstReceiverUnavailability = std::max(
            summary.worstReceiverUnavailability, receiver.unavailability);
      }
    }
    summary.unavailabilityAll = unavailAll.mean();
    summary.unavailabilityK = unavailK.mean();
    summary.averageCost = cost.mean();
  }
  result.summary = std::move(summaries);
}

GroupExperimentResult runGroupSweep(const graph::Graph& overlay,
                                    const trace::Trace* trace,
                                    const std::string& packedPath,
                                    const GroupExperimentConfig& config,
                                    telemetry::Telemetry* telemetry) {
  playback::SweepSpec spec;
  spec.units = config.groups;
  spec.schemes = config.schemes;
  spec.schemeParams = config.schemeParams;
  spec.windows = config.groupWindows;
  spec.playback = config.playback;
  spec.threads = config.threads;

  const std::size_t schemeCount = config.schemes.size();
  GroupExperimentResult result;
  result.perGroup.resize(config.groups.size() * schemeCount);
  const playback::SweepStats stats = playback::runSweep(
      overlay, trace, packedPath, spec, telemetry,
      [&](const playback::PlaybackEngine& engine, std::size_t job,
          GroupRunPartial&& total) {
        result.perGroup[job] = engine.finalizePartial(
            config.groups[job / schemeCount],
            config.schemes[job % schemeCount], std::move(total));
      });
  result.memoStats = stats.memoStats;
  result.stages = stats.stages;
  result.replay = stats.replay;
  result.delivery = stats.delivery;
  summarizeSchemes(result, config);
  return result;
}

}  // namespace

GroupExperimentResult runGroupExperiment(const graph::Graph& overlay,
                                         const trace::Trace& trace,
                                         const GroupExperimentConfig& config,
                                         telemetry::Telemetry* telemetry) {
  return runGroupSweep(overlay, &trace, "", config, telemetry);
}

GroupExperimentResult runPackedGroupExperiment(
    const graph::Graph& overlay, const std::string& packedPath,
    const GroupExperimentConfig& config, telemetry::Telemetry* telemetry) {
  return runGroupSweep(overlay, nullptr, packedPath, config, telemetry);
}

}  // namespace dg::mcast
