// Property suite for the multicast subsystem (see tests/proptest.hpp):
// random receiver sets over random generator-family topologies. Every
// group scheme's selected graph must connect the source to every
// receiver, and a single-receiver group must reproduce the equivalent
// unicast run metric for metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mcast/playback.hpp"
#include "mcast/scheme.hpp"
#include "playback/playback.hpp"
#include "proptest.hpp"
#include "topogen/topogen.hpp"
#include "trace/synth.hpp"
#include "trace/topology.hpp"
#include "util/rng.hpp"

namespace dg::mcast {
namespace {

namespace prop = dg::test::prop;

/// A case is a topology recipe plus a receiver set drawn over it; the
/// shrinker rebuilds with fewer nodes/receivers, so failures report the
/// smallest falsifying group.
struct GroupCase {
  std::string family;
  std::size_t n = 4;
  std::uint64_t topoSeed = 1;
  std::uint64_t pickSeed = 1;
  std::size_t receiverCount = 1;

  std::string spec() const {
    return family + ":n=" + std::to_string(n) +
           ",seed=" + std::to_string(topoSeed);
  }

  std::string describe() const {
    return "  spec: " + spec() + " receivers=" +
           std::to_string(receiverCount) +
           " pickSeed=" + std::to_string(pickSeed) + "\n";
  }
};

GroupCase genGroupCase(util::Rng& rng) {
  static const char* kFamilies[] = {"mesh", "ring", "scale-free"};
  GroupCase c;
  c.family = kFamilies[rng.uniformInt(std::uint64_t{3})];
  c.n = static_cast<std::size_t>(4 + rng.uniformInt(std::uint64_t{28}));
  c.topoSeed = rng.next() >> 1;
  c.pickSeed = rng.next() >> 1;
  c.receiverCount = static_cast<std::size_t>(
      1 + rng.uniformInt(std::uint64_t{std::min<std::size_t>(5, c.n - 1)}));
  return c;
}

std::vector<GroupCase> shrinkGroupCase(const GroupCase& c) {
  std::vector<GroupCase> out;
  if (c.receiverCount > 1) {
    GroupCase fewer = c;
    fewer.receiverCount = c.receiverCount - 1;
    out.push_back(fewer);
  }
  if (c.n > 4) {
    GroupCase smaller = c;
    smaller.n = std::max<std::size_t>(4, c.n / 2);
    smaller.receiverCount =
        std::min(smaller.receiverCount, smaller.n - 1);
    out.push_back(smaller);
  }
  return out;
}

std::string describeCase(const GroupCase& c) { return c.describe(); }

/// Draws the group deterministically from pickSeed: a random source and
/// receiverCount distinct non-source receivers.
Group drawGroup(const GroupCase& c, std::size_t siteCount) {
  util::Rng rng(c.pickSeed);
  Group group;
  group.source = static_cast<graph::NodeId>(
      rng.uniformInt(static_cast<std::uint64_t>(siteCount)));
  std::vector<char> taken(siteCount, 0);
  taken[group.source] = 1;
  while (group.receivers.size() < c.receiverCount) {
    const auto node = static_cast<graph::NodeId>(
        rng.uniformInt(static_cast<std::uint64_t>(siteCount)));
    if (taken[node]) continue;
    taken[node] = 1;
    group.receivers.push_back(node);
  }
  return group;
}

trace::Trace shortTrace(const graph::Graph& overlay, std::uint64_t seed) {
  trace::GeneratorParams params;
  params.seed = seed;
  params.duration = util::minutes(30);
  return trace::generateSyntheticTrace(overlay, params).trace;
}

TEST(McastProperties, EverySchemeGraphConnectsSourceToEveryReceiver) {
  prop::forAll(
      "every group scheme's graph connects source to all receivers",
      genGroupCase,
      [](const GroupCase& c) {
        const trace::Topology topo = topogen::generateTopology(c.spec());
        const Group group = drawGroup(c, topo.siteCount());
        const trace::Trace tr = shortTrace(topo.graph(), c.topoSeed | 1);
        const routing::NetworkView baseline =
            routing::NetworkView::baseline(tr);
        // A generous deadline: connectivity is the property under test,
        // not deadline pruning on arbitrary geometries.
        routing::SchemeParams params;
        params.deadline = util::seconds(10);
        // Adaptive kinds: the union of the receivers' first decisions,
        // which see the baseline view.
        const trace::ConditionIndex index(tr);
        const playback::DecisionReplay replay(topo.graph(), tr, index, 1);
        const playback::IntervalWindow first{0, 1};
        for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
          graph::DisseminationGraph dg(topo.graph(), group.source,
                                       group.receivers.front());
          if (isAdaptive(kind)) {
            std::vector<playback::DecisionTimeline> timelines;
            for (std::size_t i = 0; i < group.receivers.size(); ++i) {
              timelines.push_back(replay.run(
                  unicastEquivalent(kind), receiverFlow(group, i),
                  receiverSchemeParams(group, i, params), nullptr,
                  {&first, 1}));
            }
            std::vector<const std::vector<graph::EdgeId>*> selections;
            for (const playback::DecisionTimeline& timeline : timelines)
              selections.push_back(&timeline.selectionAt(0));
            uniteSelections(dg, selections);
          } else {
            const auto scheme =
                makeGroupScheme(kind, topo.graph(), group, params);
            scheme->initialize(baseline);
            dg = scheme->select(baseline);
          }
          if (dg.source() != group.source)
            return prop::fail(std::string(groupSchemeName(kind)) +
                              ": wrong source");
          const auto reachable = dg.reachableNodes();
          for (const graph::NodeId receiver : group.receivers) {
            if (std::find(reachable.begin(), reachable.end(), receiver) ==
                reachable.end())
              return prop::fail(std::string(groupSchemeName(kind)) +
                                ": receiver " + std::to_string(receiver) +
                                " unreachable");
          }
        }
        return prop::pass();
      },
      describeCase, shrinkGroupCase, prop::Config{0xD06F00DULL, 40});
}

TEST(McastProperties, SingleReceiverGroupEqualsUnicastRun) {
  prop::forAll(
      "1-receiver group playback == unicast playback, every scheme",
      genGroupCase,
      [](GroupCase c) {
        c.receiverCount = 1;
        const trace::Topology topo = topogen::generateTopology(c.spec());
        const Group group = drawGroup(c, topo.siteCount());
        const trace::Trace tr = shortTrace(topo.graph(), c.topoSeed | 1);

        playback::PlaybackParams unicastParams;
        unicastParams.mcSamples = 16;
        unicastParams.delivery.deadline = util::seconds(1);
        const playback::PlaybackEngine unicast(topo.graph(), tr,
                                               unicastParams);
        GroupPlaybackParams groupParams;
        groupParams.base = unicastParams;
        const GroupPlaybackEngine grouped(topo.graph(), tr, groupParams);

        routing::SchemeParams schemeParams;
        schemeParams.deadline = util::seconds(1);
        const routing::Flow flow = receiverFlow(group, 0);
        for (const GroupSchemeKind kind : allGroupSchemeKinds()) {
          const playback::FlowSchemeResult u =
              unicast.run(flow, unicastEquivalent(kind), schemeParams);
          const GroupSchemeResult g =
              grouped.run(group, kind, schemeParams);
          if (g.unavailabilityAll != u.unavailability ||
              g.unavailableAllSeconds != u.unavailableSeconds ||
              g.problematicIntervals != u.problematicIntervals ||
              g.averageCost != u.averageCost ||
              g.receivers.at(0).unavailability != u.unavailability ||
              g.receivers.at(0).averageLatencyUs != u.averageLatencyUs)
            return prop::fail(std::string(groupSchemeName(kind)) +
                              ": group metrics diverge from unicast");
        }
        return prop::pass();
      },
      describeCase, shrinkGroupCase, prop::Config{0xD06F00EULL, 15});
}

}  // namespace
}  // namespace dg::mcast
