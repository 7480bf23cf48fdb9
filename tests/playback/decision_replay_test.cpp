// Bounded decision replay against the full-prefix walk it replaced.
//
// DecisionReplay::run starts each stop from the context's last
// history-free decision instead of interval 0. The frozen oracle below is
// the full-prefix walk: every decision from interval 0, with clean steady
// spans jumped by the steadyOnBaseline() contract. For every scheme kind,
// staleness 0-2 and decision memo on and off, the bounded checkpoints must
// equal the oracle's field by field -- at 50 seeded stops plus stops
// placed at each situation the bounded walk has to get right -- and a
// scheme restored from each must select exactly as an uninterrupted run
// for 500 further decisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/shortest_path.hpp"
#include "playback/playback.hpp"
#include "routing/decision_memo.hpp"
#include "routing/scheme.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/topology.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace dg::playback {
namespace {

using routing::DecisionCheckpoint;
using routing::NetworkView;
using routing::SchemeKind;
using routing::SchemeParams;
using routing::SchemeState;

constexpr std::size_t kIntervals = 1800;
constexpr std::size_t kFollow = 500;

/// The full-prefix replay, frozen as the oracle: one walk from interval 0
/// over every stop, jumping clean steady spans.
std::vector<DecisionCheckpoint> fullPrefixReplay(
    const graph::Graph& overlay, const trace::Trace& trace,
    const trace::ConditionIndex& index, std::size_t staleness,
    SchemeKind kind, routing::Flow flow, const SchemeParams& params,
    routing::DecisionMemo* memo, const std::vector<std::size_t>& stops) {
  std::vector<std::size_t> deviating;
  for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
    if (trace.hasDeviation(t)) deviating.push_back(t);
  }
  const auto nextDeviatingDecision = [&](std::size_t from) {
    const std::size_t fromView = from > staleness ? from - staleness : 0;
    const auto it =
        std::lower_bound(deviating.begin(), deviating.end(), fromView);
    if (it == deviating.end()) return trace.intervalCount();
    return std::max(from, *it + staleness);
  };

  auto scheme = routing::makeScheme(kind, overlay, flow, params);
  if (memo != nullptr)
    scheme->setDecisionMemo(memo, memo->contextKey(kind, flow, params));
  const NetworkView baselineView = NetworkView::baseline(trace);
  scheme->initialize(baselineView);
  trace::ConditionTimeline cursor(trace);

  std::vector<DecisionCheckpoint> checkpoints;
  const graph::DisseminationGraph* dg = nullptr;
  std::size_t t = 0;
  for (const std::size_t stop : stops) {
    while (t < stop) {
      if (t < staleness || !trace.hasDeviation(t - staleness)) {
        dg = &scheme->select(baselineView);
        if (scheme->steadyOnBaseline()) {
          t = nextDeviatingDecision(t + 1);
          continue;
        }
        ++t;
      } else {
        const std::size_t viewInterval = t - staleness;
        cursor.seek(viewInterval);
        dg = &scheme->select(NetworkView::borrowing(
            cursor, index.contentId(viewInterval)));
        ++t;
      }
    }
    checkpoints.push_back({scheme->saveState(), dg->edges()});
  }
  return checkpoints;
}

/// The flow's baseline shortest route.
std::vector<graph::EdgeId> shortestRoute(const graph::Graph& g,
                                         routing::Flow flow) {
  return graph::shortestPath(g, flow.source, flow.destination,
                             g.baseLatencies())
      .edges;
}

/// Seeded episodes separated by clean gaps of 3-42 intervals, cycling
/// through every situation the bounded replay distinguishes:
///  0. loss around the source (targeted source problem, hold-downs), then
///     one lossy middle link while the hold is still on (a middle
///     detection that is not middle-only);
///  1. loss around the destination;
///  2. one middle link of the baseline two-disjoint route with loss
///     rising every interval (a targeted re-plan each time);
///  3. one middle link of the baseline two-disjoint route lossy (a
///     re-route), then every link touching neither endpoint 100 ms slow:
///     middle-only with no timely route anywhere, so the graph of the
///     first decision stays;
///  4. one middle link lossy at a constant rate while another's loss
///     varies below the degraded threshold: consecutive middle-only
///     decisions on distinct views with equal weights;
///  5. the baseline shortest route 20% faster: a timely route for the
///     context whose deadline the baseline cannot meet.
/// With `lossyBaseline`, one middle link is lossy in the baseline itself,
/// so the targeted detector classifies the baseline view as a problem.
struct Episode {
  std::size_t type = 0;
  std::size_t start = 0;
  std::size_t length = 0;
};
struct EpisodeTrace {
  trace::Trace trace;
  std::vector<Episode> episodes;
};

EpisodeTrace episodeTrace(const graph::Graph& g, routing::Flow flow,
                          bool lossyBaseline) {
  const auto touches = [&](graph::EdgeId e, graph::NodeId node) {
    return g.edge(e).from == node || g.edge(e).to == node;
  };
  const auto isMiddle = [&](graph::EdgeId e) {
    return !touches(e, flow.source) && !touches(e, flow.destination);
  };
  std::vector<graph::EdgeId> routeMiddle;
  std::vector<graph::EdgeId> middle;
  {
    const trace::Trace healthy(util::seconds(10), 1,
                               trace::healthyBaseline(g, 1e-4));
    auto route = routing::makeScheme(SchemeKind::StaticTwoDisjoint, g, flow,
                                     {});
    route->initialize(NetworkView::baseline(healthy));
    for (const graph::EdgeId e :
         route->select(NetworkView::baseline(healthy)).edges()) {
      if (isMiddle(e)) routeMiddle.push_back(e);
    }
    for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
      if (isMiddle(e)) middle.push_back(e);
    }
  }
  const std::vector<graph::EdgeId> fastest = shortestRoute(g, flow);

  std::vector<trace::LinkConditions> baseline =
      trace::healthyBaseline(g, 1e-4);
  // A middle link off the baseline routes, lossy enough to classify.
  if (lossyBaseline) baseline[middle.back()].lossRate = 0.06;
  EpisodeTrace result{trace::Trace(util::seconds(10), kIntervals, baseline),
                      {}};
  trace::Trace& out = result.trace;

  util::Rng rng(41);
  std::size_t t = 9;
  for (std::size_t episode = 0; t + 8 < kIntervals; ++episode) {
    const std::size_t type = episode % 6;
    const std::size_t length =
        (type == 0 || type == 3 ? 2 : 1) + rng.uniformInt(std::uint64_t{5});
    result.episodes.push_back({type, t, length});
    const graph::EdgeId hit = routeMiddle[rng.uniformInt(
        static_cast<std::uint64_t>(routeMiddle.size()))];
    const graph::EdgeId quiet =
        middle[rng.uniformInt(static_cast<std::uint64_t>(middle.size()))];
    for (std::size_t k = 0; k < length; ++k) {
      const std::size_t interval = t + k;
      const auto set = [&](graph::EdgeId e, double loss,
                           util::SimTime latency) {
        out.setCondition(e, interval, {loss, latency});
      };
      for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
        const trace::LinkConditions base = out.baseline(e);
        switch (type) {
          case 0:
            if (k + 1 < length && touches(e, flow.source))
              set(e, 0.2, base.latency);
            if (k + 1 == length && e == hit) set(e, 0.2, base.latency);
            break;
          case 1:
            if (touches(e, flow.destination)) set(e, 0.2, base.latency);
            break;
          case 2:
            if (e == hit)
              set(e, 0.06 + 0.02 * static_cast<double>(k), base.latency);
            break;
          case 3:
            if (k == 0 && e == hit) set(e, 0.2, base.latency);
            if (k > 0 && isMiddle(e))
              set(e, base.lossRate, base.latency + util::milliseconds(100));
            break;
          case 4:
            if (e == hit) set(e, 0.2, base.latency);
            if (e == quiet && e != hit)
              set(e, 0.001 * static_cast<double>(k + 1), base.latency);
            break;
          default:
            if (std::find(fastest.begin(), fastest.end(), e) !=
                fastest.end())
              set(e, base.lossRate, base.latency * 4 / 5);
            break;
        }
      }
    }
    t += length + 3 + rng.uniformInt(std::uint64_t{40});
  }
  return result;
}

/// Drives a scheme the way the playback engine does, every interval.
class Decider {
 public:
  Decider(const trace::Trace& trace, const trace::ConditionIndex& index,
         std::size_t staleness)
      : trace_(&trace),
        index_(&index),
        cursor_(trace),
        baseline_(NetworkView::baseline(trace)),
        staleness_(staleness) {}

  bool baselineDecision(std::size_t t) const {
    return t < staleness_ || !trace_->hasDeviation(t - staleness_);
  }

  const graph::DisseminationGraph& decide(routing::RoutingScheme& scheme,
                                          std::size_t t) {
    if (baselineDecision(t)) return scheme.select(baseline_);
    cursor_.seek(t - staleness_);
    return scheme.select(
        NetworkView::borrowing(cursor_, index_->contentId(t - staleness_)));
  }

  const NetworkView& baseline() const { return baseline_; }

 private:
  const trace::Trace* trace_;
  const trace::ConditionIndex* index_;
  trace::ConditionTimeline cursor_;
  NetworkView baseline_;
  std::size_t staleness_;
};

bool adaptive(SchemeKind kind) {
  return kind == SchemeKind::DynamicSinglePath ||
         kind == SchemeKind::DynamicTwoDisjoint ||
         kind == SchemeKind::TargetedRedundancy;
}

class BoundedReplay
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {
 protected:
  BoundedReplay()
      : topology_(trace::Topology::ltn12()),
        flow_{topology_.at("NYC"), topology_.at("SJC")} {}

  std::unique_ptr<routing::RoutingScheme> fresh(
      SchemeKind kind, const SchemeParams& params, routing::DecisionMemo* memo,
      const NetworkView& baseline) const {
    auto scheme = routing::makeScheme(kind, topology_.graph(), flow_, params);
    if (memo != nullptr)
      scheme->setDecisionMemo(memo, memo->contextKey(kind, flow_, params));
    scheme->initialize(baseline);
    return scheme;
  }

  /// Checks one context: every kind, bounded vs oracle at `stops` (as one
  /// multi-stop replay and as single-stop replays), then 500 follow-ups.
  /// Appends the work of the adaptive kinds' single-stop replays in the
  /// last third of the trace to `lateWork` (nullable).
  void check(const trace::Trace& trace, const SchemeParams& params,
             const std::set<std::size_t>& stopSet, const char* label,
             std::vector<std::pair<std::size_t, DecisionReplay::Work>>*
                 lateWork) {
    const auto [staleness, withMemo] = GetParam();
    const trace::ConditionIndex index(trace);
    const std::vector<std::size_t> stops(stopSet.begin(), stopSet.end());
    for (const SchemeKind kind : routing::allSchemeKinds()) {
      // The uninterrupted run: every decision, no jumps.
      routing::DecisionMemo followMemo;
      Decider decider(trace, index, staleness);
      auto whole = fresh(kind, params, &followMemo, decider.baseline());
      std::vector<SchemeState> states;
      std::vector<std::vector<graph::EdgeId>> selected;
      for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
        states.push_back(whole->saveState());
        selected.push_back(decider.decide(*whole, t).edges());
      }
      states.push_back(whole->saveState());

      const std::vector<DecisionCheckpoint> oracle =
          fullPrefixReplay(topology_.graph(), trace, index, staleness, kind,
                           flow_, params, nullptr, stops);
      routing::DecisionMemo memo;
      const DecisionReplay replay(topology_.graph(), trace, index, staleness);
      const std::vector<DecisionCheckpoint> bounded = replay.run(
          kind, flow_, params, withMemo ? &memo : nullptr, stops);
      ASSERT_EQ(bounded.size(), stops.size());

      for (std::size_t i = 0; i < stops.size(); ++i) {
        const std::size_t stop = stops[i];
        const std::string where = std::string(label) + ", " +
                                  std::string(routing::schemeName(kind)) +
                                  ", staleness " + std::to_string(staleness) +
                                  (withMemo ? ", memo" : "") + ", stop " +
                                  std::to_string(stop);
        // The oracle agrees with the uninterrupted run...
        ASSERT_TRUE(oracle[i].state == states[stop]) << where;
        ASSERT_EQ(oracle[i].lastEdges, selected[stop - 1]) << where;
        // ...and the bounded replay with the oracle, field by field.
        const SchemeState& got = bounded[i].state;
        const SchemeState& want = oracle[i].state;
        EXPECT_EQ(got.edges, want.edges) << where;
        EXPECT_EQ(got.weights, want.weights) << where;
        EXPECT_EQ(got.lastFingerprint, want.lastFingerprint) << where;
        EXPECT_TRUE(got.lastProblem == want.lastProblem) << where;
        EXPECT_EQ(got.sourceHold, want.sourceHold) << where;
        EXPECT_EQ(got.destinationHold, want.destinationHold) << where;
        EXPECT_EQ(got.steadyOnBaseline, want.steadyOnBaseline) << where;
        ASSERT_EQ(bounded[i].lastEdges, oracle[i].lastEdges) << where;

        // A single-stop replay scans down to interval 0 instead of the
        // previous stop, and must agree too.
        const DecisionReplay single(topology_.graph(), trace, index,
                                    staleness);
        const std::vector<std::size_t> one{stop};
        const std::vector<DecisionCheckpoint> alone =
            single.run(kind, flow_, params, withMemo ? &memo : nullptr, one);
        ASSERT_TRUE(alone[0].state == want) << where << " (single stop)";
        ASSERT_EQ(alone[0].lastEdges, oracle[i].lastEdges)
            << where << " (single stop)";
        if (lateWork != nullptr && adaptive(kind) &&
            stop >= trace.intervalCount() * 2 / 3) {
          lateWork->push_back({stop, single.work()});
        }

        // 500 follow-up decisions from the restored state.
        Decider resumed(trace, index, staleness);
        auto scheme = fresh(kind, params, &followMemo, resumed.baseline());
        scheme->restoreState(got);
        const std::size_t end =
            std::min(stop + kFollow, trace.intervalCount());
        for (std::size_t t = stop; t < end; ++t) {
          ASSERT_EQ(resumed.decide(*scheme, t).edges(), selected[t])
              << where << ", interval " << t;
        }
        EXPECT_TRUE(scheme->saveState() == states[end]) << where;
      }
    }
  }

  /// 50 seeded stops, stop 1, and the stops around every situation the
  /// bounded replay distinguishes, found on an uninterrupted targeted run
  /// with default params.
  std::set<std::size_t> stopsFor(const EpisodeTrace& episodes) {
    const trace::Trace& trace = episodes.trace;
    const SchemeParams params;
    const std::size_t staleness = std::get<0>(GetParam());
    const trace::ConditionIndex index(trace);
    std::set<std::size_t> stops{1};
    util::Rng rng(staleness + 11);
    while (stops.size() < 51)
      stops.insert(1 + rng.uniformInt(trace.intervalCount() - 1));
    // Around the first three episodes of each type: right after its first
    // decision, right after its last, and as its holds drain.
    std::vector<std::size_t> seen(6);
    for (const Episode& e : episodes.episodes) {
      if (seen[e.type]++ >= 3) continue;
      const std::size_t first = e.start + staleness;
      const std::size_t last = first + e.length - 1;
      stops.insert({first + 1, last + 1, last + 2, last + 4});
    }

    Decider decider(trace, index, staleness);
    auto targeted = fresh(SchemeKind::TargetedRedundancy, params, nullptr,
                          decider.baseline());
    std::vector<SchemeState> states;
    for (std::size_t t = 0; t < trace.intervalCount(); ++t) {
      states.push_back(targeted->saveState());
      decider.decide(*targeted, t);
    }
    states.push_back(targeted->saveState());
    const auto deviating = [&](std::size_t t) {
      return !decider.baselineDecision(t);
    };
    std::size_t inRun = 0, afterRun = 0, draining = 0, replanned = 0,
                noRoute = 0, equalWeights = 0;
    // Up to 8 stops of each kind, spread over the trace.
    const auto take = [&stops](std::size_t& count, std::size_t stop) {
      if (count++ % 3 == 0 && count < 24) stops.insert(stop);
    };
    for (std::size_t s = 3; s + 3 < states.size(); ++s) {
      const SchemeState& state = states[s];
      const SchemeState& before = states[s - 1];
      // Decisions s - 2 and s - 1 both see deviations.
      if (deviating(s - 2) && deviating(s - 1)) take(inRun, s);
      // Decision s - 1 is the first clean one after a run.
      if (deviating(s - 2) && !deviating(s - 1)) take(afterRun, s);
      // A hold-down still draining at the stop.
      const int hold = std::max(state.sourceHold, state.destinationHold);
      if (hold > 0 && hold < params.holdDownIntervals) take(draining, s);
      if (state.weights != before.weights) {
        if (state.edges != before.edges) {
          take(replanned, s);
          take(replanned, s + 1);
        } else {
          // New weights, same fallback: a re-plan that found no route
          // (or the same one), and the decisions right after it.
          take(noRoute, s);
          take(noRoute, s + 2);
        }
      } else if (!state.weights.empty() && deviating(s - 1) &&
                 state.lastProblem.middle && !state.lastProblem.source &&
                 !state.lastProblem.destination) {
        // A middle-only decision whose weights equal the previous one's.
        take(equalWeights, s);
        take(equalWeights, s + 3);
      }
    }
    EXPECT_GT(inRun, 0u);
    EXPECT_GT(afterRun, 0u);
    EXPECT_GT(draining, 0u);
    EXPECT_GT(replanned, 0u);
    EXPECT_GT(noRoute, 0u);
    EXPECT_GT(equalWeights, 0u);
    return stops;
  }

  trace::Topology topology_;
  routing::Flow flow_;
};

TEST_P(BoundedReplay, CheckpointsMatchTheFullPrefixWalk) {
  const SchemeParams params;
  const EpisodeTrace episodes = episodeTrace(topology_.graph(), flow_, false);
  const trace::Trace& trace = episodes.trace;
  std::vector<std::pair<std::size_t, DecisionReplay::Work>> late;
  check(trace, params, stopsFor(episodes), "bounded", &late);

  // No adaptive kind walks from interval 0 here: a late single-stop
  // replay covers a few episodes at most.
  ASSERT_FALSE(late.empty());
  for (const auto& [stop, work] : late) {
    EXPECT_LT(work.intervals, 400u) << "stop " << stop;
    EXPECT_LT(work.decisions, 200u) << "stop " << stop;
  }
}

TEST_P(BoundedReplay, NoTimelyBaselineRouteWalksFromIntervalZero) {
  // A deadline just under the baseline's fastest route: initialize()
  // leaves the dynamic kinds an empty graph, the 20%-faster episodes
  // offer a route, and baseline decisions afterwards keep it.
  SchemeParams params;
  util::SimTime fastest = 0;
  for (const graph::EdgeId e : shortestRoute(topology_.graph(), flow_))
    fastest += topology_.graph().edge(e).latency;
  params.deadline = fastest - util::milliseconds(1);
  const EpisodeTrace episodes = episodeTrace(topology_.graph(), flow_, false);
  const trace::Trace& trace = episodes.trace;
  check(trace, params, stopsFor(episodes), "no baseline route",
        nullptr);

  const trace::ConditionIndex index(trace);
  const std::size_t stop = kIntervals - 7;
  for (const SchemeKind kind :
       {SchemeKind::DynamicSinglePath, SchemeKind::DynamicTwoDisjoint}) {
    const DecisionReplay replay(topology_.graph(), trace, index,
                                std::get<0>(GetParam()));
    const std::vector<std::size_t> stops{stop};
    const DecisionCheckpoint kept =
        replay.run(kind, flow_, params, nullptr, stops)[0];
    EXPECT_FALSE(kept.state.edges.empty()) << routing::schemeName(kind);
    EXPECT_EQ(replay.work().intervals, stop) << routing::schemeName(kind);
  }
}

TEST_P(BoundedReplay, ProblemBaselineWalksFromIntervalZero) {
  const SchemeParams params;
  const EpisodeTrace episodes = episodeTrace(topology_.graph(), flow_, true);
  const trace::Trace& trace = episodes.trace;
  check(trace, params, stopsFor(episodes), "problem baseline", nullptr);

  const trace::ConditionIndex index(trace);
  const DecisionReplay replay(topology_.graph(), trace, index,
                              std::get<0>(GetParam()));
  const std::vector<std::size_t> stops{kIntervals - 7};
  replay.run(SchemeKind::TargetedRedundancy, flow_, params, nullptr, stops);
  EXPECT_EQ(replay.work().intervals, kIntervals - 7);
}

INSTANTIATE_TEST_SUITE_P(
    StalenessAndMemo, BoundedReplay,
    ::testing::Combine(::testing::Values(0u, 1u, 2u), ::testing::Bool()));

}  // namespace
}  // namespace dg::playback
