// Decision timelines against the full-prefix walk.
//
// DecisionReplay::run decides a context over windows, starting each from
// the context's last history-free decision instead of interval 0. The
// frozen oracle below is the full-prefix walk: every decision of a scheme
// walked from interval 0, one select() per interval. For every scheme
// kind, staleness 0-2 and decision memo on and off, the whole-window
// timeline, a timeline stitched from chunks split at every stop, and
// single-window timelines started at every stop (each covering 500
// further decisions) must all select and classify as the oracle does --
// at 50 seeded stops plus stops placed at each situation the bounded
// start has to get right.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
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

using routing::NetworkView;
using routing::SchemeKind;
using routing::SchemeParams;
using routing::SchemeState;

constexpr std::size_t kIntervals = 1800;
constexpr std::size_t kFollow = 500;

/// One decision of the oracle: the selection and the classification
/// mask (DecisionTimeline::Span::problem).
struct Decided {
  std::vector<graph::EdgeId> edges;
  std::uint8_t problem = DecisionTimeline::kUnclassified;
};

std::uint8_t maskOf(const std::optional<routing::FlowProblem>& p) {
  if (!p) return DecisionTimeline::kUnclassified;
  return static_cast<std::uint8_t>((p->source ? 1 : 0) |
                                   (p->destination ? 2 : 0) |
                                   (p->middle ? 4 : 0));
}

/// Expects `timeline` to decide [first, last) as the oracle did.
void expectFollows(const DecisionTimeline& timeline,
                   const std::vector<Decided>& oracle, std::size_t first,
                   std::size_t last, const std::string& where) {
  for (std::size_t t = first; t < last; ++t) {
    const DecisionTimeline::Span& span = timeline.spans[timeline.spanAt(t)];
    ASSERT_EQ(timeline.lists[span.list], oracle[t].edges)
        << where << ", interval " << t;
    ASSERT_EQ(span.problem, oracle[t].problem)
        << where << ", interval " << t;
  }
}

/// Equal spans, and equal selections behind their list ids.
bool sameTimeline(const DecisionTimeline& a, const DecisionTimeline& b) {
  if (a.spans.size() != b.spans.size()) return false;
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const DecisionTimeline::Span& x = a.spans[i];
    const DecisionTimeline::Span& y = b.spans[i];
    if (x.first != y.first || x.last != y.last || x.problem != y.problem ||
        a.lists[x.list] != b.lists[y.list])
      return false;
  }
  return true;
}

/// Concatenates the parts of chunk timelines inside their chunks, merging
/// spans that continue across a chunk boundary.
DecisionTimeline stitch(const std::vector<DecisionTimeline>& chunks,
                        const std::vector<IntervalWindow>& windows) {
  DecisionTimeline out;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    for (const DecisionTimeline::Span& span : chunks[c].spans) {
      const std::size_t first = std::max(span.first, windows[c].first);
      const std::size_t last = std::min(span.last, windows[c].second);
      if (first >= last) continue;
      const std::vector<graph::EdgeId>& edges = chunks[c].lists[span.list];
      if (!out.spans.empty() && out.spans.back().last == first &&
          out.spans.back().problem == span.problem &&
          out.lists[out.spans.back().list] == edges) {
        out.spans.back().last = last;
        continue;
      }
      auto it = std::find(out.lists.begin(), out.lists.end(), edges);
      if (it == out.lists.end()) it = out.lists.insert(it, edges);
      out.spans.push_back(
          {first, last,
           static_cast<std::uint32_t>(it - out.lists.begin()),
           span.problem});
    }
  }
  return out;
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

  /// Checks one context for every kind: the whole-window timeline, the
  /// chunks split at `stops` stitched together, and a single window
  /// [stop, stop + 500) per stop against the oracle. For the adaptive
  /// kinds' stops in the last third of the trace, appends to `lateWork`
  /// (nullable) the work of replaying the window [stop, stop + 1) alone,
  /// less that window's one interval: the bounded start's.
  void check(const trace::Trace& trace, const SchemeParams& params,
             const std::set<std::size_t>& stopSet, const char* label,
             std::vector<std::pair<std::size_t, DecisionReplay::Work>>*
                 lateWork) {
    const auto [staleness, withMemo] = GetParam();
    const trace::ConditionIndex index(trace);
    const std::size_t n = trace.intervalCount();
    std::vector<IntervalWindow> chunks;
    std::size_t from = 0;
    for (const std::size_t stop : stopSet) {
      chunks.push_back({from, stop});
      from = stop;
    }
    chunks.push_back({from, n});
    routing::DecisionMemo memo;
    routing::DecisionMemo* const m = withMemo ? &memo : nullptr;
    for (const SchemeKind kind : routing::allSchemeKinds()) {
      const std::string where = std::string(label) + ", " +
                                std::string(routing::schemeName(kind)) +
                                ", staleness " + std::to_string(staleness) +
                                (withMemo ? ", memo" : "");
      memo.contextKey(kind, flow_, params);
      // The oracle: every decision from interval 0, no jumps.
      Decider decider(trace, index, staleness);
      auto whole = fresh(kind, params, nullptr, decider.baseline());
      std::vector<Decided> oracle;
      for (std::size_t t = 0; t < n; ++t) {
        const graph::DisseminationGraph& dg = decider.decide(*whole, t);
        oracle.push_back({dg.edges(), maskOf(whole->classification())});
      }

      const DecisionReplay replay(topology_.graph(), trace, index, staleness);
      const IntervalWindow all{0, n};
      const DecisionTimeline wholeWindow = replay.run(kind, flow_, params, m,
                                                      {&all, 1});
      expectFollows(wholeWindow, oracle, 0, n, where + ", whole window");

      std::vector<DecisionTimeline> chunked;
      for (const IntervalWindow& chunk : chunks) {
        chunked.push_back(replay.run(kind, flow_, params, m, {&chunk, 1}));
        // Each chunk also holds the selection in force when it starts.
        expectFollows(chunked.back(), oracle,
                      chunk.first > 0 ? chunk.first - 1 : 0, chunk.second,
                      where + ", chunk at " + std::to_string(chunk.first));
      }
      EXPECT_TRUE(sameTimeline(stitch(chunked, chunks), wholeWindow))
          << where << ", stitched chunks";

      for (const std::size_t stop : stopSet) {
        const std::size_t end = std::min(stop + kFollow, n);
        const IntervalWindow window{stop, end};
        const DecisionReplay single(topology_.graph(), trace, index,
                                    staleness);
        const DecisionTimeline alone =
            single.run(kind, flow_, params, m, {&window, 1});
        expectFollows(alone, oracle, stop - 1, end,
                      where + ", window at " + std::to_string(stop));
        if (lateWork != nullptr && adaptive(kind) && stop >= n * 2 / 3) {
          // The window's own decision is left in: it may share one
          // select() with the decisions before it.
          const DecisionReplay prefix(topology_.graph(), trace, index,
                                      staleness);
          const IntervalWindow one{stop, stop + 1};
          prefix.run(kind, flow_, params, m, {&one, 1});
          DecisionReplay::Work work = prefix.work();
          work.intervals -= 1;
          lateWork->push_back({stop, work});
        }
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

  // No adaptive kind walks from interval 0 here: a late window starts
  // from a few episodes back at most.
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
  const IntervalWindow window{stop, stop + 1};
  for (const SchemeKind kind :
       {SchemeKind::DynamicSinglePath, SchemeKind::DynamicTwoDisjoint}) {
    const DecisionReplay replay(topology_.graph(), trace, index,
                                std::get<0>(GetParam()));
    const DecisionTimeline kept =
        replay.run(kind, flow_, params, nullptr, {&window, 1});
    EXPECT_FALSE(kept.selectionAt(stop - 1).empty())
        << routing::schemeName(kind);
    EXPECT_EQ(replay.work().intervals, stop + 1) << routing::schemeName(kind);
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
  const IntervalWindow window{kIntervals - 7, kIntervals - 6};
  replay.run(SchemeKind::TargetedRedundancy, flow_, params, nullptr,
             {&window, 1});
  EXPECT_EQ(replay.work().intervals, kIntervals - 6);
}

TEST(DecisionReplayMemo, ReplaysOnlyContextsAlreadyInterned) {
  // A replay never adds a context to the memo it is given, so replays
  // that share one memo cannot race on its context list.
  const trace::Topology topology = trace::Topology::ltn12();
  const routing::Flow flow{topology.at("NYC"), topology.at("SJC")};
  const trace::Trace trace(util::seconds(10), 20,
                           trace::healthyBaseline(topology.graph(), 1e-4));
  const trace::ConditionIndex index(trace);
  const DecisionReplay replay(topology.graph(), trace, index, 1);
  const SchemeParams params;
  const IntervalWindow window{0, 20};
  routing::DecisionMemo memo;
  EXPECT_THROW(replay.run(SchemeKind::DynamicTwoDisjoint, flow, params, &memo,
                          {&window, 1}),
               std::invalid_argument);
  EXPECT_EQ(memo.stats().contexts, 0u);
  memo.contextKey(SchemeKind::DynamicTwoDisjoint, flow, params);
  EXPECT_EQ(replay
                .run(SchemeKind::DynamicTwoDisjoint, flow, params, &memo,
                     {&window, 1})
                .spans.size(),
            1u);
  EXPECT_EQ(memo.stats().contexts, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    StalenessAndMemo, BoundedReplay,
    ::testing::Combine(::testing::Values(0u, 1u, 2u), ::testing::Bool()));

}  // namespace
}  // namespace dg::playback
