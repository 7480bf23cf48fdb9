// A decision timeline started mid-trace decides exactly as the
// uninterrupted scheme -- for every kind, with and without a decision
// memo, at several view stalenesses -- and the targeted scheme's
// middle-problem re-plan shares dynamic-two-disjoint's memo entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "playback/playback.hpp"
#include "routing/decision_memo.hpp"
#include "routing/scheme.hpp"
#include "trace/condition_timeline.hpp"
#include "trace/topology.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace dg::routing {
namespace {

constexpr std::size_t kIntervals = 1600;
constexpr std::size_t kFollow = 500;

/// A trace of short seeded episodes separated by clean gaps: problems
/// around the source, around the destination, on a middle link of the
/// baseline two-disjoint route (with the loss changing every interval, so
/// targeted re-plans each time, around the lossy link), and views where
/// every link out of the source is too slow for any timely route.
struct EpisodeTrace {
  trace::Trace trace;
  std::vector<std::size_t> noRouteIntervals;
};

EpisodeTrace episodeTrace(const graph::Graph& g, Flow flow) {
  EpisodeTrace out{trace::Trace(util::seconds(10), kIntervals,
                                trace::healthyBaseline(g, 1e-4)),
                   {}};
  const auto touches = [&](graph::EdgeId e, graph::NodeId node) {
    return g.edge(e).from == node || g.edge(e).to == node;
  };
  std::vector<graph::EdgeId> middle;
  {
    const trace::Trace healthy(util::seconds(10), 1,
                               trace::healthyBaseline(g, 1e-4));
    auto route = makeScheme(SchemeKind::StaticTwoDisjoint, g, flow, {});
    route->initialize(NetworkView::baseline(healthy));
    for (const graph::EdgeId e :
         route->select(NetworkView::baseline(healthy)).edges()) {
      if (!touches(e, flow.source) && !touches(e, flow.destination))
        middle.push_back(e);
    }
  }
  util::Rng rng(29);
  std::size_t t = 12;
  for (std::size_t episode = 0; t + 8 < kIntervals; ++episode) {
    const std::size_t length = 1 + rng.uniformInt(std::uint64_t{5});
    const graph::EdgeId hit =
        middle[rng.uniformInt(static_cast<std::uint64_t>(middle.size()))];
    for (std::size_t k = 0; k < length; ++k) {
      const std::size_t interval = t + k;
      for (graph::EdgeId e = 0; e < g.edgeCount(); ++e) {
        const trace::LinkConditions base = out.trace.baseline(e);
        switch (episode % 4) {
          case 0:
            if (touches(e, flow.source))
              out.trace.setCondition(e, interval, {0.2, base.latency});
            break;
          case 1:
            if (touches(e, flow.destination))
              out.trace.setCondition(e, interval, {0.2, base.latency});
            break;
          case 2:
            if (e == hit)
              out.trace.setCondition(
                  e, interval,
                  {0.06 + 0.02 * static_cast<double>(k), base.latency});
            break;
          default:
            if (touches(e, flow.source))
              out.trace.setCondition(
                  e, interval,
                  {1e-4, base.latency + util::milliseconds(100)});
            break;
        }
      }
      if (episode % 4 == 3) out.noRouteIntervals.push_back(interval);
    }
    t += length + 3 + rng.uniformInt(std::uint64_t{40});
  }
  return out;
}

/// Drives a scheme the way the playback engines do: the decision at t
/// sees interval t - staleness, through a fingerprinted cursor view, or
/// the baseline view while that interval is clean.
class Driver {
 public:
  Driver(const trace::Trace& trace, const trace::ConditionIndex& index,
         std::size_t staleness)
      : trace_(&trace),
        index_(&index),
        cursor_(trace),
        baseline_(NetworkView::baseline(trace)),
        staleness_(staleness) {}

  bool baselineDecision(std::size_t t) const {
    return t < staleness_ || !trace_->hasDeviation(t - staleness_);
  }

  const graph::DisseminationGraph& decide(RoutingScheme& scheme,
                                          std::size_t t) {
    if (baselineDecision(t)) return scheme.select(baseline_);
    cursor_.seek(t - staleness_);
    return scheme.select(NetworkView::borrowing(
        cursor_, index_->contentId(t - staleness_)));
  }

  const NetworkView& baseline() const { return baseline_; }

 private:
  const trace::Trace* trace_;
  const trace::ConditionIndex* index_;
  trace::ConditionTimeline cursor_;
  NetworkView baseline_;
  std::size_t staleness_;
};

class SchemeStateRoundTrip : public ::testing::TestWithParam<std::size_t> {
 protected:
  SchemeStateRoundTrip()
      : topology_(trace::Topology::ltn12()),
        flow_{topology_.at("NYC"), topology_.at("SJC")},
        episodes_(episodeTrace(topology_.graph(), flow_)),
        index_(episodes_.trace) {}

  std::unique_ptr<RoutingScheme> fresh(SchemeKind kind, DecisionMemo* memo,
                                       const NetworkView& baseline) const {
    auto scheme = makeScheme(kind, topology_.graph(), flow_, params_);
    if (memo != nullptr)
      scheme->setDecisionMemo(memo, memo->contextKey(kind, flow_, params_));
    scheme->initialize(baseline);
    return scheme;
  }

  trace::Topology topology_;
  Flow flow_;
  SchemeParams params_;
  EpisodeTrace episodes_;
  trace::ConditionIndex index_;
};

TEST_P(SchemeStateRoundTrip, RestoredSchemeSelectsLikeTheUninterruptedOne) {
  const std::size_t staleness = GetParam();
  const std::size_t lastStop = kIntervals - kFollow;

  // The stops every kind is checked at: seeded random ones plus one of
  // each situation the bounded start has to rebuild, located on an
  // uninterrupted targeted run.
  std::set<std::size_t> stops;
  util::Rng rng(staleness + 5);
  while (stops.size() < 50) stops.insert(1 + rng.uniformInt(lastStop));
  {
    Driver driver(episodes_.trace, index_, staleness);
    auto targeted =
        fresh(SchemeKind::TargetedRedundancy, nullptr, driver.baseline());
    std::vector<SchemeState> states;
    for (std::size_t t = 0; t <= lastStop; ++t) {
      states.push_back(targeted->saveState());
      driver.decide(*targeted, t);
    }
    std::size_t steady = 0, draining = 0, replanned = 0;
    for (std::size_t s = 2; s <= lastStop; ++s) {
      const SchemeState& state = states[s];
      if (steady == 0 && state.steadyOnBaseline &&
          driver.baselineDecision(s - 1) && driver.baselineDecision(s) &&
          s > 100)
        steady = s;
      const int hold = std::max(state.sourceHold, state.destinationHold);
      if (draining == 0 && hold > 0 && hold < params_.holdDownIntervals)
        draining = s;
      if (replanned == 0 && !state.weights.empty() &&
          state.weights != states[s - 1].weights)
        replanned = s;
    }
    ASSERT_NE(steady, 0u) << "no steady span";
    ASSERT_NE(draining, 0u) << "no draining hold-down";
    ASSERT_NE(replanned, 0u) << "no middle-problem re-plan";
    stops.insert({steady, draining, replanned});
    // A view with no timely route, and the decision right after it.
    const std::size_t noRoute = episodes_.noRouteIntervals.at(2) + staleness;
    ASSERT_LE(noRoute + 1, lastStop);
    stops.insert({noRoute, noRoute + 1});
  }

  const playback::DecisionReplay replay(topology_.graph(), episodes_.trace,
                                        index_, staleness);
  for (const SchemeKind kind : allSchemeKinds()) {
    for (const bool withMemo : {false, true}) {
      DecisionMemo memo;
      DecisionMemo* const m = withMemo ? &memo : nullptr;
      memo.contextKey(kind, flow_, params_);
      Driver driver(episodes_.trace, index_, staleness);
      auto whole = fresh(kind, nullptr, driver.baseline());
      std::vector<std::vector<graph::EdgeId>> selected;
      for (std::size_t t = 0; t < kIntervals; ++t)
        selected.push_back(driver.decide(*whole, t).edges());

      for (const std::size_t stop : stops) {
        // The timeline of a window that starts at the stop: its bounded
        // start rebuilds the state there, and the next kFollow decisions
        // follow from it.
        const playback::IntervalWindow window{stop, stop + kFollow};
        const playback::DecisionTimeline timeline =
            replay.run(kind, flow_, params_, m, {&window, 1});
        for (std::size_t t = stop - 1; t < stop + kFollow; ++t) {
          ASSERT_EQ(timeline.selectionAt(t), selected[t])
              << schemeName(kind) << (withMemo ? " with" : " without")
              << " memo, staleness " << staleness << ", stop " << stop
              << ", interval " << t;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Staleness, SchemeStateRoundTrip,
                         ::testing::Values(0u, 1u, 2u));

TEST(TargetedMemo, MiddleReplanSharesDynamicTwoDisjointDecisions) {
  const trace::Topology topology = trace::Topology::ltn12();
  const Flow flow{topology.at("NYC"), topology.at("SJC")};
  const EpisodeTrace episodes = episodeTrace(topology.graph(), flow);
  const trace::ConditionIndex index(episodes.trace);
  const SchemeParams params;

  const auto make = [&](SchemeKind kind, DecisionMemo* memo) {
    auto scheme = makeScheme(kind, topology.graph(), flow, params);
    if (memo != nullptr)
      scheme->setDecisionMemo(memo, memo->contextKey(kind, flow, params));
    scheme->initialize(NetworkView::baseline(episodes.trace));
    return scheme;
  };

  // Targeted selects identically with and without a memo; note the
  // intervals whose decision re-planned the middle-problem fallback.
  DecisionMemo memo;
  auto plain = make(SchemeKind::TargetedRedundancy, nullptr);
  auto memoized = make(SchemeKind::TargetedRedundancy, &memo);
  Driver plainDriver(episodes.trace, index, 1);
  Driver memoDriver(episodes.trace, index, 1);
  std::vector<std::size_t> replans;
  for (std::size_t t = 0; t < kIntervals; ++t) {
    const std::vector<util::SimTime> before = memoized->saveState().weights;
    ASSERT_EQ(memoDriver.decide(*memoized, t).edges(),
              plainDriver.decide(*plain, t).edges())
        << "interval " << t;
    if (memoized->saveState().weights != before) replans.push_back(t);
  }
  ASSERT_GT(replans.size(), 10u);

  // A second targeted run finds every re-plan in the memo and still
  // selects as the memo-less one.
  const DecisionMemo::Stats firstRun = memo.stats();
  auto warm = make(SchemeKind::TargetedRedundancy, &memo);
  auto cold = make(SchemeKind::TargetedRedundancy, nullptr);
  Driver warmDriver(episodes.trace, index, 1);
  Driver coldDriver(episodes.trace, index, 1);
  std::set<std::vector<graph::EdgeId>> fallbacks;
  for (std::size_t t = 0; t < kIntervals; ++t) {
    const std::vector<graph::EdgeId>& edges =
        warmDriver.decide(*warm, t).edges();
    ASSERT_EQ(edges, coldDriver.decide(*cold, t).edges()) << "interval " << t;
    fallbacks.insert(warm->saveState().edges);
  }
  const DecisionMemo::Stats afterTargeted = memo.stats();
  EXPECT_EQ(afterTargeted.decisionMisses, firstRun.decisionMisses);
  EXPECT_EQ(afterTargeted.decisionHits - firstRun.decisionHits,
            replans.size());
  EXPECT_GT(afterTargeted.decisions, 0u);
  // The re-plans really route around the lossy link.
  EXPECT_GT(fallbacks.size(), 2u);

  // Every stored re-plan is a hit for dynamic-two-disjoint on the same
  // view, and reproduces its recomputed selection.
  auto dynamic = make(SchemeKind::DynamicTwoDisjoint, &memo);
  auto recomputed = make(SchemeKind::DynamicTwoDisjoint, nullptr);
  trace::ConditionTimeline cursor(episodes.trace);
  for (const std::size_t t : replans) {
    cursor.seek(t - 1);
    const NetworkView view =
        NetworkView::borrowing(cursor, index.contentId(t - 1));
    EXPECT_EQ(dynamic->select(view).edges(), recomputed->select(view).edges())
        << "interval " << t;
  }
  const DecisionMemo::Stats afterDynamic = memo.stats();
  EXPECT_EQ(afterDynamic.decisionMisses, afterTargeted.decisionMisses);
  EXPECT_EQ(afterDynamic.decisionHits - afterTargeted.decisionHits,
            replans.size());
  EXPECT_EQ(afterDynamic.decisions, afterTargeted.decisions);
}

TEST(DecisionMemoLookup, FindDecisionCopiesOnlyRoutes) {
  DecisionMemo memo;
  const SchemeParams params;
  const std::uint64_t ctx =
      memo.contextKey(SchemeKind::DynamicSinglePath, Flow{0, 3}, params);
  const std::vector<graph::EdgeId> route = {1, 4, 7};
  const std::uint32_t id = memo.internEdgeList(ctx, route);
  memo.storeDecision(ctx, 5, id);
  memo.storeDecision(ctx, 6, DecisionMemo::kNoRoute);

  std::vector<graph::EdgeId> out = {9};
  EXPECT_FALSE(memo.findDecision(ctx, 4, out).has_value());
  EXPECT_EQ(out, std::vector<graph::EdgeId>{9});
  EXPECT_EQ(memo.findDecision(ctx, 6, out), DecisionMemo::kNoRoute);
  EXPECT_EQ(out, std::vector<graph::EdgeId>{9});
  EXPECT_EQ(memo.findDecision(ctx, 5, out), id);
  EXPECT_EQ(out, route);
  EXPECT_EQ(memo.stats().decisionHits, 2u);
  EXPECT_EQ(memo.stats().decisionMisses, 1u);
}

}  // namespace
}  // namespace dg::routing
