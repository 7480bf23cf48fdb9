#include "telemetry/trace_log.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dg::telemetry {
namespace {

TraceEvent at(util::SimTime time, TraceEventKind kind = TraceEventKind::PacketDrop) {
  TraceEvent event;
  event.time = time;
  event.kind = kind;
  return event;
}

TEST(TraceLog, RecordsOldestFirst) {
  TraceLog log(8);
  log.record(util::seconds(1), TraceEventKind::NackSent, 0, 3, 2, 4.0);
  log.record(util::seconds(2), TraceEventKind::Retransmission, 0, 5, 2, 7.0);
  ASSERT_EQ(log.size(), 2u);
  const auto events = log.events();
  EXPECT_EQ(events[0].time, util::seconds(1));
  EXPECT_EQ(events[0].kind, TraceEventKind::NackSent);
  EXPECT_EQ(events[0].node, 3);
  EXPECT_DOUBLE_EQ(events[0].value, 4.0);
  EXPECT_EQ(events[1].kind, TraceEventKind::Retransmission);
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceLog, OverflowOverwritesOldestAndAccountsDrops) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) log.record(at(util::seconds(i)));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].time,
              util::seconds(6 + i));
  }
}

TEST(TraceLog, EventsOfKindFilters) {
  TraceLog log(16);
  log.record(at(1, TraceEventKind::PacketDrop));
  log.record(at(2, TraceEventKind::GraphSwitch));
  log.record(at(3, TraceEventKind::PacketDrop));
  EXPECT_EQ(log.eventsOfKind(TraceEventKind::PacketDrop).size(), 2u);
  EXPECT_EQ(log.eventsOfKind(TraceEventKind::GraphSwitch).size(), 1u);
  EXPECT_TRUE(log.eventsOfKind(TraceEventKind::NackSent).empty());
}

TEST(TraceLog, MergeUnionsAndSortsByTime) {
  TraceLog a(16);
  TraceLog b(16);
  a.record(at(1));
  a.record(at(5, TraceEventKind::GraphSwitch));
  b.record(at(3, TraceEventKind::NackSent));
  a.merge(b);
  ASSERT_EQ(a.size(), 3u);
  const auto events = a.events();
  EXPECT_EQ(events[0].time, 1);
  EXPECT_EQ(events[1].time, 3);
  EXPECT_EQ(events[1].kind, TraceEventKind::NackSent);
  EXPECT_EQ(events[2].time, 5);
  EXPECT_EQ(a.recorded(), 3u);
}

// Splitting the same event stream over per-worker logs and merging in a
// fixed order reproduces the single-log contents (the thread-count
// determinism argument for trace exports).
TEST(TraceLog, PartitionedMergeMatchesSingleLog) {
  TraceLog reference(64);
  for (int i = 0; i < 40; ++i) reference.record(at(util::seconds(i)));

  for (const int workers : {1, 2, 3, 5}) {
    std::vector<TraceLog> parts(static_cast<std::size_t>(workers),
                                TraceLog(64));
    for (int i = 0; i < 40; ++i) {
      parts[static_cast<std::size_t>(i % workers)].record(
          at(util::seconds(i)));
    }
    TraceLog merged(64);
    for (const TraceLog& part : parts) merged.merge(part);
    ASSERT_EQ(merged.size(), reference.size()) << "workers=" << workers;
    const auto expected = reference.events();
    const auto actual = merged.events();
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].time, expected[i].time) << "workers=" << workers;
    }
  }
}

TEST(TraceLog, MergeRespectsCapacityOfTarget) {
  TraceLog small(4);
  TraceLog big(16);
  for (int i = 0; i < 10; ++i) big.record(at(util::seconds(i)));
  small.merge(big);
  EXPECT_EQ(small.size(), 4u);
  // The four newest survive.
  EXPECT_EQ(small.events().front().time, util::seconds(6));
  EXPECT_EQ(small.events().back().time, util::seconds(9));
}

// Merging several logs at once leaves what merging them one by one in
// the same order leaves -- events, their order among equal times, and
// the drop accounting -- also when the target, or a part, overflows.
TEST(TraceLog, MergingManyAtOnceMatchesMergingOneByOne) {
  for (const std::size_t capacity : {std::size_t{6}, std::size_t{64}}) {
    std::vector<TraceLog> parts(5, TraceLog(8));
    for (int i = 0; i < 30; ++i) {
      // Colliding times across parts; the node tells events apart.
      TraceEvent event = at(util::seconds((i * 7) % 11));
      event.node = i;
      parts[static_cast<std::size_t>(i % 5)].record(event);
    }
    TraceLog oneByOne(capacity);
    TraceLog atOnce(capacity);
    oneByOne.record(at(util::seconds(4)));
    atOnce.record(at(util::seconds(4)));
    std::vector<const TraceLog*> pointers;
    for (const TraceLog& part : parts) {
      oneByOne.merge(part);
      pointers.push_back(&part);
    }
    atOnce.merge(pointers);
    EXPECT_EQ(atOnce.recorded(), oneByOne.recorded()) << capacity;
    EXPECT_EQ(atOnce.dropped(), oneByOne.dropped()) << capacity;
    const auto expected = oneByOne.events();
    const auto actual = atOnce.events();
    ASSERT_EQ(actual.size(), expected.size()) << capacity;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].time, expected[i].time) << capacity << " " << i;
      EXPECT_EQ(actual[i].node, expected[i].node) << capacity << " " << i;
    }
  }
}

TEST(TraceLog, KindNamesAreKebabCase) {
  EXPECT_EQ(traceEventKindName(TraceEventKind::PacketDrop), "packet-drop");
  EXPECT_EQ(traceEventKindName(TraceEventKind::GraphSwitch), "graph-switch");
  EXPECT_EQ(traceEventKindName(TraceEventKind::ProblemClassified),
            "problem-classified");
}

}  // namespace
}  // namespace dg::telemetry
