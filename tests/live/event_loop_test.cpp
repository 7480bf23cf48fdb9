// EventLoop: timer ordering, cancellation, fd dispatch and the
// wakeup/timer counters. Real time is involved (the loop reads the
// wall-clock shim), so assertions use generous bounds -- ordering and
// counts, never exact durations.
#include "live/event_loop.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace dg {
namespace {

TEST(EventLoop, NowIsMonotonicFromZero) {
  live::EventLoop loop;
  const util::SimTime a = loop.now();
  const util::SimTime b = loop.now();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(EventLoop, TimersFireInDueOrder) {
  live::EventLoop loop;
  std::vector<int> order;
  loop.scheduleAfter(util::milliseconds(30), [&] { order.push_back(3); });
  loop.scheduleAfter(util::milliseconds(10), [&] { order.push_back(1); });
  loop.scheduleAfter(util::milliseconds(20), [&] {
    order.push_back(2);
  });
  loop.runUntil(loop.now() + util::milliseconds(120));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.timersFired(), 3u);
}

TEST(EventLoop, EqualDueTimersFireInScheduleOrder) {
  live::EventLoop loop;
  std::vector<int> order;
  const util::SimTime due = loop.now() + util::milliseconds(10);
  loop.scheduleAt(due, [&] { order.push_back(1); });
  loop.scheduleAt(due, [&] { order.push_back(2); });
  loop.scheduleAt(due, [&] { order.push_back(3); });
  loop.runUntil(due + util::milliseconds(60));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, CancelledTimerNeverFires) {
  live::EventLoop loop;
  int fired = 0;
  const live::TimerId id =
      loop.scheduleAfter(util::milliseconds(10), [&] { ++fired; });
  loop.scheduleAfter(util::milliseconds(20), [&] { loop.stop(); });
  loop.cancelTimer(id);
  loop.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(loop.timersFired(), 1u);  // only the stop timer
}

TEST(EventLoop, TimerBeyondOneWheelTurnFires) {
  // 512 slots x 1 ms = one turn; a 600 ms timer wraps the wheel and must
  // not fire a turn early.
  live::EventLoop loop;
  util::SimTime firedAt = -1;
  const util::SimTime start = loop.now();
  loop.scheduleAfter(util::milliseconds(600), [&] {
    firedAt = loop.now();
    loop.stop();
  });
  loop.run();
  ASSERT_GE(firedAt, 0);
  EXPECT_GE(firedAt - start, util::milliseconds(600));
}

TEST(EventLoop, FdHandlerDispatchesAndSelfRemovalIsSafe) {
  live::EventLoop loop;
  int fds[2] = {-1, -1};
  ASSERT_EQ(pipe(fds), 0);
  int reads = 0;
  loop.addFd(fds[0], [&] {
    char buffer[16];
    (void)read(fds[0], buffer, sizeof(buffer));
    ++reads;
    // Removing the fd from inside its own handler must not invalidate
    // the running callback.
    loop.removeFd(fds[0]);
    loop.stop();
  });
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  loop.run();
  EXPECT_EQ(reads, 1);
  EXPECT_GE(loop.wakeups(), 1u);
  close(fds[0]);
  close(fds[1]);
}

TEST(EventLoop, RunUntilReturnsWithoutTimers) {
  live::EventLoop loop;
  const util::SimTime start = loop.now();
  loop.runUntil(start + util::milliseconds(20));
  EXPECT_GE(loop.now() - start, util::milliseconds(20));
}

TEST(EventLoop, HandlerSchedulingFromTimerRuns) {
  live::EventLoop loop;
  int chained = 0;
  loop.scheduleAfter(util::milliseconds(5), [&] {
    loop.scheduleAfter(util::milliseconds(5), [&] {
      ++chained;
      loop.stop();
    });
  });
  loop.run();
  EXPECT_EQ(chained, 1);
}

TEST(EventLoop, StopInsideASweepKeepsTheRestOfItsBatchPending) {
  live::EventLoop loop;
  std::vector<int> order;
  const util::SimTime due = loop.now() + util::milliseconds(5);
  loop.scheduleAt(due, [&] {
    order.push_back(1);
    loop.stop();
  });
  loop.scheduleAt(due, [&] { order.push_back(2); });
  loop.scheduleAt(due, [&] { order.push_back(3); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(loop.pendingTimers(), 2u);

  // The next run fires the two that were already due, before anything
  // scheduled later.
  loop.scheduleAfter(util::milliseconds(5), [&] {
    order.push_back(4);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(loop.pendingTimers(), 0u);
}

TEST(EventLoop, CancellingAFiredTimerIsANoOp) {
  live::EventLoop loop;
  int fired = 0;
  const live::TimerId first = loop.scheduleAfter(util::milliseconds(1), [&] {
    ++fired;
    loop.stop();
  });
  loop.run();
  ASSERT_EQ(fired, 1);
  // The next timer may reuse the first one's handler slot; cancelling the
  // spent id must neither count as pending nor cancel the new timer.
  loop.scheduleAfter(util::milliseconds(1), [&] {
    ++fired;
    loop.stop();
  });
  loop.cancelTimer(first);
  loop.cancelTimer(first);
  EXPECT_EQ(loop.pendingTimers(), 1u);
  loop.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pendingTimers(), 0u);
}

TEST(EventLoop, ManyRandomTimersFireInDueThenIdOrder) {
  // 10,000 timers on 200 distinct due times, so many tie on due. A
  // seventh are cancelled up front, and some handlers cancel a timer that
  // has not fired yet.
  constexpr std::size_t kTimers = 10'000;
  live::EventLoop loop;
  util::Rng rng(21);
  struct Timer {
    util::SimTime due = 0;
    live::TimerId id = 0;
    bool cancelled = false;
    bool fired = false;
  };
  std::vector<Timer> timers(kTimers);
  std::vector<std::size_t> order;
  order.reserve(kTimers);
  // Far enough ahead that no due time is clamped to the loop's clock.
  const util::SimTime base = loop.now() + util::milliseconds(100);
  for (std::size_t i = 0; i < kTimers; ++i) {
    timers[i].due = base + rng.uniformInt(0, 199) * 100;
    timers[i].id = loop.scheduleAt(timers[i].due, [&, i] {
      timers[i].fired = true;
      order.push_back(i);
      const std::size_t victim = (i * 7919) % kTimers;
      if (i % 10 == 0 && !timers[victim].fired &&
          !timers[victim].cancelled) {
        timers[victim].cancelled = true;
        loop.cancelTimer(timers[victim].id);
      }
    });
  }
  for (std::size_t i = 0; i < kTimers; i += 7) {
    timers[i].cancelled = true;
    loop.cancelTimer(timers[i].id);
  }
  loop.runUntil(base + util::milliseconds(100));

  std::size_t expectFired = 0;
  for (const Timer& t : timers) {
    EXPECT_NE(t.fired, t.cancelled);
    if (!t.cancelled) ++expectFired;
  }
  ASSERT_EQ(order.size(), expectFired);
  EXPECT_EQ(loop.timersFired(), expectFired);
  EXPECT_EQ(loop.pendingTimers(), 0u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    const Timer& a = timers[order[k - 1]];
    const Timer& b = timers[order[k]];
    ASSERT_TRUE(a.due < b.due || (a.due == b.due && a.id < b.id))
        << "position " << k;
  }
}

}  // namespace
}  // namespace dg
