// Single-threaded epoll event loop with a timer heap.
//
// The live daemon is one thread around one epoll instance: readable file
// descriptors dispatch to registered callbacks, and deferred work runs
// off a binary min-heap of timers ordered by (due, id). A heap entry is
// plain data; its handler lives in a slot table with a free list, so a
// wakeup neither scans the pending timers nor allocates. All timestamps
// the loop hands out are SimTime-shaped microseconds relative to the
// loop's construction, derived from util::nowMicros() -- the only raw
// clock read, so dglint R1 stays confined to the wall-clock shim.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "util/sim_time.hpp"

namespace dg::live {

using TimerId = std::uint64_t;

class EventLoop {
 public:
  using FdHandler = std::function<void()>;
  using TimerHandler = std::function<void()>;

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Microseconds since this loop was constructed (monotonic).
  util::SimTime now() const;

  /// Registers a readable-fd callback. The fd must stay valid until
  /// removeFd(); the loop does not own it.
  void addFd(int fd, FdHandler onReadable);
  /// Safe from inside any handler, the fd's own included.
  void removeFd(int fd);

  /// Schedules `fn` to run once at loop-time `due` (clamped to now).
  /// Returns an id usable with cancelTimer(). Timers fire in (due, id)
  /// order; one scheduled while timers fire waits for the next sweep.
  TimerId scheduleAt(util::SimTime due, TimerHandler fn);
  TimerId scheduleAfter(util::SimTime delay, TimerHandler fn);
  /// A no-op for an id that already fired or was cancelled.
  void cancelTimer(TimerId id);

  /// Runs until stop() is called from a handler. Timers that were due
  /// when stop() was called stay pending for the next run.
  void run();
  /// Runs until loop-time `deadline` (handlers may still call stop()).
  void runUntil(util::SimTime deadline);
  void stop() { stopped_ = true; }

  std::uint64_t wakeups() const { return wakeups_; }
  std::uint64_t timersFired() const { return timersFired_; }
  /// Timers scheduled and neither fired nor cancelled.
  std::size_t pendingTimers() const { return pendingTimers_; }

 private:
  /// A heap entry. A cancelled timer's entry stays until it reaches the
  /// top; its id then no longer matches its slot's.
  struct TimerEntry {
    util::SimTime due = 0;
    TimerId id = 0;
    std::uint32_t slot = 0;
  };
  /// Where a pending timer's handler lives. A handler runs in place, so
  /// slots sit in fixed-size chunks that never move.
  struct TimerSlot {
    TimerHandler fn;
    TimerId id = 0;  ///< 0: free, firing or cancelled
    std::uint32_t nextFree = 0;
  };
  struct FdSlot {
    int fd = -1;  ///< -1: free
    /// Bumped on removal, so an event already returned by epoll for the
    /// old registration is not dispatched to a new one.
    std::uint32_t generation = 0;
    FdHandler fn;
  };

  /// A timer id carries its slot in the low bits; the serial above them
  /// keeps ids in scheduling order.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::size_t kSlotChunk = 256;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;
  static constexpr std::size_t kNotDispatching = SIZE_MAX;

  TimerSlot& slot(std::uint32_t index) {
    return slotChunks_[index / kSlotChunk][index % kSlotChunk];
  }
  void growSlots();
  void growHeap();
  void popTimer();
  /// Earliest pending due time, or -1 when no timers are pending.
  util::SimTime nextDue();
  void fireDueTimers(util::SimTime upTo);
  void pollOnce(util::SimTime deadline);

  int epollFd_ = -1;
  std::int64_t epochMicros_ = 0;
  /// Stable elements: a handler may add an fd while it runs.
  std::deque<FdSlot> fdSlots_;
  std::size_t dispatching_ = kNotDispatching;
  /// heap_[0, heapSize_) is a min-heap on (due, id); heap_ only grows.
  std::vector<TimerEntry> heap_;
  std::size_t heapSize_ = 0;
  std::vector<std::unique_ptr<TimerSlot[]>> slotChunks_;
  std::uint32_t freeSlot_ = kNoSlot;
  std::uint64_t nextSerial_ = 1;
  std::size_t pendingTimers_ = 0;
  bool stopped_ = false;
  std::uint64_t wakeups_ = 0;
  std::uint64_t timersFired_ = 0;
};

}  // namespace dg::live
