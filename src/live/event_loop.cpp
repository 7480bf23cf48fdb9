#include "live/event_loop.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "util/wall_clock.hpp"

namespace dg::live {

EventLoop::EventLoop() : epochMicros_(util::nowMicros()) {
  epollFd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epollFd_ < 0)
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
}

EventLoop::~EventLoop() {
  if (epollFd_ >= 0) close(epollFd_);
}

util::SimTime EventLoop::now() const {
  return util::nowMicros() - epochMicros_;
}

void EventLoop::addFd(int fd, FdHandler onReadable) {
  // The slot of the handler running now keeps that handler alive until
  // it returns, even when it removed its own fd.
  std::size_t index = 0;
  while (index < fdSlots_.size() &&
         (fdSlots_[index].fd >= 0 || index == dispatching_))
    ++index;
  if (index == fdSlots_.size()) fdSlots_.emplace_back();
  FdSlot& slot = fdSlots_[index];
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = (std::uint64_t{slot.generation} << 32) | index;
  if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &event) != 0)
    throw std::system_error(errno, std::generic_category(), "epoll_ctl(add)");
  slot.fd = fd;
  slot.fn = std::move(onReadable);
}

void EventLoop::removeFd(int fd) {
  for (FdSlot& slot : fdSlots_) {
    if (slot.fd != fd) continue;
    epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    slot.fd = -1;
    ++slot.generation;
    return;  // the handler goes when the slot is reused: it may be running
  }
}

namespace {

/// Heap order: the entry that fires later sinks.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.due != b.due ? a.due > b.due : a.id > b.id;
};

}  // namespace

TimerId EventLoop::scheduleAt(util::SimTime due, TimerHandler fn) {
  if (freeSlot_ == kNoSlot) growSlots();
  const std::uint32_t index = freeSlot_;
  TimerSlot& timer = slot(index);
  freeSlot_ = timer.nextFree;
  const TimerId id = (nextSerial_++ << kSlotBits) | index;
  timer.fn = std::move(fn);
  timer.id = id;
  if (heapSize_ == heap_.size()) growHeap();
  heap_[heapSize_++] = TimerEntry{std::max(due, now()), id, index};
  std::push_heap(heap_.begin(),
                 heap_.begin() + static_cast<std::ptrdiff_t>(heapSize_),
                 kLater);
  ++pendingTimers_;
  return id;
}

TimerId EventLoop::scheduleAfter(util::SimTime delay, TimerHandler fn) {
  return scheduleAt(now() + std::max<util::SimTime>(delay, 0), std::move(fn));
}

void EventLoop::cancelTimer(TimerId id) {
  const auto index =
      static_cast<std::uint32_t>(id & ((TimerId{1} << kSlotBits) - 1));
  if (id == 0 || index >= slotChunks_.size() * kSlotChunk) return;
  TimerSlot& timer = slot(index);
  if (timer.id != id) return;  // already fired, firing or cancelled
  timer.id = 0;
  timer.fn = nullptr;
  timer.nextFree = freeSlot_;
  freeSlot_ = index;
  --pendingTimers_;
}

// dgcheck: cold: adds a chunk of handler slots; the table only grows to the peak number of pending timers
void EventLoop::growSlots() {
  const std::size_t first = slotChunks_.size() * kSlotChunk;
  if (first + kSlotChunk > (std::size_t{1} << kSlotBits))
    throw std::length_error("EventLoop: too many pending timers");
  slotChunks_.push_back(std::make_unique<TimerSlot[]>(kSlotChunk));
  TimerSlot* chunk = slotChunks_.back().get();
  for (std::size_t i = 0; i < kSlotChunk; ++i) {
    chunk[i].nextFree = i + 1 < kSlotChunk
                            ? static_cast<std::uint32_t>(first + i + 1)
                            : freeSlot_;
  }
  freeSlot_ = static_cast<std::uint32_t>(first);
}

// dgcheck: cold: doubles the heap's storage; it only grows to the peak number of queued entries
void EventLoop::growHeap() {
  heap_.resize(std::max<std::size_t>(64, 2 * heap_.size()));
}

void EventLoop::popTimer() {
  std::pop_heap(heap_.begin(),
                heap_.begin() + static_cast<std::ptrdiff_t>(heapSize_),
                kLater);
  --heapSize_;
}

util::SimTime EventLoop::nextDue() {
  while (heapSize_ > 0 && slot(heap_[0].slot).id != heap_[0].id)
    popTimer();  // cancelled
  return heapSize_ > 0 ? heap_[0].due : -1;
}

// dgcheck: hot
void EventLoop::fireDueTimers(util::SimTime upTo) {
  // Handlers below schedule timers with ids from `firstNew` on; those
  // wait for the next sweep even when already due.
  const TimerId firstNew = nextSerial_ << kSlotBits;
  while (heapSize_ > 0 && !stopped_) {
    const TimerEntry top = heap_[0];
    if (top.due > upTo || top.id >= firstNew) return;
    popTimer();
    TimerSlot& timer = slot(top.slot);
    if (timer.id != top.id) continue;  // cancelled
    timer.id = 0;
    --pendingTimers_;
    ++timersFired_;
    timer.fn();
    timer.fn = nullptr;
    timer.nextFree = freeSlot_;
    freeSlot_ = top.slot;
  }
}

// dgcheck: hot
void EventLoop::pollOnce(util::SimTime deadline) {
  util::SimTime waitUntil = deadline;
  const util::SimTime due = nextDue();
  if (due >= 0 && (waitUntil < 0 || due < waitUntil)) waitUntil = due;

  int timeoutMs = -1;  // block until an fd is readable
  if (waitUntil >= 0) {
    const util::SimTime gap = waitUntil - now();
    // Ceil to ms so we never wake before the earliest timer is due.
    timeoutMs = gap <= 0 ? 0 : static_cast<int>((gap + 999) / 1000);
  }

  epoll_event events[16];
  const int n = epoll_wait(epollFd_, events, 16, timeoutMs);
  ++wakeups_;
  if (n < 0) {
    if (errno == EINTR) return;
    throw std::system_error(errno, std::generic_category(), "epoll_wait");
  }
  for (int i = 0; i < n && !stopped_; ++i) {
    const std::uint64_t data = events[i].data.u64;
    const auto index = static_cast<std::size_t>(data & UINT32_MAX);
    FdSlot& slot = fdSlots_[index];
    if (slot.fd < 0 || slot.generation != static_cast<std::uint32_t>(data >> 32))
      continue;  // removed by an earlier handler of this batch
    dispatching_ = index;
    slot.fn();
    dispatching_ = kNotDispatching;
  }
  if (!stopped_) fireDueTimers(now());
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) pollOnce(-1);
}

void EventLoop::runUntil(util::SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && now() < deadline) pollOnce(deadline);
}

}  // namespace dg::live
