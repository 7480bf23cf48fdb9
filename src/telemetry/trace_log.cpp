#include "telemetry/trace_log.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dg::telemetry {

std::string_view traceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::PacketDrop: return "packet-drop";
    case TraceEventKind::QueueDrop: return "queue-drop";
    case TraceEventKind::NackSent: return "nack-sent";
    case TraceEventKind::Retransmission: return "retransmission";
    case TraceEventKind::RecoveredDelivery: return "recovered-delivery";
    case TraceEventKind::LinkStateFlood: return "link-state-flood";
    case TraceEventKind::LinkStateAccepted: return "link-state-accepted";
    case TraceEventKind::IntervalRolled: return "interval-rolled";
    case TraceEventKind::ProblemClassified: return "problem-classified";
    case TraceEventKind::GraphSwitch: return "graph-switch";
    case TraceEventKind::ChaosFaultStart: return "chaos-fault-start";
    case TraceEventKind::ChaosFaultEnd: return "chaos-fault-end";
    case TraceEventKind::InvariantViolation: return "invariant-violation";
    case TraceEventKind::PeerDiscovered: return "peer-discovered";
    case TraceEventKind::PeerDisappeared: return "peer-disappeared";
  }
  return "unknown";
}

TraceLog::TraceLog(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0)
    throw std::invalid_argument("TraceLog: zero capacity");
  events_.reserve(std::min<std::size_t>(capacity, 1024));
}

// dgcheck: cold: event log writes are bounded by decision changes, not interval count
void TraceLog::record(TraceEvent event) {
  ++recorded_;
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  // Ring full: overwrite the oldest slot.
  events_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
}

// dgcheck: cold: event log writes are bounded by decision changes, not interval count
void TraceLog::record(util::SimTime time, TraceEventKind kind,
                      std::int64_t flow, std::int64_t node,
                      std::int64_t edge, double value, std::string detail) {
  record(TraceEvent{time, kind, flow, node, edge, value, std::move(detail)});
}

std::vector<TraceEvent> TraceLog::events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceLog::eventsOfKind(TraceEventKind kind) const {
  std::vector<TraceEvent> out;
  for (TraceEvent& event : events()) {
    if (event.kind == kind) out.push_back(std::move(event));
  }
  return out;
}

void TraceLog::merge(const TraceLog& other) {
  const TraceLog* const others[] = {&other};
  merge(others);
}

void TraceLog::merge(std::span<const TraceLog* const> others) {
  std::uint64_t previouslyLost = dropped();
  std::vector<TraceEvent> merged = events();
  for (const TraceLog* other : others) {
    previouslyLost += other->dropped();
    std::vector<TraceEvent> theirs = other->events();
    merged.insert(merged.end(), std::make_move_iterator(theirs.begin()),
                  std::make_move_iterator(theirs.end()));
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time < b.time;
                   });
  // Replay into a fresh ring so capacity semantics (keep newest) hold.
  events_.clear();
  head_ = 0;
  recorded_ = 0;
  for (TraceEvent& event : merged) record(std::move(event));
  recorded_ += previouslyLost;
}

}  // namespace dg::telemetry
