// Sim-time structured event log.
//
// A bounded ring buffer of TraceEvents -- packet drops, NACK recoveries,
// link-state floods, problem-detector classifications, dissemination-
// graph switches -- each stamped with the *simulation* time it occurred
// at (never wall clock, so identical runs produce identical logs). The
// one exception is the live overlay daemon, whose events genuinely
// happen in wall time: it tags its log with timeBase "wall" so exports
// declare which timeline the stamps live on (default "sim"). When
// the buffer is full the oldest events are overwritten; recorded() and
// dropped() expose how much history was lost, so tests and reports can
// tell a quiet run from a truncated one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/sim_time.hpp"

namespace dg::telemetry {

enum class TraceEventKind : std::uint8_t {
  PacketDrop,         ///< a link dropped a packet (loss draw)
  QueueDrop,          ///< a link's capacity queue overflowed (drop-tail)
  NackSent,           ///< a node requested missing sequences (value = #seqs)
  Retransmission,     ///< a node answered a NACK from its send buffer
  RecoveredDelivery,  ///< a retransmitted copy reached the destination first
  LinkStateFlood,     ///< a node flooded its link-state update (value = epoch)
  LinkStateAccepted,  ///< a node merged a newer remote link-state update
  IntervalRolled,     ///< the monitor closed a measurement interval
  ProblemClassified,  ///< the detector's classification changed (detail =
                      ///< "source" / "destination" / "middle" / ... / "none")
  GraphSwitch,        ///< a flow's dissemination graph changed
  ChaosFaultStart,    ///< a chaos fault began impairing (detail = kind)
  ChaosFaultEnd,      ///< a chaos fault stopped impairing (detail = kind)
  InvariantViolation, ///< a chaos invariant check failed (detail = which)
  PeerDiscovered,     ///< live membership: a peer became alive (value = peer)
  PeerDisappeared,    ///< live membership: a peer left/timed out (value = peer)
};

/// Canonical lowercase-kebab name ("packet-drop", "graph-switch", ...).
std::string_view traceEventKindName(TraceEventKind kind);

struct TraceEvent {
  util::SimTime time = 0;  ///< simulation time, microseconds
  TraceEventKind kind = TraceEventKind::PacketDrop;
  // Entity ids; -1 = not applicable.
  std::int64_t flow = -1;
  std::int64_t node = -1;
  std::int64_t edge = -1;
  /// Kind-specific magnitude (e.g. NACKed sequence count, epoch).
  double value = 0.0;
  /// Short kind-specific annotation (e.g. classification, scheme name).
  std::string detail;
};

class TraceLog {
 public:
  explicit TraceLog(std::size_t capacity = 65536);

  void record(TraceEvent event);
  void record(util::SimTime time, TraceEventKind kind, std::int64_t flow,
              std::int64_t node, std::int64_t edge, double value = 0.0,
              std::string detail = {});

  /// Which timeline event stamps live on: "sim" (default, simulation
  /// microseconds) or "wall" (the live daemon's soak-relative wall
  /// microseconds). Surfaced as "time_base" by the JSON exporter.
  const std::string& timeBase() const { return timeBase_; }
  void setTimeBase(std::string base) { timeBase_ = std::move(base); }

  std::size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity).
  std::size_t size() const { return events_.size(); }
  /// Events ever recorded, including overwritten ones.
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring overflow.
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(events_.size());
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const;
  /// Retained events of one kind, oldest first.
  std::vector<TraceEvent> eventsOfKind(TraceEventKind kind) const;

  /// Folds another log into this one: the union of retained events is
  /// re-ordered by time (stable, so same-time events keep merge order)
  /// and re-subjected to this log's capacity. Merging per-worker logs in
  /// job order therefore yields the same log for any thread count.
  void merge(const TraceLog& other);
  /// Folds several logs in at once, with the result of merging them one
  /// by one in order -- the order is by time, then by log, then by
  /// position, and the newest events are kept either way -- but one sort
  /// instead of one per log.
  void merge(std::span<const TraceLog* const> others);

 private:
  std::size_t capacity_;
  std::string timeBase_ = "sim";
  std::size_t head_ = 0;  ///< next write position once the ring is full
  std::uint64_t recorded_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace dg::telemetry
