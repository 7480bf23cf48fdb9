// Telemetry context threaded through the stack.
//
// One Telemetry object bundles the metrics registry, the trace-event log
// and a sim-time clock. Every instrumented layer takes a nullable
// `telemetry::Telemetry*` (null = fully un-instrumented, zero overhead);
// the layer that drives time -- the discrete-event simulator's loop, or
// the playback engine's interval loop -- keeps `now` current so that
// layers without their own clock access (routing schemes, the monitor)
// can stamp trace events with the correct simulation time.
//
// Concurrency follows the experiment runner's model: one Telemetry per
// worker job, merged afterwards in job order, which makes exports
// byte-identical regardless of thread count.
#pragma once

#include <span>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace_log.hpp"
#include "util/sim_time.hpp"

namespace dg::telemetry {

struct Telemetry {
  Telemetry() = default;
  explicit Telemetry(std::size_t traceCapacity) : trace(traceCapacity) {}

  MetricsRegistry metrics;
  TraceLog trace;
  /// Current simulation time, maintained by the driving layer. Used as
  /// the timestamp source by recorders that have no clock of their own.
  util::SimTime now = 0;

  void merge(const Telemetry& other) {
    metrics.merge(other.metrics);
    trace.merge(other.trace);
    if (other.now > now) now = other.now;
  }
  /// Merges several in order, as one merge() each would, but with one
  /// trace-log sort for all of them.
  void merge(std::span<const Telemetry* const> others) {
    std::vector<const TraceLog*> logs;
    logs.reserve(others.size());
    for (const Telemetry* other : others) {
      metrics.merge(other->metrics);
      logs.push_back(&other->trace);
      if (other->now > now) now = other->now;
    }
    trace.merge(logs);
  }
};

}  // namespace dg::telemetry
