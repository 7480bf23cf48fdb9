// The one sanctioned wall-clock access point (dglint rule R1).
//
// Library and simulation code must never read a real clock: every
// timestamp that can influence results flows through util::SimTime so
// runs are bit-reproducible. The legitimate wall-clock consumers are
// benchmarks, operational logging that *measure the harness itself*
// (wall seconds per run, throughput), and the live overlay daemon
// (src/live/), whose event loop is genuinely driven by real time. They
// use this shim, which is the single file allowlisted by dglint for raw
// <chrono> clocks -- anywhere else, `steady_clock` & friends are a lint
// error.
#pragma once

#include <chrono>
#include <cstdint>

namespace dg::util {

/// Monotonic wall-clock reading in microseconds since an arbitrary
/// process-local epoch. The live daemon's event loop derives its
/// SimTime-shaped timestamps from differences of this value; nothing
/// deterministic may depend on it (dglint R1 enforces that every other
/// clock read goes through this file).
inline std::int64_t nowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Same monotonic reading at nanosecond resolution, for stage timers
/// that bracket individual hot-path operations (a microsecond tick is
/// too coarse for a single Dijkstra or memo lookup). Reporting-only,
/// like everything else in this file.
inline std::int64_t nowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Opaque monotonic timestamp for measuring elapsed wall time.
class WallClock {
 public:
  /// Starts (or restarts) the stopwatch.
  void start() { start_ = std::chrono::steady_clock::now(); }

  /// Seconds elapsed since start(); 0 if never started.
  double elapsedSeconds() const {
    if (start_ == std::chrono::steady_clock::time_point{}) return 0.0;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace dg::util
