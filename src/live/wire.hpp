// Wire format of the live overlay daemon ("Spines-lite").
//
// Every UDP datagram carries exactly one Message, encoded little-endian
// with fixed-width fields behind a 6-byte header (magic, version, type,
// sender). Three families share the format:
//   - edge messages (Data / Retransmission / Nack) travel along one
//     directed overlay edge and carry everything an intermediate node
//     needs to forward statelessly: the flow id, the stamped
//     dissemination-graph mask, the flow endpoints and the deadline --
//     the live analogue of net::Packet's stamped (distributed) mode;
//   - membership messages (Hello / Bye) implement join, heartbeat and
//     graceful leave;
//   - control messages (Go / StatsRequest / StatsReply / Shutdown) are
//     the fleet coordinator's soak protocol.
//
// Decoding is strict: every read is bounds-checked, unknown versions and
// types are rejected, list lengths are capped, and trailing bytes are an
// error -- a truncated or corrupted datagram never yields a Message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/relay.hpp"
#include "graph/graph.hpp"
#include "net/packet.hpp"
#include "util/sim_time.hpp"

namespace dg::live {

inline constexpr std::uint16_t kWireMagic = 0x4744;  // "DG" little-endian
inline constexpr std::uint8_t kWireVersion = 1;

/// Hard cap on sequences per Nack: the relay's NACK window.
using core::kMaxNackSequences;
/// Hard cap on per-flow stat entries in a StatsReply.
inline constexpr std::size_t kMaxFlowStats = 128;

enum class MessageType : std::uint8_t {
  Data = 1,         ///< application payload, flooded on the stamped graph
  Retransmission,   ///< per-hop recovery copy of a Data message
  Nack,             ///< per-hop recovery request (missing sequences)
  Hello,            ///< membership join / heartbeat
  Bye,              ///< graceful leave
  Go,               ///< coordinator: start the soak clock
  StatsRequest,     ///< coordinator: report your counters
  StatsReply,       ///< daemon: counter snapshot
  Shutdown,         ///< coordinator: exit after this datagram
};

/// Canonical lowercase-kebab type name ("data", "stats-reply", ...).
std::string_view messageTypeName(MessageType type);

/// One flow's delivery counters inside a StatsReply. Source daemons fill
/// sent/transmissions, destination daemons fill the delivery fields; the
/// coordinator sums entries across the fleet per flow id.
struct FlowStatsEntry {
  net::FlowId flow = 0;
  std::uint64_t sent = 0;
  std::uint64_t deliveredOnTime = 0;
  std::uint64_t deliveredLate = 0;
  std::uint64_t transmissions = 0;
  /// Sum of end-to-end latencies of delivered packets, microseconds.
  std::uint64_t latencySumUs = 0;

  bool operator==(const FlowStatsEntry&) const = default;
};

/// Daemon-level counters inside a StatsReply (the live telemetry set,
/// serialized so the coordinator can aggregate a multi-process fleet).
struct DaemonCounters {
  std::uint64_t socketSends = 0;
  std::uint64_t socketReceives = 0;
  std::uint64_t decodeErrors = 0;
  std::uint64_t impairmentDrops = 0;
  std::uint64_t impairmentDelays = 0;
  std::uint64_t duplicatesDropped = 0;
  std::uint64_t expiredDropped = 0;
  std::uint64_t nacksSent = 0;
  std::uint64_t retransmissionsSent = 0;
  std::uint64_t nackRecoveries = 0;
  std::uint64_t membershipDiscoveries = 0;
  std::uint64_t membershipDisappearances = 0;
  std::uint64_t eventLoopWakeups = 0;
  std::uint64_t timersFired = 0;
  std::uint32_t membershipAlive = 0;

  bool operator==(const DaemonCounters&) const = default;
};

/// One live-overlay message. Like net::Packet this is a single struct
/// with per-type fields (unused fields stay at their defaults and are
/// not serialized), which keeps encode/decode round-trip testing simple.
struct Message {
  MessageType type = MessageType::Data;
  /// Originating node of this datagram (all types).
  graph::NodeId sender = graph::kInvalidNode;

  // --- Edge messages (Data / Retransmission / Nack) -------------------
  /// Directed overlay edge the datagram traverses.
  graph::EdgeId edge = graph::kInvalidEdge;
  net::FlowId flow = 0;
  net::SequenceNumber sequence = 0;
  /// Soak-relative time the packet entered the overlay at the source.
  util::SimTime originTime = 0;
  /// One-way delivery deadline, carried in-band so intermediate nodes
  /// need no per-flow configuration (Data / Retransmission).
  util::SimTime deadline = 0;
  /// Stamped dissemination graph (bit e = directed edge e is a member).
  std::uint64_t graphMask = 0;
  /// Flow endpoints (Data / Retransmission).
  graph::NodeId source = graph::kInvalidNode;
  graph::NodeId destination = graph::kInvalidNode;
  /// Missing sequences requested (Nack).
  std::vector<net::SequenceNumber> nackSequences;

  // --- Membership (Hello / Bye) ---------------------------------------
  /// Process incarnation: increases across daemon restarts so peers can
  /// tell a restart from a late heartbeat.
  std::uint64_t incarnation = 0;
  std::uint32_t helloSeq = 0;

  // --- Control (Go / StatsRequest / StatsReply / Shutdown) ------------
  /// Soak horizon (Go): flows originate for [0, horizon) of soak time.
  util::SimTime horizon = 0;
  /// Coordinator token, echoed by StatsReply.
  std::uint32_t token = 0;
  DaemonCounters counters;                 // StatsReply
  std::vector<FlowStatsEntry> flowStats;   // StatsReply, ascending flow id

  bool operator==(const Message&) const = default;
};

/// Serializes a message. Throws std::length_error when a list exceeds
/// its cap or a node/edge id does not fit the wire width (16 bit).
std::vector<std::byte> encodeMessage(const Message& message);

/// The size of the message's encoding, in bytes. Throws
/// std::length_error when a list exceeds its cap.
std::size_t encodedSize(const Message& message);

/// Serializes into `out`, which must hold encodedSize(message) bytes, and
/// returns that size. Throws std::length_error as encodeMessage does, and
/// when `out` is too short.
std::size_t encodeMessageInto(const Message& message,
                              std::span<std::byte> out);

/// Parses one datagram. Returns std::nullopt and sets `error` (when
/// non-null) on any malformed input: short header, bad magic, unknown
/// version or type, truncated body, over-cap list, trailing bytes.
std::optional<Message> decodeMessage(std::span<const std::byte> datagram,
                                     std::string* error = nullptr);

/// decodeMessage into a caller-owned message, which keeps the capacity of
/// its lists. Returns false (leaving `out` unspecified) exactly when
/// decodeMessage returns std::nullopt.
bool decodeMessageInto(std::span<const std::byte> datagram, Message& out,
                       std::string* error = nullptr);

}  // namespace dg::live
