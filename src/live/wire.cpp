#include "live/wire.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace dg::live {
namespace {

// Node and edge ids travel as 16-bit values; the invalid sentinels map
// to 0xFFFF. Overlays here are tens of nodes, far below the cap.
constexpr std::uint16_t kInvalidId16 = 0xFFFF;

// Encoded sizes, in bytes, of the header and of each fixed-width body.
constexpr std::size_t kHeaderBytes = 6;
constexpr std::size_t kDataBodyBytes = 42;
constexpr std::size_t kNackHeadBytes = 8;  // edge, flow, count
constexpr std::size_t kMembershipBodyBytes = 12;
constexpr std::size_t kGoBodyBytes = 12;
constexpr std::size_t kTokenBytes = 4;
constexpr std::size_t kCountersBytes = 14 * 8 + 4;
constexpr std::size_t kFlowStatBytes = 44;

/// Sequential little-endian writer into a buffer of encodedSize() bytes.
class Writer {
 public:
  explicit Writer(std::span<std::byte> out) : out_(out) {}

  void u8(std::uint8_t v) { out_[offset_++] = static_cast<std::byte>(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v & 0xFF));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v & 0xFFFF));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v & 0xFFFFFFFFULL));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

 private:
  std::span<std::byte> out_;
  std::size_t offset_ = 0;
};

std::uint16_t nodeToWire(graph::NodeId id) {
  if (id == graph::kInvalidNode) return kInvalidId16;
  if (id >= kInvalidId16)
    throw std::length_error("wire: node id exceeds 16-bit wire width");
  return static_cast<std::uint16_t>(id);
}
std::uint16_t edgeToWire(graph::EdgeId id) {
  if (id == graph::kInvalidEdge) return kInvalidId16;
  if (id >= kInvalidId16)
    throw std::length_error("wire: edge id exceeds 16-bit wire width");
  return static_cast<std::uint16_t>(id);
}
graph::NodeId nodeFromWire(std::uint16_t v) {
  return v == kInvalidId16 ? graph::kInvalidNode
                           : static_cast<graph::NodeId>(v);
}
graph::EdgeId edgeFromWire(std::uint16_t v) {
  return v == kInvalidId16 ? graph::kInvalidEdge
                           : static_cast<graph::EdgeId>(v);
}

/// Bounds-checked sequential reader over one datagram.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[offset_++]);
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (static_cast<std::uint16_t>(u8())
                                            << 8));
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    return lo | (static_cast<std::uint32_t>(u16()) << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    return lo | (static_cast<std::uint64_t>(u32()) << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

 private:
  bool need(std::size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

/// Why decodeMessageInto rejected a datagram.
enum class Fault {
  ShortHeader,
  Magic,
  Version,
  Type,
  NackCap,
  NackTruncated,
  StatsCap,
  StatsTruncated,
  Body,
  Trailing,
};

/// Sets `error` (when non-null) to the description of `fault` and returns
/// false. `value` is the version, type or trailing-byte count it names.
// dgcheck: cold: formats why a datagram was rejected; well-formed traffic never calls it
bool reject(std::string* error, Fault fault, std::size_t value = 0,
            MessageType type = MessageType::Data) {
  if (error == nullptr) return false;
  const std::string body = std::string(messageTypeName(type)) + " body";
  switch (fault) {
    case Fault::ShortHeader:
      *error = "datagram shorter than the 6-byte header";
      break;
    case Fault::Magic: *error = "bad wire magic"; break;
    case Fault::Version:
      *error = "unsupported wire version " + std::to_string(value);
      break;
    case Fault::Type:
      *error = "unknown message type " + std::to_string(value);
      break;
    case Fault::NackCap: *error = "NACK sequence list exceeds cap"; break;
    case Fault::NackTruncated: *error = "truncated NACK sequence list"; break;
    case Fault::StatsCap: *error = "flow-stat list exceeds cap"; break;
    case Fault::StatsTruncated: *error = "truncated flow-stat list"; break;
    case Fault::Body: *error = "truncated " + body; break;
    case Fault::Trailing:
      *error = std::to_string(value) + " trailing bytes after " + body;
      break;
  }
  return false;
}

void encodeDataBody(Writer& out, const Message& m) {
  out.u16(edgeToWire(m.edge));
  out.u32(m.flow);
  out.u64(m.sequence);
  out.i64(m.originTime);
  out.i64(m.deadline);
  out.u64(m.graphMask);
  out.u16(nodeToWire(m.source));
  out.u16(nodeToWire(m.destination));
}

void decodeDataBody(Cursor& in, Message& m) {
  m.edge = edgeFromWire(in.u16());
  m.flow = in.u32();
  m.sequence = in.u64();
  m.originTime = in.i64();
  m.deadline = in.i64();
  m.graphMask = in.u64();
  m.source = nodeFromWire(in.u16());
  m.destination = nodeFromWire(in.u16());
}

void encodeCounters(Writer& out, const DaemonCounters& c) {
  out.u64(c.socketSends);
  out.u64(c.socketReceives);
  out.u64(c.decodeErrors);
  out.u64(c.impairmentDrops);
  out.u64(c.impairmentDelays);
  out.u64(c.duplicatesDropped);
  out.u64(c.expiredDropped);
  out.u64(c.nacksSent);
  out.u64(c.retransmissionsSent);
  out.u64(c.nackRecoveries);
  out.u64(c.membershipDiscoveries);
  out.u64(c.membershipDisappearances);
  out.u64(c.eventLoopWakeups);
  out.u64(c.timersFired);
  out.u32(c.membershipAlive);
}

void decodeCounters(Cursor& in, DaemonCounters& c) {
  c.socketSends = in.u64();
  c.socketReceives = in.u64();
  c.decodeErrors = in.u64();
  c.impairmentDrops = in.u64();
  c.impairmentDelays = in.u64();
  c.duplicatesDropped = in.u64();
  c.expiredDropped = in.u64();
  c.nacksSent = in.u64();
  c.retransmissionsSent = in.u64();
  c.nackRecoveries = in.u64();
  c.membershipDiscoveries = in.u64();
  c.membershipDisappearances = in.u64();
  c.eventLoopWakeups = in.u64();
  c.timersFired = in.u64();
  c.membershipAlive = in.u32();
}

/// Decodes into `m`, which holds a default Message's fields.
bool decodeFresh(std::span<const std::byte> datagram, Message& m,
                 std::string* error) {
  Cursor in(datagram);
  const std::uint16_t magic = in.u16();
  const std::uint8_t version = in.u8();
  const std::uint8_t rawType = in.u8();
  const std::uint16_t sender = in.u16();
  if (!in.ok()) return reject(error, Fault::ShortHeader);
  if (magic != kWireMagic) return reject(error, Fault::Magic);
  if (version != kWireVersion) return reject(error, Fault::Version, version);
  if (rawType < static_cast<std::uint8_t>(MessageType::Data) ||
      rawType > static_cast<std::uint8_t>(MessageType::Shutdown))
    return reject(error, Fault::Type, rawType);

  m.type = static_cast<MessageType>(rawType);
  m.sender = nodeFromWire(sender);

  switch (m.type) {
    case MessageType::Data:
    case MessageType::Retransmission:
      decodeDataBody(in, m);
      break;
    case MessageType::Nack: {
      m.edge = edgeFromWire(in.u16());
      m.flow = in.u32();
      const std::uint16_t count = in.u16();
      if (in.ok() && count > kMaxNackSequences)
        return reject(error, Fault::NackCap);
      if (in.ok() && in.remaining() < static_cast<std::size_t>(count) * 8)
        return reject(error, Fault::NackTruncated);
      m.nackSequences.reserve(count);
      for (std::uint16_t i = 0; in.ok() && i < count; ++i)
        m.nackSequences.push_back(in.u64());
      break;
    }
    case MessageType::Hello:
    case MessageType::Bye:
      m.incarnation = in.u64();
      m.helloSeq = in.u32();
      break;
    case MessageType::Go:
      m.horizon = in.i64();
      m.token = in.u32();
      break;
    case MessageType::StatsRequest:
    case MessageType::Shutdown:
      m.token = in.u32();
      break;
    case MessageType::StatsReply: {
      m.token = in.u32();
      decodeCounters(in, m.counters);
      const std::uint16_t count = in.u16();
      if (in.ok() && count > kMaxFlowStats)
        return reject(error, Fault::StatsCap);
      if (in.ok() &&
          in.remaining() < static_cast<std::size_t>(count) * kFlowStatBytes)
        return reject(error, Fault::StatsTruncated);
      m.flowStats.reserve(count);
      for (std::uint16_t i = 0; in.ok() && i < count; ++i) {
        FlowStatsEntry entry;
        entry.flow = in.u32();
        entry.sent = in.u64();
        entry.deliveredOnTime = in.u64();
        entry.deliveredLate = in.u64();
        entry.transmissions = in.u64();
        entry.latencySumUs = in.u64();
        m.flowStats.push_back(entry);
      }
      break;
    }
  }
  if (!in.ok()) return reject(error, Fault::Body, 0, m.type);
  if (in.remaining() != 0)
    return reject(error, Fault::Trailing, in.remaining(), m.type);
  return true;
}

}  // namespace

std::string_view messageTypeName(MessageType type) {
  switch (type) {
    case MessageType::Data: return "data";
    case MessageType::Retransmission: return "retransmission";
    case MessageType::Nack: return "nack";
    case MessageType::Hello: return "hello";
    case MessageType::Bye: return "bye";
    case MessageType::Go: return "go";
    case MessageType::StatsRequest: return "stats-request";
    case MessageType::StatsReply: return "stats-reply";
    case MessageType::Shutdown: return "shutdown";
  }
  return "unknown";
}

std::size_t encodedSize(const Message& m) {
  switch (m.type) {
    case MessageType::Data:
    case MessageType::Retransmission:
      return kHeaderBytes + kDataBodyBytes;
    case MessageType::Nack:
      if (m.nackSequences.size() > kMaxNackSequences)
        throw std::length_error("wire: too many NACK sequences");
      return kHeaderBytes + kNackHeadBytes + 8 * m.nackSequences.size();
    case MessageType::Hello:
    case MessageType::Bye:
      return kHeaderBytes + kMembershipBodyBytes;
    case MessageType::Go:
      return kHeaderBytes + kGoBodyBytes;
    case MessageType::StatsRequest:
    case MessageType::Shutdown:
      return kHeaderBytes + kTokenBytes;
    case MessageType::StatsReply:
      if (m.flowStats.size() > kMaxFlowStats)
        throw std::length_error("wire: too many flow-stat entries");
      return kHeaderBytes + kTokenBytes + kCountersBytes + 2 +
             kFlowStatBytes * m.flowStats.size();
  }
  return kHeaderBytes;  // not a MessageType: the header alone
}

std::vector<std::byte> encodeMessage(const Message& m) {
  std::vector<std::byte> out(encodedSize(m));
  encodeMessageInto(m, out);
  return out;
}

// dgcheck: hot
std::size_t encodeMessageInto(const Message& m, std::span<std::byte> bytes) {
  const std::size_t size = encodedSize(m);
  if (bytes.size() < size)
    throw std::length_error("wire: encode buffer too short");
  Writer out(bytes);
  out.u16(kWireMagic);
  out.u8(kWireVersion);
  out.u8(static_cast<std::uint8_t>(m.type));
  out.u16(nodeToWire(m.sender));

  switch (m.type) {
    case MessageType::Data:
    case MessageType::Retransmission:
      encodeDataBody(out, m);
      break;
    case MessageType::Nack:
      out.u16(edgeToWire(m.edge));
      out.u32(m.flow);
      out.u16(static_cast<std::uint16_t>(m.nackSequences.size()));
      for (const net::SequenceNumber seq : m.nackSequences) out.u64(seq);
      break;
    case MessageType::Hello:
    case MessageType::Bye:
      out.u64(m.incarnation);
      out.u32(m.helloSeq);
      break;
    case MessageType::Go:
      out.i64(m.horizon);
      out.u32(m.token);
      break;
    case MessageType::StatsRequest:
    case MessageType::Shutdown:
      out.u32(m.token);
      break;
    case MessageType::StatsReply:
      out.u32(m.token);
      encodeCounters(out, m.counters);
      out.u16(static_cast<std::uint16_t>(m.flowStats.size()));
      for (const FlowStatsEntry& entry : m.flowStats) {
        out.u32(entry.flow);
        out.u64(entry.sent);
        out.u64(entry.deliveredOnTime);
        out.u64(entry.deliveredLate);
        out.u64(entry.transmissions);
        out.u64(entry.latencySumUs);
      }
      break;
  }
  return size;
}

std::optional<Message> decodeMessage(std::span<const std::byte> datagram,
                                     std::string* error) {
  Message m;
  if (!decodeFresh(datagram, m, error)) return std::nullopt;
  return m;
}

// dgcheck: hot
bool decodeMessageInto(std::span<const std::byte> datagram, Message& out,
                       std::string* error) {
  // Reset every field to its default but keep the lists' buffers.
  Message fresh;
  out.nackSequences.clear();
  out.flowStats.clear();
  fresh.nackSequences.swap(out.nackSequences);
  fresh.flowStats.swap(out.flowStats);
  out = std::move(fresh);
  return decodeFresh(datagram, out, error);
}

}  // namespace dg::live
