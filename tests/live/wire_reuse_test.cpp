// decodeMessageInto on one reused Message: every decode must equal
// decodeMessage's result, whatever the message held before, and the lists
// keep their capacity. The format itself is pinned by wire_test.cpp and
// wire_proptest.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "live/wire.hpp"

namespace dg {
namespace {

std::vector<live::Message> mixedMessages() {
  live::Message data;
  data.type = live::MessageType::Data;
  data.sender = 3;
  data.edge = 12;
  data.flow = 7;
  data.sequence = 99;
  data.originTime = util::milliseconds(1500);
  data.deadline = util::milliseconds(65);
  data.graphMask = 0x5014;
  data.source = 0;
  data.destination = 4;

  live::Message nack;
  nack.type = live::MessageType::Nack;
  nack.sender = 2;
  nack.edge = 13;
  nack.flow = 7;
  nack.nackSequences = {10, 11, 15, 16, 17};

  live::Message reply;
  reply.type = live::MessageType::StatsReply;
  reply.sender = 1;
  reply.token = 2;
  reply.counters.socketSends = 100;
  reply.counters.membershipAlive = 4;
  reply.flowStats.push_back({0, 800, 794, 4, 2400, 33000000});
  reply.flowStats.push_back({1, 10, 9, 1, 30, 400000});

  live::Message hello;
  hello.type = live::MessageType::Hello;
  hello.sender = 4;
  hello.incarnation = 3;
  hello.helloSeq = 17;

  live::Message retransmission = data;
  retransmission.type = live::MessageType::Retransmission;
  retransmission.sequence = 98;

  live::Message shortNack = nack;
  shortNack.nackSequences = {20};

  return {data, nack, reply, hello, reply, retransmission, shortNack, data};
}

TEST(WireReuse, DecodeIntoAReusedMessageMatchesDecodeMessage) {
  live::Message scratch;
  for (const live::Message& m : mixedMessages()) {
    const std::vector<std::byte> bytes = live::encodeMessage(m);
    ASSERT_TRUE(live::decodeMessageInto(bytes, scratch));
    const auto fresh = live::decodeMessage(bytes);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(scratch, *fresh) << live::messageTypeName(m.type);
    EXPECT_EQ(scratch, m) << live::messageTypeName(m.type);
  }
  // The longest lists decoded so far still fit without reallocating.
  EXPECT_GE(scratch.nackSequences.capacity(), 5u);
  EXPECT_GE(scratch.flowStats.capacity(), 2u);
}

TEST(WireReuse, RejectsExactlyWhatDecodeMessageRejects) {
  live::Message scratch;
  for (const live::Message& m : mixedMessages()) {
    std::vector<std::byte> bytes = live::encodeMessage(m);
    // Every strict prefix fails, and so does one trailing byte.
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::span<const std::byte> prefix(bytes.data(), len);
      EXPECT_FALSE(live::decodeMessageInto(prefix, scratch));
      EXPECT_FALSE(live::decodeMessage(prefix).has_value());
    }
    bytes.push_back(std::byte{0});
    std::string error;
    EXPECT_FALSE(live::decodeMessageInto(bytes, scratch, &error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  }
}

TEST(WireReuse, EncodeIntoMatchesEncodeMessage) {
  std::vector<std::byte> buffer(4096, std::byte{0xAB});
  for (const live::Message& m : mixedMessages()) {
    const std::vector<std::byte> expected = live::encodeMessage(m);
    ASSERT_EQ(live::encodedSize(m), expected.size());
    const std::size_t size = live::encodeMessageInto(m, buffer);
    ASSERT_EQ(size, expected.size());
    EXPECT_TRUE(std::equal(expected.begin(), expected.end(), buffer.begin()));
    EXPECT_THROW(
        (void)live::encodeMessageInto(m, std::span(buffer.data(), size - 1)),
        std::length_error);
  }
}

}  // namespace
}  // namespace dg
