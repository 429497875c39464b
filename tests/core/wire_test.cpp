// Tests for the wire formats: round trips, truncation robustness, and
// parameterized payload sweeps.
#include <gtest/gtest.h>

#include <vector>

#include "core/wire.hpp"

namespace odcm::core {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<int> values) {
  std::vector<std::byte> out;
  for (int v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(ConnectPacket, RoundTripsAllFields) {
  ConnectPacket packet;
  packet.type = UdMsgType::kConnectReply;
  packet.src_rank = 4093;
  packet.rc_addr = {511, 123456};
  packet.payload = bytes_of({1, 2, 3, 250});
  ConnectPacket decoded = ConnectPacket::decode(packet.encode());
  EXPECT_EQ(decoded.type, UdMsgType::kConnectReply);
  EXPECT_EQ(decoded.src_rank, 4093u);
  EXPECT_EQ(decoded.rc_addr, (fabric::EndpointAddr{511, 123456}));
  EXPECT_EQ(decoded.payload, packet.payload);
}

TEST(ConnectPacket, EmptyPayloadRoundTrips) {
  ConnectPacket packet;
  packet.src_rank = 7;
  packet.rc_addr = {1, 2};
  ConnectPacket decoded = ConnectPacket::decode(packet.encode());
  EXPECT_TRUE(decoded.payload.empty());
  EXPECT_EQ(decoded.src_rank, 7u);
}

TEST(AmPacket, RoundTrips) {
  AmPacket packet{42, 999, bytes_of({9, 8, 7})};
  AmPacket decoded = AmPacket::decode(packet.encode());
  EXPECT_EQ(decoded.handler, 42);
  EXPECT_EQ(decoded.src_rank, 999u);
  EXPECT_EQ(decoded.payload, packet.payload);
}

TEST(AmPacket, EmptyPayload) {
  AmPacket packet{1, 0, {}};
  AmPacket decoded = AmPacket::decode(packet.encode());
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(AmPacket, DecodeConsumeKeepsTheDeliveredBuffer) {
  // The trailer layout lets the receiver strip the addressing fields in
  // place: the payload is the delivered storage, shortened by the trailer.
  std::vector<std::byte> frame = bytes_of({9, 8, 7, 6});
  AmPacket::seal(frame, 42, 999);
  ASSERT_EQ(frame.size(), 4 + AmPacket::kTrailerSize);
  const std::byte* storage = frame.data();
  const std::size_t wire_len = frame.size();
  AmPacket decoded = AmPacket::decode_consume(std::move(frame));
  EXPECT_EQ(decoded.handler, 42);
  EXPECT_EQ(decoded.src_rank, 999u);
  EXPECT_EQ(decoded.payload.data(), storage);
  EXPECT_EQ(decoded.payload.size(), wire_len - 6);
  EXPECT_EQ(decoded.payload, bytes_of({9, 8, 7, 6}));
}

TEST(AmPacket, SealMatchesEncode) {
  AmPacket packet{7, 3, bytes_of({1, 2, 3})};
  std::vector<std::byte> frame = packet.payload;
  AmPacket::seal(frame, packet.handler, packet.src_rank);
  EXPECT_EQ(frame, packet.encode());
}

TEST(Endpoint, EncodesAndDecodes) {
  fabric::EndpointAddr addr{321, 0xDEADBEEF};
  EXPECT_EQ(decode_endpoint(encode_endpoint(addr)), addr);
  EXPECT_THROW(decode_endpoint("short"), std::runtime_error);
  EXPECT_THROW(decode_endpoint("toolongvalue"), std::runtime_error);
}

class TruncationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationSweep, TruncatedConnectPacketThrowsNotCrashes) {
  ConnectPacket packet;
  packet.src_rank = 3;
  packet.rc_addr = {9, 77};
  packet.payload = std::vector<std::byte>(32, std::byte{0x5a});
  std::vector<std::byte> encoded = packet.encode();
  std::size_t cut = GetParam();
  if (cut >= encoded.size()) {
    GTEST_SKIP() << "not a truncation";
  }
  encoded.resize(cut);
  EXPECT_THROW((void)ConnectPacket::decode(encoded), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationSweep,
                         ::testing::Values(0, 1, 4, 6, 10, 12, 14, 20, 30));

TEST(Reader, ReadPastEndThrows) {
  auto data = bytes_of({1, 2, 3});
  wire::Reader reader(data);
  (void)reader.read_int<std::uint16_t>();
  EXPECT_EQ(reader.remaining(), 1u);
  EXPECT_THROW((void)reader.read_int<std::uint32_t>(), std::runtime_error);
}

TEST(Reader, RestIsExactlyTheRemainder) {
  auto data = bytes_of({10, 20, 30, 40});
  wire::Reader reader(data);
  (void)reader.read_int<std::uint8_t>();
  std::vector<std::byte> rest = reader.read_rest();
  EXPECT_EQ(rest, bytes_of({20, 30, 40}));
  EXPECT_EQ(reader.remaining(), 0u);
}

class PayloadSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSizeSweep, ConnectPacketPayloadsOfAnySize) {
  std::size_t size = GetParam();
  ConnectPacket packet;
  packet.payload.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    packet.payload[i] = static_cast<std::byte>(i % 256);
  }
  ConnectPacket decoded = ConnectPacket::decode(packet.encode());
  EXPECT_EQ(decoded.payload, packet.payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizeSweep,
                         ::testing::Values(0, 1, 24, 255, 256, 1000, 4000));

}  // namespace
}  // namespace odcm::core
