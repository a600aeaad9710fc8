// Unit tests for src/channel: FIFO channel semantics, tunnels, meta-signals.
#include <gtest/gtest.h>

#include "channel/channel.hpp"

namespace cmc {
namespace {

Descriptor desc(std::uint64_t id) {
  const Codec codecs[] = {Codec::g711u};
  return makeDescriptor(DescriptorId{id}, MediaAddress::parse("10.0.0.1", 5000),
                        codecs, false);
}

TEST(MetaSignal, RoundTrip) {
  MetaSignal m{MetaKind::custom, "paid", "amount=5"};
  ByteWriter w;
  m.serialize(w);
  ByteReader r{w.bytes()};
  EXPECT_EQ(MetaSignal::deserialize(r), m);
  EXPECT_TRUE(r.ok());
}

TEST(MetaSignal, KindNames) {
  EXPECT_EQ(toString(MetaKind::available), "available");
  EXPECT_EQ(toString(MetaKind::teardown), "teardown");
}

TEST(ChannelMessage, TunnelSignalRoundTrip) {
  ChannelMessage m = TunnelSignal{3, OpenSignal{Medium::audio, desc(1)}};
  ByteWriter w;
  serialize(m, w);
  ByteReader r{w.bytes()};
  auto back = deserializeChannelMessage(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(ChannelMessage, MetaRoundTrip) {
  ChannelMessage m = MetaSignal{MetaKind::unavailable, "", ""};
  ByteWriter w;
  serialize(m, w);
  ByteReader r{w.bytes()};
  auto back = deserializeChannelMessage(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(ChannelMessage, BadTagFails) {
  std::vector<std::uint8_t> bytes{9};
  ByteReader r{bytes};
  EXPECT_EQ(deserializeChannelMessage(r), std::nullopt);
}

TEST(Side, Opposite) {
  EXPECT_EQ(opposite(Side::A), Side::B);
  EXPECT_EQ(opposite(Side::B), Side::A);
}

class ChannelFixture : public ::testing::Test {
 protected:
  ChannelState ch_{ChannelId{1}, /*tunnel_count=*/2};
};

TEST_F(ChannelFixture, StartsEmpty) {
  EXPECT_TRUE(ch_.empty());
  EXPECT_FALSE(ch_.hasMessageToward(Side::A));
  EXPECT_FALSE(ch_.hasMessageToward(Side::B));
  EXPECT_EQ(ch_.tunnelCount(), 2u);
}

TEST_F(ChannelFixture, FifoPerDirection) {
  ch_.push(Side::B, TunnelSignal{0, CloseSignal{}});
  ch_.push(Side::B, TunnelSignal{1, CloseAckSignal{}});
  ASSERT_TRUE(ch_.hasMessageToward(Side::B));
  EXPECT_EQ(ch_.depthToward(Side::B), 2u);

  auto m1 = ch_.pop(Side::B);
  EXPECT_EQ(std::get<TunnelSignal>(m1).tunnel, 0u);
  auto m2 = ch_.pop(Side::B);
  EXPECT_EQ(std::get<TunnelSignal>(m2).tunnel, 1u);
  EXPECT_TRUE(ch_.empty());
}

TEST_F(ChannelFixture, DirectionsIndependent) {
  ch_.push(Side::A, TunnelSignal{0, CloseSignal{}});
  EXPECT_TRUE(ch_.hasMessageToward(Side::A));
  EXPECT_FALSE(ch_.hasMessageToward(Side::B));
  (void)ch_.pop(Side::A);
  EXPECT_TRUE(ch_.empty());
}

TEST_F(ChannelFixture, PeekDoesNotConsume) {
  ch_.push(Side::B, MetaSignal{MetaKind::available, "", ""});
  (void)ch_.peek(Side::B);
  EXPECT_EQ(ch_.depthToward(Side::B), 1u);
}

TEST_F(ChannelFixture, CanonicalizeDependsOnContents) {
  ByteWriter w1;
  ch_.canonicalize(w1);
  ch_.push(Side::A, TunnelSignal{0, CloseSignal{}});
  ByteWriter w2;
  ch_.canonicalize(w2);
  EXPECT_NE(fnv1a(w1.bytes()), fnv1a(w2.bytes()));
}

TEST_F(ChannelFixture, CanonicalizeOrderSensitive) {
  ChannelState a{ChannelId{1}, 1};
  ChannelState b{ChannelId{1}, 1};
  a.push(Side::A, TunnelSignal{0, CloseSignal{}});
  a.push(Side::A, TunnelSignal{0, CloseAckSignal{}});
  b.push(Side::A, TunnelSignal{0, CloseAckSignal{}});
  b.push(Side::A, TunnelSignal{0, CloseSignal{}});
  ByteWriter wa, wb;
  a.canonicalize(wa);
  b.canonicalize(wb);
  EXPECT_NE(fnv1a(wa.bytes()), fnv1a(wb.bytes()));
}

// ---------------------------------------------- FIFO past inline capacity
//
// Queues keep two messages inline and spill to the heap beyond that; these
// cases queue three or more per direction so every operation runs on a
// spilled queue too.

// Tunnel numbers of the messages queued toward `toward`, head first. Works
// on a copy, so it never disturbs the channel under test.
std::vector<std::uint32_t> queuedTunnels(ChannelState ch, Side toward) {
  std::vector<std::uint32_t> out;
  while (ch.hasMessageToward(toward)) {
    out.push_back(std::get<TunnelSignal>(ch.pop(toward)).tunnel);
  }
  return out;
}

// Four messages toward A (tunnels 0-3) and four toward B (tunnels 10-13).
void fillBothDirections(ChannelState& ch) {
  for (std::uint32_t t = 0; t < 4; ++t) {
    ch.push(Side::A, TunnelSignal{t, CloseSignal{}});
    ch.push(Side::B, TunnelSignal{10 + t, CloseAckSignal{}});
  }
}

std::vector<std::uint8_t> canonicalBytes(const ChannelState& ch) {
  ByteWriter w;
  ch.canonicalize(w);
  return w.bytes();
}

using Tunnels = std::vector<std::uint32_t>;

TEST_F(ChannelFixture, DropHeadKeepsFifoOrderPastInlineCapacity) {
  fillBothDirections(ch_);
  ch_.dropHead(Side::A);
  EXPECT_EQ(queuedTunnels(ch_, Side::A), (Tunnels{1, 2, 3}));
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{10, 11, 12, 13}));
  ch_.dropHead(Side::B);
  ch_.dropHead(Side::B);
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{12, 13}));
  ch_.push(Side::B, TunnelSignal{14, CloseSignal{}});
  ch_.dropHead(Side::B);
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{13, 14}));
  ch_.dropHead(Side::A);
  ch_.dropHead(Side::A);
  ch_.dropHead(Side::A);
  ch_.dropHead(Side::A);  // on an empty queue: a no-op
  EXPECT_FALSE(ch_.hasMessageToward(Side::A));
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{13, 14}));
}

TEST_F(ChannelFixture, DupHeadKeepsFifoOrderPastInlineCapacity) {
  fillBothDirections(ch_);
  ch_.duplicateHead(Side::A);
  EXPECT_EQ(queuedTunnels(ch_, Side::A), (Tunnels{0, 0, 1, 2, 3}));
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{10, 11, 12, 13}));
  (void)ch_.pop(Side::B);
  ch_.duplicateHead(Side::B);
  ch_.duplicateHead(Side::B);
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{11, 11, 11, 12, 13}));
  EXPECT_EQ(ch_.depthToward(Side::A), 5u);
  EXPECT_EQ(std::get<TunnelSignal>(ch_.pop(Side::A)).tunnel, 0u);
  EXPECT_EQ(std::get<TunnelSignal>(ch_.pop(Side::A)).tunnel, 0u);
  ch_.duplicateHead(Side::A);
  EXPECT_EQ(queuedTunnels(ch_, Side::A), (Tunnels{1, 1, 2, 3}));

  ChannelState single{ChannelId{2}, 1};
  single.push(Side::A, TunnelSignal{7, CloseSignal{}});
  single.duplicateHead(Side::A);  // fills the inline capacity exactly
  single.duplicateHead(Side::A);  // spills while copying the head
  EXPECT_EQ(queuedTunnels(single, Side::A), (Tunnels{7, 7, 7}));
}

TEST_F(ChannelFixture, MutatingACopyLeavesTheOriginalUnchanged) {
  fillBothDirections(ch_);
  const std::vector<std::uint8_t> before = canonicalBytes(ch_);

  ChannelState copy = ch_;
  (void)copy.pop(Side::A);
  copy.duplicateHead(Side::B);
  copy.push(Side::A, TunnelSignal{9, CloseSignal{}});
  copy.dropHead(Side::B);
  EXPECT_NE(canonicalBytes(copy), before);

  // Copy-assignment into a channel that already holds messages, the way
  // the explorer reuses one scratch successor.
  ChannelState assigned{ChannelId{2}, 1};
  assigned.push(Side::B, TunnelSignal{5, CloseSignal{}});
  assigned = ch_;
  EXPECT_EQ(canonicalBytes(assigned), before);
  assigned.dropHead(Side::A);
  assigned.duplicateHead(Side::B);

  EXPECT_EQ(canonicalBytes(ch_), before);
  EXPECT_EQ(queuedTunnels(ch_, Side::A), (Tunnels{0, 1, 2, 3}));
  EXPECT_EQ(queuedTunnels(ch_, Side::B), (Tunnels{10, 11, 12, 13}));
}

TEST_F(ChannelFixture, TwoDirectionQueueMatchesRecordedBytes) {
  // Canonical bytes are what the model checker dedups on: the queue
  // representation must not change them. Recorded with std::deque queues.
  ch_.push(Side::A, TunnelSignal{0, CloseSignal{}});
  ch_.push(Side::A, TunnelSignal{1, OpenSignal{Medium::audio, desc(4)}});
  ch_.push(Side::A, TunnelSignal{0, CloseAckSignal{}});
  ch_.push(Side::B, MetaSignal{MetaKind::available, "", ""});
  ch_.push(Side::B, TunnelSignal{1, CloseSignal{}});
  const std::vector<std::uint8_t> expected = {
      2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1,
      0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
      10, 136, 19, 1, 0, 2, 0, 0, 0, 0, 0, 0, 3, 2, 0, 0,
      0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
      2,
  };
  EXPECT_EQ(canonicalBytes(ch_), expected);
}

}  // namespace
}  // namespace cmc
