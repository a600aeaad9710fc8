// Tests for the TCP signaling transport: framing, loopback delivery, FIFO
// ordering, and a full media-channel setup between two endpoint goals
// talking over real sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <future>
#include <random>

#include "core/goal.hpp"
#include "net/listener.hpp"
#include "net/tcp_transport.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace cmc::net {
namespace {

Descriptor desc(std::uint64_t id) {
  const Codec codecs[] = {Codec::g711u};
  return makeDescriptor(DescriptorId{id}, MediaAddress::parse("10.0.0.1", 5000),
                        codecs, false);
}

TEST(Framing, RoundTripSingleMessage) {
  ChannelMessage m = TunnelSignal{2, OpenSignal{Medium::audio, desc(4)}};
  auto frame = encodeFrame(m);
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.error());
}

TEST(Framing, ByteAtATime) {
  ChannelMessage m = MetaSignal{MetaKind::custom, "paid", "x"};
  auto frame = encodeFrame(m);
  FrameDecoder decoder;
  std::optional<ChannelMessage> out;
  for (std::uint8_t byte : frame) {
    ASSERT_FALSE(out.has_value());
    decoder.feed(&byte, 1);
    out = decoder.next();
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);
}

TEST(Framing, MultipleMessagesOneChunk) {
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < 5; ++i) {
    auto frame = encodeFrame(TunnelSignal{static_cast<std::uint32_t>(i),
                                          CloseSignal{}});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto out = decoder.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(std::get<TunnelSignal>(*out).tunnel, i);
  }
  EXPECT_EQ(decoder.next(), std::nullopt);
}

TEST(Framing, TraceContextSurvivesRoundTrip) {
  TunnelSignal sig{2, OpenSignal{Medium::audio, desc(4)}};
  sig.ctx = obs::TraceContext{0x1234567890abcdefULL, 42};
  const ChannelMessage m = sig;
  auto frame = encodeFrame(m);
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, m);  // equality deliberately ignores the causal ctx
  const auto& ts = std::get<TunnelSignal>(*out);
  EXPECT_EQ(ts.ctx.trace, 0x1234567890abcdefULL);
  EXPECT_EQ(ts.ctx.span, 42u);

  MetaSignal meta{MetaKind::custom, "paid", "x"};
  meta.ctx = obs::TraceContext{9, 10};
  auto meta_frame = encodeFrame(ChannelMessage{meta});
  FrameDecoder meta_decoder;
  meta_decoder.feed(meta_frame.data(), meta_frame.size());
  auto meta_out = meta_decoder.next();
  ASSERT_TRUE(meta_out.has_value());
  EXPECT_EQ(std::get<MetaSignal>(*meta_out).ctx, meta.ctx);
}

TEST(Framing, EmptyContextKeepsLegacyWireBytes) {
  // An empty ctx serializes with the original message tags, so runs without
  // propagation — including every mc canonicalization — see identical bytes
  // to the pre-context encoding. The ctx-bearing tag costs exactly the two
  // u64 ids.
  const auto legacy = encodeFrame(ChannelMessage{TunnelSignal{2, CloseSignal{}}});
  EXPECT_EQ(legacy[8], 0);  // body starts after the 8-byte header: tag 0
  TunnelSignal stamped{2, CloseSignal{}};
  stamped.ctx = obs::TraceContext{7, 9};
  const auto tagged = encodeFrame(ChannelMessage{stamped});
  EXPECT_EQ(tagged[8], 2);  // ctx-bearing tunnel-signal tag
  EXPECT_EQ(tagged.size(), legacy.size() + 16);
}

TEST(Framing, CorruptFrameDoesNotPoisonFollowingContext) {
  TunnelSignal first{1, CloseSignal{}};
  first.ctx = obs::TraceContext{11, 12};
  TunnelSignal second{2, CloseSignal{}};
  second.ctx = obs::TraceContext{21, 22};
  auto bad = encodeFrame(ChannelMessage{first});
  bad.back() ^= 0x5a;  // body byte flip: header checksum no longer matches
  const auto good = encodeFrame(ChannelMessage{second});

  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.corruptFrames(), 1u);
  // The next frame decodes with its own context, untouched by the loss.
  decoder.feed(good.data(), good.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(std::get<TunnelSignal>(*out).ctx, second.ctx);
}

TEST(Framing, OversizeFrameIsRejected) {
  FrameDecoder decoder;
  // Header: absurd length + arbitrary checksum.
  std::uint8_t huge[8] = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  decoder.feed(huge, 8);
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_TRUE(decoder.error());
}

TEST(Framing, GarbagePayloadPoisonsDecoder) {
  // A body that checksums correctly but does not parse is a framing bug,
  // not line noise: the decoder must poison, not skip.
  const std::uint8_t body[3] = {0xee, 0, 0};  // invalid message tag
  ByteWriter w;
  w.u32(3);
  w.u32(frameChecksum(body, 3));
  for (std::uint8_t b : body) w.u8(b);
  FrameDecoder decoder;
  decoder.feed(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_TRUE(decoder.error());
}

TEST(Framing, ChecksumRejectsCorruptBodyAsLoss) {
  // A frame corrupted in transit is discarded like a lost signal — the
  // stream survives and the following frame still decodes.
  ChannelMessage corrupted = TunnelSignal{1, OpenSignal{Medium::audio, desc(9)}};
  ChannelMessage survivor = TunnelSignal{2, CloseSignal{}};
  auto bad = encodeFrame(corrupted);
  bad.back() ^= 0x5a;  // body byte flip; header checksum no longer matches
  auto good = encodeFrame(survivor);

  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_FALSE(decoder.error()) << "corruption must not poison the stream";
  EXPECT_EQ(decoder.corruptFrames(), 1u);

  decoder.feed(good.data(), good.size());
  auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, survivor);
  EXPECT_FALSE(decoder.error());
}

TEST(Framing, ChecksumCatchesHeaderLengthCorruption) {
  // Shrinking the advertised length misaligns the body: the checksum over
  // the truncated body fails and the bogus frame is skipped.
  ChannelMessage m = TunnelSignal{3, OpenSignal{Medium::audio, desc(5)}};
  auto frame = encodeFrame(m);
  frame[0] -= 1;  // length low byte: body now one short
  FrameDecoder decoder;
  decoder.feed(frame.data(), frame.size());
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_EQ(decoder.corruptFrames(), 1u);
}

// A whole burst arriving as one read: popping a frame must not move the
// bytes behind it, or one chunk of n frames costs O(n^2) byte moves. The
// decoder works through tens of thousands of frames fed at once, in order,
// skipping the corrupt ones, and buffered() counts only the bytes not yet
// consumed.
TEST(Framing, OneLargeChunkYieldsEveryFrameInOrder) {
  constexpr std::uint32_t kFrames = 45'000;
  std::vector<std::uint8_t> stream;
  std::vector<std::vector<std::uint8_t>> expected;
  std::uint64_t corrupt = 0;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> body(4 + i % 29);
    for (std::size_t k = 0; k < body.size(); ++k) {
      body[k] = static_cast<std::uint8_t>((i >> (8 * (k % 4))) + k);
    }
    std::vector<std::uint8_t> frame = encodeRawFrame(body);
    if (i % 97 == 13) {
      frame.back() ^= 0x5a;  // body no longer matches its checksum
      ++corrupt;
    } else {
      expected.push_back(std::move(body));
    }
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  RawFrameDecoder decoder;
  decoder.feed(stream.data(), stream.size());
  EXPECT_EQ(decoder.buffered(), stream.size());
  std::vector<std::vector<std::uint8_t>> got;
  got.reserve(expected.size());
  while (auto body = decoder.next()) {
    if (got.empty()) {
      EXPECT_EQ(decoder.buffered(), stream.size() - 8 - body->size());
    }
    got.push_back(std::move(*body));
  }
  EXPECT_EQ(got.size(), expected.size());
  EXPECT_TRUE(got == expected);
  EXPECT_EQ(decoder.corruptFrames(), corrupt);
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.buffered(), 0u);

  // The consumed bytes are dropped on the next feed; a frame split across
  // two feeds still decodes.
  const std::vector<std::uint8_t> tail = encodeRawFrame({9, 8, 7});
  decoder.feed(tail.data(), 5);
  EXPECT_EQ(decoder.next(), std::nullopt);
  EXPECT_EQ(decoder.buffered(), 5u);
  decoder.feed(tail.data() + 5, tail.size() - 5);
  EXPECT_EQ(decoder.next(), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(decoder.buffered(), 0u);
}

// ----------------------------------------------------------- mutation
// Seeded, structure-aware mutation of valid multi-frame streams: byte
// flips, truncations, length-header edits (+-1 and beyond kMaxFrame),
// splices of two streams, inserted junk and random chunk splits. None of
// them reorders the frames that survive, so whatever the damage the decoder
// may only yield bodies that were encoded, in stream order, and once
// poisoned it stays silent even for valid bytes.

using Bytes = std::vector<std::uint8_t>;

struct EncodedStream {
  Bytes bytes;
  std::vector<std::size_t> frame_starts;  // header offsets into bytes
  std::vector<Bytes> bodies;              // in stream order
};

std::size_t below(std::mt19937_64& rng, std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
}

void appendFrame(EncodedStream& stream, const Bytes& body) {
  stream.frame_starts.push_back(stream.bytes.size());
  const Bytes frame = encodeRawFrame(body);
  stream.bytes.insert(stream.bytes.end(), frame.begin(), frame.end());
  stream.bodies.push_back(body);
}

Bytes randomBody(std::mt19937_64& rng) {
  Bytes body(below(rng, 97));
  for (auto& byte : body) byte = static_cast<std::uint8_t>(rng());
  return body;
}

Bytes messageBody(std::mt19937_64& rng) {
  const auto id = static_cast<std::uint32_t>(below(rng, 8));
  ChannelMessage message;
  switch (below(rng, 4)) {
    case 0:
      message =
          TunnelSignal{id, OpenSignal{Medium::audio, desc(1 + below(rng, 50))}};
      break;
    case 1:
      message = TunnelSignal{id, CloseSignal{}};
      break;
    case 2: {
      TunnelSignal stamped{id, CloseAckSignal{}};
      stamped.ctx = obs::TraceContext{rng() | 1, rng() | 1};
      message = stamped;
      break;
    }
    default:
      message = MetaSignal{MetaKind::custom, "tag" + std::to_string(id), "v"};
      break;
  }
  ByteWriter body;
  serialize(message, body);
  return body.take();
}

void mutate(EncodedStream& stream, const EncodedStream& donor,
            std::mt19937_64& rng) {
  const std::size_t count = 1 + below(rng, 3);
  for (std::size_t i = 0; i < count && !stream.bytes.empty(); ++i) {
    Bytes& bytes = stream.bytes;
    switch (below(rng, 5)) {
      case 0:  // flip one byte anywhere: header or body
        bytes[below(rng, bytes.size())] ^=
            static_cast<std::uint8_t>(1 + below(rng, 255));
        break;
      case 1:  // truncate
        bytes.resize(below(rng, bytes.size()));
        break;
      case 2: {  // edit one frame's length header
        const std::size_t at =
            stream.frame_starts[below(rng, stream.frame_starts.size())];
        if (at + 4 > bytes.size()) break;
        std::uint32_t length = 0;
        std::memcpy(&length, &bytes[at], 4);  // little-endian host
        switch (below(rng, 3)) {
          case 0: length += 1; break;
          case 1: length -= 1; break;  // 0 wraps to far beyond kMaxFrame
          default:
            length = RawFrameDecoder::kMaxFrame + 1 +
                     static_cast<std::uint32_t>(below(rng, 1u << 20));
        }
        std::memcpy(&bytes[at], &length, 4);
        break;
      }
      case 3: {  // splice: our head, then the donor's tail
        const std::size_t cut = below(rng, bytes.size() + 1);
        const std::size_t from = below(rng, donor.bytes.size() + 1);
        bytes.resize(cut);
        bytes.insert(bytes.end(),
                     donor.bytes.begin() + static_cast<std::ptrdiff_t>(from),
                     donor.bytes.end());
        std::erase_if(stream.frame_starts,
                      [cut](std::size_t at) { return at >= cut; });
        for (std::size_t at : donor.frame_starts) {
          if (at >= from) stream.frame_starts.push_back(cut + at - from);
        }
        stream.bodies.insert(stream.bodies.end(), donor.bodies.begin(),
                             donor.bodies.end());
        break;
      }
      default: {  // insert up to 12 junk bytes
        const std::size_t at = below(rng, bytes.size() + 1);
        Bytes junk = randomBody(rng);
        junk.resize(std::min<std::size_t>(junk.size(), 12));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     junk.begin(), junk.end());
        for (std::size_t& start : stream.frame_starts) {
          if (start >= at) start += junk.size();
        }
        break;
      }
    }
  }
}

// Chunk sizes that split `size` bytes at random points.
std::vector<std::size_t> chunking(std::size_t size, std::mt19937_64& rng) {
  std::vector<std::size_t> chunks;
  for (std::size_t fed = 0; fed < size;) {
    const std::size_t n = std::min(size - fed, 1 + below(rng, 24));
    chunks.push_back(n);
    fed += n;
  }
  return chunks;
}

// Feed `bytes` in `chunks`, popping after every chunk; a poisoned decoder
// must never yield again.
template <typename Decoder, typename Out>
void feedAll(Decoder& decoder, const Bytes& bytes,
             const std::vector<std::size_t>& chunks, std::vector<Out>& out) {
  std::size_t fed = 0;
  for (std::size_t n : chunks) {
    const bool poisoned_before = decoder.error();
    decoder.feed(bytes.data() + fed, n);
    fed += n;
    while (auto item = decoder.next()) {
      ASSERT_FALSE(poisoned_before) << "yielded after poisoning";
      out.push_back(std::move(*item));
    }
  }
}

bool isSubsequence(const std::vector<Bytes>& got,
                   const std::vector<Bytes>& encoded) {
  auto it = encoded.begin();
  for (const Bytes& body : got) {
    it = std::find(it, encoded.end(), body);
    if (it == encoded.end()) return false;
    ++it;
  }
  return true;
}

EncodedStream randomStream(std::mt19937_64& rng,
                           Bytes (*makeBody)(std::mt19937_64&)) {
  EncodedStream stream;
  const std::size_t frames = 1 + below(rng, 6);
  for (std::size_t f = 0; f < frames; ++f) appendFrame(stream, makeBody(rng));
  return stream;
}

TEST(FramingMutation, RawStreamsYieldOnlyEncodedBodiesInOrder) {
  std::mt19937_64 rng(0x5eed'f4a3'e000'0001ULL);
  const Bytes valid_tail = encodeRawFrame(Bytes{1, 2, 3});
  std::size_t poisoned = 0, with_corrupt = 0, yielded = 0;
  for (int round = 0; round < 3000; ++round) {
    EncodedStream stream = randomStream(rng, randomBody);
    const EncodedStream donor = randomStream(rng, randomBody);
    mutate(stream, donor, rng);

    RawFrameDecoder decoder;
    std::vector<Bytes> got;
    feedAll(decoder, stream.bytes, chunking(stream.bytes.size(), rng), got);
    ASSERT_TRUE(isSubsequence(got, stream.bodies)) << "round " << round;
    yielded += got.size();
    if (decoder.corruptFrames() > 0) ++with_corrupt;
    if (decoder.error()) {
      ++poisoned;
      decoder.feed(valid_tail.data(), valid_tail.size());
      ASSERT_FALSE(decoder.next().has_value()) << "round " << round;
      ASSERT_TRUE(decoder.error());
    }
  }
  // The mutations reach every outcome: clean frames, skipped corrupt
  // frames and poisoned streams.
  EXPECT_GT(yielded, 1000u);
  EXPECT_GT(with_corrupt, 100u);
  EXPECT_GT(poisoned, 100u);
}

TEST(FramingMutation, HostileLengthEndsTheStreamExactlyAtItsFrame) {
  std::mt19937_64 rng(0x5eed'f4a3'e000'0003ULL);
  for (int round = 0; round < 500; ++round) {
    EncodedStream stream = randomStream(rng, randomBody);
    const std::size_t k = below(rng, stream.frame_starts.size());
    const auto length = static_cast<std::uint32_t>(
        RawFrameDecoder::kMaxFrame + 1 +
        below(rng, 0xFFFF'FFFFull - RawFrameDecoder::kMaxFrame));
    std::memcpy(&stream.bytes[stream.frame_starts[k]], &length, 4);

    RawFrameDecoder decoder;
    std::vector<Bytes> got;
    feedAll(decoder, stream.bytes, chunking(stream.bytes.size(), rng), got);
    const std::vector<Bytes> before(stream.bodies.begin(),
                                    stream.bodies.begin() +
                                        static_cast<std::ptrdiff_t>(k));
    EXPECT_EQ(got, before) << "round " << round << ", length " << length;
    EXPECT_TRUE(decoder.error()) << "round " << round << ", length " << length;
  }
}

TEST(FramingMutation, MessageStreamsMatchTheRawDecoderAndPoisonOnGarbage) {
  std::mt19937_64 rng(0x5eed'f4a3'e000'0002ULL);
  const Bytes unparseable{0xee, 0, 0};  // checksum-valid, invalid message tag
  std::size_t poisoned_by_parse = 0, messages = 0;
  for (int round = 0; round < 1500; ++round) {
    EncodedStream stream = randomStream(rng, messageBody);
    if (below(rng, 4) == 0) appendFrame(stream, unparseable);
    const EncodedStream donor = randomStream(rng, messageBody);
    if (below(rng, 2) == 0) mutate(stream, donor, rng);

    // Identical chunking through both views of the one decoder.
    const auto chunks = chunking(stream.bytes.size(), rng);
    RawFrameDecoder raw;
    std::vector<Bytes> bodies;
    feedAll(raw, stream.bytes, chunks, bodies);
    FrameDecoder decoder;
    std::vector<ChannelMessage> got;
    feedAll(decoder, stream.bytes, chunks, got);
    ASSERT_TRUE(isSubsequence(bodies, stream.bodies)) << "round " << round;

    // The message view yields the raw bodies' parses up to the first body
    // that does not parse, and is poisoned from there on.
    std::size_t parsed = 0;
    bool hit_garbage = false;
    for (const Bytes& body : bodies) {
      const auto message = decodeChannelMessage(body);
      if (!message) {
        hit_garbage = true;
        break;
      }
      ASSERT_LT(parsed, got.size()) << "round " << round;
      EXPECT_EQ(got[parsed], *message) << "round " << round;
      ++parsed;
    }
    ASSERT_EQ(got.size(), parsed) << "round " << round;
    EXPECT_EQ(decoder.error(), raw.error() || hit_garbage) << "round " << round;
    EXPECT_EQ(decoder.corruptFrames(), raw.corruptFrames());
    messages += parsed;
    if (hit_garbage) ++poisoned_by_parse;
  }
  EXPECT_GT(messages, 1000u);
  EXPECT_GT(poisoned_by_parse, 100u);
}

class LoopbackPair : public ::testing::Test {
 protected:
  void SetUp() override {
    listener_ = std::make_unique<Listener>(0);
    ASSERT_TRUE(listener_->ok());
    auto accepted = std::async(std::launch::async,
                               [this]() { return listener_->accept(); });
    client_ = TcpSignalingPeer::connect("127.0.0.1", listener_->port());
    ASSERT_NE(client_, nullptr);
    auto conn = accepted.get();
    ASSERT_NE(conn, nullptr);
    server_ = std::make_unique<TcpSignalingPeer>(std::move(conn));
  }

  std::unique_ptr<Listener> listener_;
  std::unique_ptr<TcpSignalingPeer> client_;
  std::unique_ptr<TcpSignalingPeer> server_;
};

TEST_F(LoopbackPair, DeliversInFifoOrder) {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t> received;
  constexpr int kCount = 200;

  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(std::get<TunnelSignal>(m).tunnel);
    cv.notify_one();
  });
  client_->start([](const ChannelMessage&) {});

  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(client_->send(TunnelSignal{i, CloseSignal{}}));
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&]() { return received.size() == kCount; }));
  for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(received[i], i);
}

TEST_F(LoopbackPair, BidirectionalTraffic) {
  std::promise<ChannelMessage> to_server, to_client;
  server_->start([&](const ChannelMessage& m) { to_server.set_value(m); });
  client_->start([&](const ChannelMessage& m) { to_client.set_value(m); });

  ChannelMessage from_client = MetaSignal{MetaKind::available, "", ""};
  ChannelMessage from_server = MetaSignal{MetaKind::custom, "hi", ""};
  ASSERT_TRUE(client_->send(from_client));
  ASSERT_TRUE(server_->send(from_server));
  EXPECT_EQ(to_server.get_future().get(), from_client);
  EXPECT_EQ(to_client.get_future().get(), from_server);
}

TEST_F(LoopbackPair, DropAndCorruptHooksLoseExactlyOneFrame) {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t> received;
  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(std::get<TunnelSignal>(m).tunnel);
    cv.notify_one();
  });
  client_->start([](const ChannelMessage&) {});

  client_->dropNextFrame();
  ASSERT_TRUE(client_->send(TunnelSignal{0, CloseSignal{}}));  // vanishes
  client_->corruptNextFrame();
  ASSERT_TRUE(client_->send(TunnelSignal{1, CloseSignal{}}));  // checksum-rejected
  ASSERT_TRUE(client_->send(TunnelSignal{2, CloseSignal{}}));  // arrives

  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&]() { return !received.empty(); }));
  // Only the clean frame made it, and the connection survived both faults.
  EXPECT_EQ(received, (std::vector<std::uint32_t>{2}));
  EXPECT_TRUE(client_->isOpen());
  EXPECT_TRUE(server_->isOpen());
}

TEST_F(LoopbackPair, SendStampsCurrentContextWhenPropagationOn) {
  obs::TraceRecorder rec;
  rec.setPropagation(true);
  obs::setRecorder(&rec);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<obs::TraceContext> received;
  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(std::get<TunnelSignal>(m).ctx);
    cv.notify_one();
  });
  client_->start([](const ChannelMessage&) {});

  {
    // Sends inside a stimulus scope pick up its context in-band.
    obs::ContextScope scope(obs::TraceContext{5, 6});
    ASSERT_TRUE(client_->send(TunnelSignal{0, CloseSignal{}}));
    // An explicitly stamped signal keeps its own ids.
    TunnelSignal pre{1, CloseSignal{}};
    pre.ctx = obs::TraceContext{1, 2};
    ASSERT_TRUE(client_->send(pre));
  }
  // No surrounding stimulus: nothing to propagate.
  ASSERT_TRUE(client_->send(TunnelSignal{2, CloseSignal{}}));

  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&]() { return received.size() == 3; }));
  EXPECT_EQ(received[0], (obs::TraceContext{5, 6}));
  EXPECT_EQ(received[1], (obs::TraceContext{1, 2}));
  EXPECT_TRUE(received[2].empty());
  obs::setRecorder(nullptr);
}

TEST_F(LoopbackPair, CloseNotifiesPeer) {
  std::promise<void> closed;
  server_->start([](const ChannelMessage&) {},
                 [&]() { closed.set_value(); });
  client_->start([](const ChannelMessage&) {});
  client_->close();
  EXPECT_EQ(closed.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_FALSE(client_->send(TunnelSignal{0, CloseSignal{}}));
}

TEST_F(LoopbackPair, MediaChannelSetupOverRealSockets) {
  // Drive the actual protocol machinery — two endpoint goals and slot FSMs
  // — over the socket: open/oack/select end to end.
  std::mutex mutex;
  std::condition_variable cv;

  SlotEndpoint caller_slot{SlotId{1}, /*channel_initiator=*/true};
  OpenSlotGoal caller{Medium::audio,
                     MediaIntent::endpoint(MediaAddress::parse("10.0.0.1", 5000),
                                           {Codec::g711u}),
                     DescriptorFactory{1}};
  SlotEndpoint callee_slot{SlotId{2}, false};
  HoldSlotGoal callee{MediaIntent::endpoint(MediaAddress::parse("10.0.0.2", 5000),
                                            {Codec::g711u}),
                      DescriptorFactory{2}};

  auto pump = [](TcpSignalingPeer& peer, Outbox&& out) {
    for (auto& item : out.take()) {
      ASSERT_TRUE(peer.send(TunnelSignal{0, std::move(item.signal)}));
    }
  };

  // Server side: callee goal reacts to every inbound signal.
  server_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto& ts = std::get<TunnelSignal>(m);
    auto result = callee_slot.deliver(ts.signal);
    Outbox out;
    if (result.autoReply) out.send(callee_slot.id(), *result.autoReply);
    callee.onEvent(callee_slot, result.event, out);
    pump(*server_, std::move(out));
    cv.notify_one();
  });
  // Client side: caller goal likewise.
  client_->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto& ts = std::get<TunnelSignal>(m);
    auto result = caller_slot.deliver(ts.signal);
    Outbox out;
    if (result.autoReply) out.send(caller_slot.id(), *result.autoReply);
    caller.onEvent(caller_slot, result.event, out);
    pump(*client_, std::move(out));
    cv.notify_one();
  });

  {
    std::lock_guard<std::mutex> lock(mutex);
    Outbox out;
    caller.attach(caller_slot, out);
    pump(*client_, std::move(out));
  }

  std::unique_lock<std::mutex> lock(mutex);
  const bool converged = cv.wait_for(lock, std::chrono::seconds(5), [&]() {
    return caller_slot.state() == ProtocolState::flowing &&
           callee_slot.state() == ProtocolState::flowing &&
           caller_slot.lastSelectorReceived().has_value() &&
           callee_slot.lastSelectorReceived().has_value();
  });
  ASSERT_TRUE(converged);
  EXPECT_EQ(caller_slot.lastSelectorReceived()->codec, Codec::g711u);
  EXPECT_EQ(callee_slot.lastSelectorReceived()->codec, Codec::g711u);
}

}  // namespace
}  // namespace cmc::net
