// Unit tests for src/util: ids, rng, bytes, time.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <unordered_set>

#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace cmc {
namespace {

TEST(Ids, DefaultIsInvalid) {
  SlotId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, SlotId{});
}

TEST(Ids, ValueRoundTrip) {
  SlotId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(SlotId{1}, SlotId{2});
  EXPECT_NE(SlotId{1}, SlotId{2});
}

TEST(Ids, StreamFormat) {
  std::ostringstream oss;
  oss << TunnelId{7};
  EXPECT_EQ(oss.str(), "tun:7");
}

TEST(Ids, AllocatorIsMonotonic) {
  IdAllocator<BoxId> alloc;
  BoxId a = alloc.next();
  BoxId b = alloc.next();
  EXPECT_LT(a, b);
  EXPECT_TRUE(a.valid());
}

TEST(Ids, HashUsableInUnorderedSet) {
  std::unordered_set<SlotId> set;
  set.insert(SlotId{1});
  set.insert(SlotId{1});
  set.insert(SlotId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Rng, DeterministicFromSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng{9};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, Uniform01InRange) {
  Rng rng{11};
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanRoughlyCentered) {
  Rng rng{13};
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform(2.0, 4.0);
  EXPECT_NEAR(sum / kN, 3.0, 0.05);
}

TEST(Bytes, IntegerRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.boolean(true);

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.atEnd());
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string(1000, 'x'));

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string(1000, 'x'));
  EXPECT_TRUE(r.ok());
}

TEST(Bytes, OverrunMarksReaderBad) {
  ByteWriter w;
  w.u16(7);
  ByteReader r{w.bytes()};
  (void)r.u32();  // only 2 bytes available
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, BadReaderReturnsZeroes) {
  std::vector<std::uint8_t> empty;
  ByteReader r{empty};
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, TruncatedStringFails) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes follow; none do
  ByteReader r{w.bytes()};
  (void)r.str();
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, Fnv1aStableAndOrderSensitive) {
  ByteWriter a, b;
  a.u8(1);
  a.u8(2);
  b.u8(2);
  b.u8(1);
  EXPECT_NE(fnv1a(a.bytes()), fnv1a(b.bytes()));
  EXPECT_EQ(fnv1a(a.bytes()), fnv1a(a.bytes()));
}

TEST(Bytes, StateHashSeesEverySingleByteFlip) {
  // Lengths 0..40 cover empty input, the partial-word tail at every size,
  // and several full words. Flipping any one byte must change the hash.
  for (std::size_t len = 0; len <= 40; ++len) {
    std::vector<std::uint8_t> bytes(len);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 37 + len);
    }
    const std::uint64_t base = stateHash(bytes);
    EXPECT_EQ(stateHash(bytes.data(), bytes.size()), base);
    for (std::size_t i = 0; i < len; ++i) {
      for (std::uint8_t mask : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                std::uint8_t{0xFF}}) {
        std::vector<std::uint8_t> flipped = bytes;
        flipped[i] ^= mask;
        EXPECT_NE(stateHash(flipped), base)
            << "len " << len << " byte " << i << " mask " << int(mask);
      }
    }
  }
}

TEST(Bytes, StateHashSeparatesLengths) {
  // Zero padding of the tail word must not make a prefix hash like the
  // longer input it pads to.
  const std::vector<std::uint8_t> shorter{1, 2, 3};
  const std::vector<std::uint8_t> longer{1, 2, 3, 0};
  EXPECT_NE(stateHash(shorter), stateHash(longer));
  EXPECT_NE(stateHash(std::vector<std::uint8_t>{}),
            stateHash(std::vector<std::uint8_t>{0}));
}

// The fields of one test encoding; `n` sets the string's length.
void encodeSample(ByteWriter& w, std::size_t n) {
  w.u8(static_cast<std::uint8_t>(n));
  w.u16(static_cast<std::uint16_t>(n * 3));
  w.str(std::string(n, static_cast<char>('a' + n % 26)));
  w.u32(static_cast<std::uint32_t>(n * 7));
  w.u64(0x0102030405060708ULL ^ n);
  w.boolean(n % 2 == 1);
}

TEST(Bytes, WriterReusedAcrossClearMatchesAFreshOne) {
  // Shorter and longer encodings in turn, so a reused writer both writes
  // inside capacity it already holds and grows past it. An encoding is
  // 20 + n bytes: n = 43..45 and 108..109 end on either side of 64 and 128.
  ByteWriter reused;
  for (const std::size_t n : {0u, 5u, 300u, 7u, 1000u, 43u, 44u, 45u, 108u,
                              109u, 3u, 5000u, 0u}) {
    reused.clear();
    encodeSample(reused, n);
    ByteWriter fresh;
    encodeSample(fresh, n);
    EXPECT_EQ(reused.size(), fresh.bytes().size()) << "n=" << n;
    EXPECT_EQ(reused.bytes(), fresh.bytes()) << "n=" << n;
  }
}

TEST(Bytes, StrAcrossAGrowthBoundaryKeepsEveryByte) {
  ByteWriter w;
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  std::vector<std::uint8_t> expected{0x34, 0x12, 0xef, 0xbe, 0xad, 0xde};
  EXPECT_EQ(w.bytes(), expected);
  // Longer than the room left: the writer grows in the middle of it.
  const std::string text(100, 'z');
  w.str(text);
  expected.insert(expected.end(), {100, 0, 0, 0});
  expected.insert(expected.end(), text.begin(), text.end());
  EXPECT_EQ(w.bytes(), expected);
  // Writing on after bytes() continues right behind what it returned.
  w.u64(0x0807060504030201ULL);
  expected.insert(expected.end(), {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(w.size(), expected.size());
  EXPECT_EQ(w.bytes(), expected);
}

TEST(Bytes, TakeAfterGrowthReturnsExactlyTheWrittenBytes) {
  ByteWriter w;
  std::vector<std::uint8_t> expected;
  for (std::uint16_t i = 0; i < 1000; ++i) {
    w.u16(i);
    expected.push_back(static_cast<std::uint8_t>(i));
    expected.push_back(static_cast<std::uint8_t>(i >> 8));
  }
  EXPECT_EQ(w.take(), expected);
  EXPECT_EQ(w.size(), 0u);
  // The writer is empty after take() and encodes afresh.
  encodeSample(w, 9);
  ByteWriter fresh;
  encodeSample(fresh, 9);
  EXPECT_EQ(w.take(), fresh.bytes());
}

TEST(SimTime, ArithmeticAndComparison) {
  using namespace literals;
  SimTime t0;
  SimTime t1 = t0 + 5_ms;
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0), 5_ms);
  EXPECT_DOUBLE_EQ(t1.millis(), 5.0);
}

TEST(SimTime, LiteralUnits) {
  using namespace literals;
  EXPECT_EQ(1_s, 1000_ms);
  EXPECT_EQ(1_ms, 1000_us);
}

}  // namespace
}  // namespace cmc
