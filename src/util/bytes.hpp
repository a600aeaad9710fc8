// Byte-oriented serialization used by the wire format (src/net) and by the
// model checker's state canonicalization (src/mc).
//
// Encoding is little-endian, fixed width for integers, and length-prefixed
// for strings and sequences. It is intentionally simple: both ends of a
// signaling channel run this library, so no cross-version negotiation is
// needed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cmc {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    std::uint8_t le[4];
    for (int i = 0; i < 4; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), le, le + 4);
  }

  void u64(std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    buf_.insert(buf_.end(), le, le + 8);
  }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  // Empty the buffer but keep its capacity, so a writer reused across many
  // encodings (the explorer canonicalizes every successor) stops allocating.
  void clear() noexcept { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Reader over a borrowed byte span. All reads are checked: running off the
// end marks the reader bad and subsequent reads return zero values, so a
// malformed frame cannot cause out-of-bounds access. Callers check ok()
// once after decoding a whole message.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}

  explicit ByteReader(const std::vector<std::uint8_t>& v) noexcept
      : ByteReader(v.data(), v.size()) {}

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (!ensure(1)) return 0;
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() noexcept {
    if (!ensure(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32() noexcept {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() noexcept {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] bool boolean() noexcept { return u8() != 0; }

  [[nodiscard]] std::string str() noexcept {
    const std::uint32_t len = u32();
    if (!ensure(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool atEnd() const noexcept { return pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

 private:
  [[nodiscard]] bool ensure(std::size_t n) noexcept {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// FNV-1a over a byte range: a stable, order-sensitive hash whose values go
// on the wire (net frame checksums, the dist spec hash), so it must never
// change. It runs a byte at a time; hot in-process hashing uses stateHash.
[[nodiscard]] constexpr std::uint64_t fnv1a(const std::uint8_t* data,
                                            std::size_t size,
                                            std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(const std::vector<std::uint8_t>& v,
                                         std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept {
  return fnv1a(v.data(), v.size(), seed);
}

// 64-bit hash of a model-checker state's canonical bytes, a word at a time:
// the explorer's dedup key and PathSystem::fingerprint(). Its values never
// leave the process (the seen-set verifies full bytes on every match), so it
// is free to change; it is not fnv1a and must not replace it on the wire.
//
// Each 8-byte little-endian word w_i updates h <- rotl(h ^ w_i * K1, 29) * K2,
// and the 0..7 trailing bytes form one last zero-padded word; the length is
// folded into the seed and the result goes through the murmur3 finalizer.
// Every step is a bijection of h for fixed input words, so inputs of equal
// length that differ in exactly one word (in particular in one byte) always
// hash differently.
[[nodiscard]] inline std::uint64_t stateHash(const std::uint8_t* data,
                                             std::size_t size) noexcept {
  constexpr std::uint64_t k1 = 0x9e3779b97f4a7c15ULL;
  constexpr std::uint64_t k2 = 0xbf58476d1ce4e5b9ULL;
  auto step = [](std::uint64_t h, std::uint64_t word) {
    return std::rotl(h ^ word * k1, 29) * k2;
  };
  auto load_le = [](const std::uint8_t* p, std::size_t n) {
    std::uint64_t word = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&word, p, n);  // one load for a full word
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
      }
    }
    return word;
  };
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ (size * k2);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) h = step(h, load_le(data + i, 8));
  if (i < size) h = step(h, load_le(data + i, size - i));
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

[[nodiscard]] inline std::uint64_t stateHash(const std::vector<std::uint8_t>& v) noexcept {
  return stateHash(v.data(), v.size());
}

}  // namespace cmc
