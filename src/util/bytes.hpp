// Byte-oriented serialization used by the wire format (src/net) and by the
// model checker's state canonicalization (src/mc).
//
// Encoding is little-endian, fixed width for integers, and length-prefixed
// for strings and sequences. It is intentionally simple: both ends of a
// signaling channel run this library, so no cross-version negotiation is
// needed.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cmc {

// Appends each field with one bounds check and one memcpy into capacity the
// writer keeps: its vector is sized out to the whole capacity, and only the
// first size() bytes are written ones. bytes() and take() cut the vector
// back to those, so callers see exactly what was written. A writer reused
// across clear() (the explorer canonicalizes every successor with one)
// stops allocating once it has held its longest encoding.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { *append(1) = v; }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(append(s.size()), s.data(), s.size());
  }

  // The bytes written so far (the vector is cut to them, keeping capacity).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    buf_.resize(size_);
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  // Empty the writer but keep its capacity.
  void clear() noexcept { size_ = 0; }

 private:
  // Room for `n` more bytes, which the caller then fills.
  std::uint8_t* append(std::size_t n) {
    if (buf_.size() - size_ < n) [[unlikely]] expand(n);
    std::uint8_t* at = buf_.data() + size_;
    size_ += n;
    return at;
  }

  // Sizes the vector out to its capacity, or past it when `n` does not
  // fit, where the vector's own growth doubles it.
  void expand(std::size_t n) {
    constexpr std::size_t kFirstCapacity = 64;
    buf_.resize(std::max({buf_.capacity(), size_ + n, kFirstCapacity}));
  }

  template <typename T>
  void le(T v) {
    std::uint8_t* at = append(sizeof(T));
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(at, &v, sizeof(T));
    } else {
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        at[i] = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }

  // Invariant: size_ <= buf_.size(). Mutable so bytes() can cut it.
  mutable std::vector<std::uint8_t> buf_;
  std::size_t size_ = 0;
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
