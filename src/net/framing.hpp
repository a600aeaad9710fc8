// Length-prefixed framing over a byte stream: the one frame format of every
// TCP link in this repo — signaling channels, the ops endpoint and the
// distributed load plane.
//
// A signaling channel between physical components is typically TCP (paper
// Section III-A): two-way, FIFO, reliable. TCP gives a byte stream, so
// messages are delimited with an 8-byte header — a 4-byte little-endian
// body length and a 4-byte FNV-1a checksum of the body — followed by the
// body bytes. Signaling frames carry a ChannelMessage serialization from
// src/channel; the ops and dist protocols carry their own opaque bodies.
//
// The checksum guards against payload corruption (faulty middlebox, bit rot
// in a relaying component): a frame whose body fails the check is discarded
// as if the network had lost it — the protocols above already self-stabilize
// or retry under loss (docs/FAULTS.md) — rather than poisoning the whole
// connection. Only a header that has plainly lost sync (absurd length), or a
// checksum-valid body that its protocol cannot parse (a framing bug, not line
// noise), kills the stream.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/channel.hpp"
#include "util/bytes.hpp"

namespace cmc::net {

[[nodiscard]] inline std::uint32_t frameChecksum(const std::uint8_t* data,
                                                 std::size_t size) {
  return static_cast<std::uint32_t>(fnv1a(data, size));
}

// Encode one body as a frame: [length u32][checksum u32][body].
[[nodiscard]] inline std::vector<std::uint8_t> encodeRawFrame(
    const std::vector<std::uint8_t>& body) {
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(frameChecksum(body.data(), body.size()));
  std::vector<std::uint8_t> out = frame.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

// Encode one signaling message as a frame.
[[nodiscard]] inline std::vector<std::uint8_t> encodeFrame(
    const ChannelMessage& message) {
  ByteWriter body;
  serialize(message, body);
  return encodeRawFrame(body.bytes());
}

// Parse a frame body as a signaling message; nullopt if it does not parse.
[[nodiscard]] inline std::optional<ChannelMessage> decodeChannelMessage(
    const std::vector<std::uint8_t>& body) {
  ByteReader reader(body.data(), body.size());
  return deserializeChannelMessage(reader);
}

// The frame decoder: feed arbitrary byte chunks, pop whole bodies in order.
// A frame failing its checksum is skipped (corruptFrames() counts it) —
// equivalent to network loss. A hostile length, or a poison() from the
// protocol layer, marks the stream as out of sync (error()); from then on
// next() returns nothing, whatever bytes follow, and the connection should
// be dropped.
//
// Popping a frame only advances a read offset; consumed bytes are dropped
// from the front of the buffer when a feed finds them to be at least half
// of it, so decoding is linear in the bytes fed however they are chunked.
class RawFrameDecoder {
 public:
  // Maximum accepted frame size; malformed/hostile lengths are rejected.
  static constexpr std::uint32_t kMaxFrame = 1 << 20;

  void feed(const std::uint8_t* data, std::size_t size) {
    if (read_ > 0 && read_ * 2 >= buffer_.size()) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(read_));
      read_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
  }

  // Returns the next complete body, or nullopt if more bytes are needed
  // (or the stream is poisoned).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> next() {
    while (!error_ && buffered() >= kHeaderSize) {
      const std::uint32_t length = readU32(read_);
      const std::uint32_t checksum = readU32(read_ + 4);
      if (length > kMaxFrame) {
        error_ = true;
        return std::nullopt;
      }
      const std::size_t frame_size = kHeaderSize + length;
      if (buffered() < frame_size) return std::nullopt;
      const std::uint8_t* body = buffer_.data() + read_ + kHeaderSize;
      read_ += frame_size;
      if (frameChecksum(body, length) == checksum) {
        return std::vector<std::uint8_t>(body, body + length);
      }
      ++corrupt_frames_;
    }
    return std::nullopt;
  }

  // A checksum-valid body that its protocol cannot parse: the stream has
  // lost sync just as surely as after a hostile length.
  void poison() noexcept { error_ = true; }

  [[nodiscard]] bool error() const noexcept { return error_; }
  // Bytes fed but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - read_;
  }
  // Frames discarded for checksum mismatch.
  [[nodiscard]] std::uint64_t corruptFrames() const noexcept {
    return corrupt_frames_;
  }

 private:
  static constexpr std::size_t kHeaderSize = 8;

  [[nodiscard]] std::uint32_t readU32(std::size_t offset) const noexcept {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(buffer_[offset + i]) << (8 * i);
    }
    return value;
  }

  std::vector<std::uint8_t> buffer_;
  std::size_t read_ = 0;  // start of the unconsumed bytes in buffer_
  bool error_ = false;
  std::uint64_t corrupt_frames_ = 0;
};

// The same decoder viewed as a stream of signaling messages: each body is
// parsed with decodeChannelMessage, and a body that does not parse poisons
// the stream.
class FrameDecoder {
 public:
  static constexpr std::uint32_t kMaxFrame = RawFrameDecoder::kMaxFrame;

  void feed(const std::uint8_t* data, std::size_t size) {
    raw_.feed(data, size);
  }

  [[nodiscard]] std::optional<ChannelMessage> next() {
    auto body = raw_.next();
    if (!body) return std::nullopt;
    auto message = decodeChannelMessage(*body);
    if (!message) raw_.poison();
    return message;
  }

  [[nodiscard]] bool error() const noexcept { return raw_.error(); }
  [[nodiscard]] std::size_t buffered() const noexcept { return raw_.buffered(); }
  [[nodiscard]] std::uint64_t corruptFrames() const noexcept {
    return raw_.corruptFrames();
  }

 private:
  RawFrameDecoder raw_;
};

}  // namespace cmc::net
