// Signaling channels (paper Section III-A).
//
// A signaling channel is two-way, FIFO, and reliable; between physical
// components it is typically TCP, within a component it is a pair of
// software queues. Each channel is partitioned statically into tunnels,
// each of which carries the media-control protocol for one media channel.
// The endpoint of a tunnel at a box is a slot.
//
// ChannelState is the in-memory (pair-of-queues) realization, a pure value
// type so that whole system configurations can be copied and fingerprinted
// by the model checker. The TCP realization lives in src/net and carries
// the same ChannelMessage frames.
//
// Each queue is a SmallVec FIFO, not a std::deque: the model checker copies
// every channel once per explored successor, queues hold 0-2 messages in
// nearly every state, and libstdc++ allocates a map and a 512 B node even
// for an empty deque. Popping the head shifts the rest down, which is
// cheaper than the allocation at these depths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <variant>

#include "channel/meta.hpp"
#include "obs/context.hpp"
#include "protocol/signal.hpp"
#include "util/ids.hpp"
#include "util/small_vec.hpp"

namespace cmc {

// The two ends of a signaling channel. Side::A is the end that initiated
// setup of the channel, which matters for open/open race resolution
// (Section VI-B: the race winner is the channel initiator).
enum class Side : std::uint8_t { A = 0, B = 1 };

[[nodiscard]] constexpr Side opposite(Side s) noexcept {
  return s == Side::A ? Side::B : Side::A;
}

std::ostream& operator<<(std::ostream& os, Side side);

// A tunnel signal in flight: which tunnel of the channel, and the protocol
// signal itself. The trace context is causal provenance (obs/context.hpp),
// not protocol state: it is excluded from equality, and an empty context
// serializes exactly as the context-free format, so model-checker
// fingerprints and fault-free wire bytes are unchanged unless propagation
// is actually on.
struct TunnelSignal {
  std::uint32_t tunnel = 0;
  Signal signal;
  obs::TraceContext ctx{};

  friend bool operator==(const TunnelSignal& a, const TunnelSignal& b) {
    return a.tunnel == b.tunnel && a.signal == b.signal;
  }
};

using ChannelMessage = std::variant<TunnelSignal, MetaSignal>;

void serialize(const ChannelMessage& m, ByteWriter& w);
[[nodiscard]] std::optional<ChannelMessage> deserializeChannelMessage(ByteReader& r);
std::ostream& operator<<(std::ostream& os, const ChannelMessage& m);

class ChannelState {
 public:
  ChannelState() = default;
  ChannelState(ChannelId id, std::uint32_t tunnel_count)
      : id_(id), tunnel_count_(tunnel_count) {}

  [[nodiscard]] ChannelId id() const noexcept { return id_; }
  [[nodiscard]] std::uint32_t tunnelCount() const noexcept { return tunnel_count_; }

  // Enqueue a message traveling toward `toward`.
  void push(Side toward, ChannelMessage message) {
    queueToward(toward).push_back(std::move(message));
  }

  [[nodiscard]] bool hasMessageToward(Side toward) const noexcept {
    return !queueToward(toward).empty();
  }

  [[nodiscard]] const ChannelMessage& peek(Side toward) const {
    return queueToward(toward).front();
  }

  // Dequeue the oldest message traveling toward `toward`. FIFO order is the
  // channel's reliability contract; there is no reordering.
  [[nodiscard]] ChannelMessage pop(Side toward) {
    auto& q = queueToward(toward);
    ChannelMessage m = std::move(q.front());
    eraseHead(q);
    return m;
  }

  [[nodiscard]] std::size_t depthToward(Side toward) const noexcept {
    return queueToward(toward).size();
  }

  // --- Fault injection (docs/FAULTS.md). The channel itself stays FIFO;
  // faults are modeled as losing or duplicating the head message, which is
  // how loss/duplication looks to the receiving slot on a FIFO transport.
  void dropHead(Side toward) {
    auto& q = queueToward(toward);
    if (!q.empty()) eraseHead(q);
  }
  void duplicateHead(Side toward) {
    auto& q = queueToward(toward);
    if (q.empty()) return;
    // Copy before pushing: a push that spills reallocates under q.front().
    ChannelMessage copy = q.front();
    q.push_back(std::move(copy));
    std::rotate(q.begin(), q.end() - 1, q.end());
  }

  [[nodiscard]] bool empty() const noexcept {
    return queues_[0].empty() && queues_[1].empty();
  }

  void canonicalize(ByteWriter& w) const;

 private:
  using Queue = SmallVec<ChannelMessage, 2>;

  [[nodiscard]] Queue& queueToward(Side s) noexcept {
    return queues_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Queue& queueToward(Side s) const noexcept {
    return queues_[static_cast<std::size_t>(s)];
  }
  static void eraseHead(Queue& q) {
    std::move(q.begin() + 1, q.end(), q.begin());
    q.pop_back();
  }

  ChannelId id_;
  std::uint32_t tunnel_count_ = 1;
  Queue queues_[2];  // indexed by the Side they travel toward
};

}  // namespace cmc
