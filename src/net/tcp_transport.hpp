// TCP realization of a signaling channel (paper Fig. 1: signaling rides a
// reliable transport between boxes in different physical components).
//
// A TcpSignalingPeer is a net::FramedConn plus a background reader thread:
// sends are synchronous and serialized by the connection, and the reader
// decodes frames and hands complete ChannelMessages to the registered
// callback. FIFO and reliability come from TCP itself, satisfying the
// signaling-channel contract of Section III-A. The accepting side gets its
// connections from a net::Listener.
//
// The peer is intentionally small: the protocol and goal machinery neither
// know nor care whether their tunnel is an in-process deque
// (ChannelState), a simulated link, or this socket.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "net/framed_rpc.hpp"

namespace cmc::net {

class TcpSignalingPeer {
 public:
  using MessageHandler = std::function<void(const ChannelMessage&)>;
  using ClosedHandler = std::function<void()>;

  // Takes ownership of a connected socket (e.g. from Listener::accept()).
  explicit TcpSignalingPeer(std::unique_ptr<FramedConn> conn);
  ~TcpSignalingPeer();

  TcpSignalingPeer(const TcpSignalingPeer&) = delete;
  TcpSignalingPeer& operator=(const TcpSignalingPeer&) = delete;

  // Register handlers and start the reader thread. Call once. on_closed
  // runs once, on the reader thread, when the connection ends.
  void start(MessageHandler on_message, ClosedHandler on_closed = nullptr);

  // Send a message; thread-safe. Returns false if the connection is gone.
  bool send(const ChannelMessage& message);

  // Hang up: the far end sees EOF and this peer's reader stops. Callable
  // from any thread, including a handler.
  void close();
  [[nodiscard]] bool isOpen() const noexcept { return open_.load(); }

  // ------------------------------------------------- fault-injection hooks
  // Swallow the next send entirely (the frame never reaches the wire),
  // modeling loss below TCP — e.g. a dying relay. Test-only.
  void dropNextFrame() { drop_next_.store(true); }
  // Flip a byte in the next frame's body before sending; the peer's
  // checksum rejects it and counts it as corrupt. Test-only.
  void corruptNextFrame() { corrupt_next_.store(true); }

  // Connect to a listening peer. Returns nullptr on failure.
  [[nodiscard]] static std::unique_ptr<TcpSignalingPeer> connect(
      const std::string& host, std::uint16_t port);

 private:
  void readLoop();

  std::unique_ptr<FramedConn> conn_;
  std::atomic<bool> open_{true};
  std::atomic<bool> drop_next_{false};
  std::atomic<bool> corrupt_next_{false};
  MessageHandler on_message_;
  ClosedHandler on_closed_;
  std::thread reader_;
};

}  // namespace cmc::net
