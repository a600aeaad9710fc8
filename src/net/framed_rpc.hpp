// FramedConn: the one framed TCP connection.
//
// Every link in this repo rides the [length][checksum][body] frames of
// net/framing.hpp: the signaling peer (net/tcp_transport), the read-only
// ops/telemetry plane (obs/ops_server) and the distributed load coordinator
// (load/dist). They share this one connection type: connect to a loopback
// peer (or adopt an accepted socket from net::Listener), send whole frames
// (thread-safe, so a sampler thread can interleave with the main
// conversation), and pop complete frame bodies off the stream with the
// decoder state carried across reads. The protocols above are thin layers
// over it.
//
// Read semantics mirror the decoder contract: a corrupt frame is skipped
// like line noise (counted, never surfaced), a hostile length poisons the
// stream (lastRead() == poisoned; hang up), EOF and receive timeouts are
// reported distinctly so callers can attribute "peer died" vs "peer is
// slow" — the distinction the dist driver's failure reports are built on.
//
// Teardown follows one rule: shutdown → join → close. shutdown() wakes a
// thread blocked in readFrame() (it observes EOF) and fails later sends,
// but leaves the descriptor open; close() releases the descriptor and may
// only run once no other thread can touch the connection — after its
// reader has been joined (closeAfter() does all three), or on the reader's
// own thread. Closing under a blocked recv() is a data race on the fd (and
// the number may be reused by another socket before the reader wakes).
//
// Header-only on purpose: cmc_net links cmc_obs (trace stamping), and
// cmc_obs's OpsServer/OpsClient need this type, so an out-of-line
// definition in either library would cycle.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/framing.hpp"

namespace cmc::net {

class FramedConn {
 public:
  enum class ReadStatus {
    none,      // no read attempted yet
    frame,     // last read produced a complete frame
    timeout,   // receive timed out with no complete frame
    closed,    // peer closed (or connection error)
    poisoned,  // hostile length header: stream lost sync, hang up
  };

  // Adopt a connected socket. Frames are small and latency-sensitive on
  // every protocol that rides them, so Nagle is off.
  explicit FramedConn(int fd) : fd_(fd) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~FramedConn() { close(); }

  FramedConn(const FramedConn&) = delete;
  FramedConn& operator=(const FramedConn&) = delete;

  // Connect to host:port; nullptr on failure. recv_timeout_ms bounds every
  // subsequent read (a response may legitimately never come — the peer
  // discards corrupted request frames as loss — so reads must not hang);
  // 0 waits forever.
  [[nodiscard]] static std::unique_ptr<FramedConn> connect(
      const std::string& host, std::uint16_t port,
      std::int64_t recv_timeout_ms = 5'000) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return nullptr;
    }
    auto conn = std::make_unique<FramedConn>(fd);
    conn->setRecvTimeoutMs(recv_timeout_ms);
    return conn;
  }

  void setRecvTimeoutMs(std::int64_t ms) {
    if (fd_ < 0 || ms < 0) return;
    timeval timeout{};
    timeout.tv_sec = ms / 1000;
    timeout.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  // Frame `body` and send it. Thread-safe: sends are serialized, so a
  // background progress stream cannot interleave bytes with the main
  // conversation. Returns false when the connection is gone.
  bool sendFrame(const std::vector<std::uint8_t>& body) {
    return sendBytes(encodeRawFrame(body));
  }

  // Send raw bytes as-is (pre-framed, torn, or garbage — the protocol-abuse
  // tests speak malformed wire through this).
  bool sendBytes(const std::vector<std::uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (fd_ < 0) return false;
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Next complete frame body, or nullopt — inspect lastRead() to tell a
  // timeout from EOF from a poisoned stream. Decoder state (including a
  // partially received frame) carries over between calls. One reader at a
  // time.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> readFrame() {
    if (fd_ < 0) {
      last_read_ = ReadStatus::closed;
      return std::nullopt;
    }
    std::uint8_t chunk[4096];
    while (true) {
      if (auto frame = decoder_.next()) {
        last_read_ = ReadStatus::frame;
        return frame;
      }
      if (decoder_.error()) {
        last_read_ = ReadStatus::poisoned;
        return std::nullopt;
      }
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) {
        last_read_ = ReadStatus::closed;
        return std::nullopt;
      }
      if (n < 0) {
        last_read_ = (errno == EAGAIN || errno == EWOULDBLOCK)
                         ? ReadStatus::timeout
                         : ReadStatus::closed;
        return std::nullopt;
      }
      bytes_received_ += static_cast<std::uint64_t>(n);
      decoder_.feed(chunk, static_cast<std::size_t>(n));
    }
  }

  [[nodiscard]] ReadStatus lastRead() const noexcept { return last_read_; }
  [[nodiscard]] bool isOpen() const noexcept { return fd_ >= 0; }
  // Reader-side tallies: frames skipped for checksum mismatch, and wire
  // bytes received (headers and skipped frames included).
  [[nodiscard]] std::uint64_t corruptFrames() const noexcept {
    return decoder_.corruptFrames();
  }
  [[nodiscard]] std::uint64_t bytesReceived() const noexcept {
    return bytes_received_;
  }

  // Wake a reader blocked in readFrame() from any thread (it observes EOF)
  // and make the peer see EOF; the descriptor stays owned until close().
  void shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  // Release the descriptor. Only once no other thread uses the connection
  // (see the header comment).
  void close() {
    std::lock_guard<std::mutex> lock(send_mutex_);
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

  // The teardown rule in one call: wake `reader`, wait for it, then close.
  void closeAfter(std::thread& reader) {
    shutdown();
    if (reader.joinable()) reader.join();
    close();
  }

 private:
  int fd_ = -1;
  RawFrameDecoder decoder_;
  ReadStatus last_read_ = ReadStatus::none;
  std::uint64_t bytes_received_ = 0;
  std::mutex send_mutex_;
};

}  // namespace cmc::net
