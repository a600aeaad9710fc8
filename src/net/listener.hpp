// Listener: the one loopback listening socket.
//
// The signaling examples and tests, the ops endpoint (obs/ops_server) and
// the dist driver (load/dist) all accept framed connections on
// 127.0.0.1:port. A Listener binds and listens there (port 0 picks a free
// port) and turns each accepted socket into a net::FramedConn.
//
// Teardown follows the FramedConn rule, shutdown → join → close: the owner
// calls shutdown() to wake an acceptor blocked in accept() (it returns
// nullptr), joins the acceptor, and only then close()s — or lets the
// destructor do it. Closing while another thread sits in accept() races on
// the descriptor.
//
// Header-only for the same reason as net/framed_rpc.hpp: cmc_obs uses it,
// and cmc_net links cmc_obs.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <memory>

#include "net/framed_rpc.hpp"

namespace cmc::net {

class Listener {
 public:
  // Pending-connection queue length: room for a whole dist fleet dialing
  // in at once.
  static constexpr int kBacklog = 16;

  explicit Listener(std::uint16_t port = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, kBacklog) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      close();
      return;
    }
    port_ = ntohs(addr.sin_port);
  }

  ~Listener() { close(); }

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  // Block until a connection arrives; nullptr once shutdown() has run (or
  // on error).
  [[nodiscard]] std::unique_ptr<FramedConn> accept() {
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) return nullptr;
    return std::make_unique<FramedConn>(fd);
  }

  // Wake a blocked accept() from any thread; the descriptor stays open.
  void shutdown() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }

  // Only after the acceptor has been joined.
  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace cmc::net
