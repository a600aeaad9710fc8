#include "obs/ops_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <exception>

#include "net/framed_rpc.hpp"
#include "net/framing.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"

namespace cmc::obs {

namespace {

bool sendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::uint8_t> encodeResponse(bool ok, std::string_view ctype,
                                         std::string_view payload) {
  ByteWriter body;
  body.u8(ok ? 0 : 1);
  body.str(ctype);
  body.str(payload);
  return net::encodeRawFrame(body.bytes());
}

}  // namespace

struct OpsServer::Session {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> done{false};
};

OpsServer::OpsServer(std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
}

OpsServer::~OpsServer() { stop(); }

void OpsServer::handle(std::string verb, std::string content_type,
                       Handler handler) {
  std::lock_guard<std::mutex> lock(mutex_);
  verbs_[std::move(verb)] = {std::move(content_type), std::move(handler)};
}

void OpsServer::start() {
  if (listen_fd_ < 0 || running_.exchange(true)) return;
  acceptor_ = std::thread([this]() { acceptLoop(); });
}

void OpsServer::stop() {
  if (!running_.exchange(false)) {
    // Never started (or already stopped): still close the listener.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // shutdown() wakes the blocked accept(); the fd is closed and cleared
  // only once the acceptor, which reads listen_fd_, has exited.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions.swap(sessions_);
  }
  for (auto& session : sessions) {
    ::shutdown(session->fd, SHUT_RDWR);
    if (session->thread.joinable()) session->thread.join();
    ::close(session->fd);
  }
}

std::uint64_t OpsServer::requestsServed() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

std::uint64_t OpsServer::errorsServed() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return errors_;
}

void OpsServer::acceptLoop() {
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;  // listener closed by stop()
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto session = std::make_unique<Session>();
    session->fd = fd;
    Session* raw = session.get();
    session->thread = std::thread([this, raw]() {
      serveConnection(raw->fd);
      raw->done.store(true);
    });
    std::lock_guard<std::mutex> lock(mutex_);
    // Reap finished sessions so a polling client that reconnects every
    // interval does not grow the list without bound.
    for (std::size_t i = 0; i < sessions_.size();) {
      if (sessions_[i]->done.load()) {
        if (sessions_[i]->thread.joinable()) sessions_[i]->thread.join();
        ::close(sessions_[i]->fd);
        sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    sessions_.push_back(std::move(session));
  }
}

void OpsServer::serveConnection(int fd) {
  net::RawFrameDecoder decoder;
  std::uint8_t chunk[4096];
  bool serving = true;
  while (serving && running_.load()) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    decoder.feed(chunk, static_cast<std::size_t>(n));
    while (auto request = decoder.next()) {
      if (!sendAll(fd, respond(*request))) {
        serving = false;
        break;
      }
    }
    if (decoder.error()) {
      // Hostile length header: the stream has lost sync; there is no way
      // to even frame an error response, so drop the connection. The
      // listener keeps serving other clients.
      log::warn("ops", "malformed frame header; dropping ops connection");
      serving = false;
    }
  }
  // The fd itself is closed when the session is reaped (or at stop());
  // shut it down now so the peer sees EOF instead of waiting out a
  // receive timeout.
  ::shutdown(fd, SHUT_RDWR);
}

std::vector<std::uint8_t> OpsServer::respond(
    const std::vector<std::uint8_t>& request) {
  ByteReader reader(request.data(), request.size());
  const std::string verb = reader.str();
  const std::string args = reader.str();
  if (!reader.ok() || !reader.atEnd()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
    ++errors_;
    return encodeResponse(false, "text/plain", "malformed request body");
  }
  Handler handler;
  std::string ctype;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
    auto it = verbs_.find(verb);
    if (it == verbs_.end()) {
      ++errors_;
      return encodeResponse(false, "text/plain", "unknown verb: " + verb);
    }
    ctype = it->second.first;
    handler = it->second.second;
  }
  try {
    return encodeResponse(true, ctype, handler(args));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++errors_;
    return encodeResponse(false, "text/plain",
                          std::string("handler failed: ") + e.what());
  }
}

OpsClient::OpsClient(std::unique_ptr<net::FramedConn> conn)
    : conn_(std::move(conn)) {}

OpsClient::~OpsClient() = default;

std::unique_ptr<OpsClient> OpsClient::connect(const std::string& host,
                                              std::uint16_t port) {
  // A response may legitimately never come (the server discarded a
  // corrupted request frame as loss); FramedConn's receive timeout bounds
  // the wait instead of hanging.
  auto conn = net::FramedConn::connect(host, port, 5'000);
  if (!conn) return nullptr;
  return std::unique_ptr<OpsClient>(new OpsClient(std::move(conn)));
}

std::optional<OpsClient::Response> OpsClient::request(const std::string& verb,
                                                      const std::string& args) {
  ByteWriter body;
  body.str(verb);
  body.str(args);
  if (!conn_ || !conn_->sendFrame(body.bytes())) return std::nullopt;
  return readResponse();
}

bool OpsClient::sendRaw(const std::vector<std::uint8_t>& bytes) {
  if (!conn_) return false;
  if (!conn_->sendBytes(bytes)) {
    conn_->close();
    return false;
  }
  return true;
}

std::optional<OpsClient::Response> OpsClient::readResponse() {
  if (!conn_) return std::nullopt;
  auto frame = conn_->readFrame();
  if (!frame) return std::nullopt;  // closed, timed out, or poisoned
  ByteReader reader(frame->data(), frame->size());
  Response response;
  response.ok = reader.u8() == 0;
  response.content_type = reader.str();
  response.body = reader.str();
  if (!reader.ok()) return std::nullopt;
  return response;
}

bool OpsClient::isOpen() const noexcept { return conn_ && conn_->isOpen(); }

}  // namespace cmc::obs
