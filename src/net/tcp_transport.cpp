#include "net/tcp_transport.hpp"

#include <variant>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace cmc::net {

TcpSignalingPeer::TcpSignalingPeer(std::unique_ptr<FramedConn> conn)
    : conn_(std::move(conn)) {}

TcpSignalingPeer::~TcpSignalingPeer() { conn_->closeAfter(reader_); }

void TcpSignalingPeer::start(MessageHandler on_message, ClosedHandler on_closed) {
  on_message_ = std::move(on_message);
  on_closed_ = std::move(on_closed);
  reader_ = std::thread([this]() { readLoop(); });
}

bool TcpSignalingPeer::send(const ChannelMessage& message) {
  if (!open_.load()) return false;
  if (drop_next_.exchange(false)) {
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->counter("net.frames_dropped").add();
    }
    return true;  // the frame was "sent" — and lost below us
  }
  std::vector<std::uint8_t> frame;
  obs::TraceRecorder* rec = obs::recorder();
  if (rec != nullptr && rec->propagationEnabled()) {
    // Stamp the sender's causal context in-band (frame tag 2/3) unless the
    // caller already attached one; the far end's runtime adopts it when it
    // turns the decoded message into a stimulus.
    ChannelMessage stamped = message;
    obs::TraceContext& ctx = std::visit(
        [](auto& m) -> obs::TraceContext& { return m.ctx; }, stamped);
    if (ctx.empty()) ctx = obs::currentContext();
    frame = encodeFrame(stamped);
  } else {
    frame = encodeFrame(message);
  }
  if (corrupt_next_.exchange(false) && frame.size() > 8) {
    frame.back() ^= 0x5a;  // body byte: header checksum now rejects it
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->counter("net.frames_corrupted").add();
    }
  }
  if (!conn_->sendBytes(frame)) {
    open_.store(false);
    return false;
  }
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->counter("net.frames_sent").add();
    m->counter("net.bytes_sent").add(frame.size());
  }
  return true;
}

void TcpSignalingPeer::close() {
  if (open_.exchange(false)) conn_->shutdown();
}

void TcpSignalingPeer::readLoop() {
  std::uint64_t bytes_seen = 0;
  std::uint64_t corrupt_seen = 0;
  while (open_.load()) {
    auto body = conn_->readFrame();
    if (obs::MetricsRegistry* m = obs::metrics()) {
      // Wire bytes (headers, corrupt and partial frames included) and
      // checksum rejects since the previous read.
      if (const auto n = conn_->bytesReceived() - bytes_seen; n > 0) {
        m->counter("net.bytes_received").add(n);
      }
      if (const auto n = conn_->corruptFrames() - corrupt_seen; n > 0) {
        m->counter("net.frames_rejected_checksum").add(n);
      }
    }
    bytes_seen = conn_->bytesReceived();
    corrupt_seen = conn_->corruptFrames();
    if (!body && conn_->lastRead() != FramedConn::ReadStatus::poisoned) break;
    auto message = body ? decodeChannelMessage(*body) : std::nullopt;
    if (!message) {
      // Hostile length, or a checksum-valid body that does not parse: the
      // stream has lost sync.
      log::warn("net", "malformed frame; dropping connection");
      break;
    }
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->counter("net.frames_received").add();
    }
    if (on_message_) on_message_(*message);
  }
  open_.store(false);
  conn_->shutdown();
  if (on_closed_) on_closed_();
}

std::unique_ptr<TcpSignalingPeer> TcpSignalingPeer::connect(
    const std::string& host, std::uint16_t port) {
  // No receive timeout: a signaling channel may stay quiet indefinitely.
  auto conn = FramedConn::connect(host, port, /*recv_timeout_ms=*/0);
  if (!conn) return nullptr;
  return std::make_unique<TcpSignalingPeer>(std::move(conn));
}

}  // namespace cmc::net
