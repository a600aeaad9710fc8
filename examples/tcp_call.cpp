// The media-control protocol over real TCP sockets (loopback).
//
// Two threads play caller and callee; each runs a SlotEndpoint (the Fig. 9
// protocol FSM) driven by an endpoint goal, and the signals travel through
// a genuine TCP connection with length-prefixed frames — the transport the
// paper assumes for signaling channels between physical components.
//
// Build & run:   ./build/examples/tcp_call
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <mutex>
#include <sstream>

#include "core/goal.hpp"
#include "net/listener.hpp"
#include "net/tcp_transport.hpp"

int main() {
  using namespace cmc;
  using namespace cmc::net;

  Listener listener(0);
  if (!listener.ok()) {
    std::fprintf(stderr, "could not bind a loopback listener\n");
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u\n", listener.port());

  auto accepted = std::async(std::launch::async,
                             [&listener]() { return listener.accept(); });
  auto caller_peer = TcpSignalingPeer::connect("127.0.0.1", listener.port());
  auto callee_conn = accepted.get();
  if (!caller_peer || !callee_conn) {
    std::fprintf(stderr, "loopback connect failed\n");
    return 1;
  }
  auto callee_peer = std::make_unique<TcpSignalingPeer>(std::move(callee_conn));

  std::mutex mutex;
  std::condition_variable cv;

  SlotEndpoint caller_slot{SlotId{1}, /*channel_initiator=*/true};
  OpenSlotGoal caller{
      Medium::audio,
      MediaIntent::endpoint(MediaAddress::parse("127.0.0.1", 40000),
                            {Codec::g711u, Codec::g726}),
      DescriptorFactory{1}};
  SlotEndpoint callee_slot{SlotId{2}, false};
  HoldSlotGoal callee{
      MediaIntent::endpoint(MediaAddress::parse("127.0.0.1", 40002),
                            {Codec::g711u}),
      DescriptorFactory{2}};

  auto pump = [](TcpSignalingPeer& peer, const char* who, Outbox&& out) {
    for (auto& item : out.take()) {
      std::ostringstream oss;
      oss << item.signal;
      std::printf("  %s sends: %s\n", who, oss.str().c_str());
      peer.send(TunnelSignal{0, std::move(item.signal)});
    }
  };

  callee_peer->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto& ts = std::get<TunnelSignal>(m);
    auto result = callee_slot.deliver(ts.signal);
    Outbox out;
    if (result.autoReply) out.send(callee_slot.id(), *result.autoReply);
    callee.onEvent(callee_slot, result.event, out);
    pump(*callee_peer, "callee", std::move(out));
    cv.notify_one();
  });
  caller_peer->start([&](const ChannelMessage& m) {
    std::lock_guard<std::mutex> lock(mutex);
    const auto& ts = std::get<TunnelSignal>(m);
    auto result = caller_slot.deliver(ts.signal);
    Outbox out;
    if (result.autoReply) out.send(caller_slot.id(), *result.autoReply);
    caller.onEvent(caller_slot, result.event, out);
    pump(*caller_peer, "caller", std::move(out));
    cv.notify_one();
  });

  std::printf("caller opens an audio channel...\n");
  {
    std::lock_guard<std::mutex> lock(mutex);
    Outbox out;
    caller.attach(caller_slot, out);
    pump(*caller_peer, "caller", std::move(out));
  }

  {
    std::unique_lock<std::mutex> lock(mutex);
    const bool ok = cv.wait_for(lock, std::chrono::seconds(5), [&]() {
      return caller_slot.state() == ProtocolState::flowing &&
             callee_slot.state() == ProtocolState::flowing &&
             caller_slot.lastSelectorReceived().has_value();
    });
    if (!ok) {
      std::fprintf(stderr, "did not converge\n");
      return 1;
    }
    std::ostringstream remote;
    remote << caller_slot.remoteDescriptor()->addr;
    std::printf("\nflowing! caller will send %s to %s\n",
                "G.711u", remote.str().c_str());
    std::printf("negotiated codec toward caller: %s\n",
                std::string(info(caller_slot.lastSelectorReceived()->codec).name)
                    .c_str());
  }

  std::printf("caller hangs up...\n");
  {
    std::lock_guard<std::mutex> lock(mutex);
    Outbox out;
    out.send(caller_slot.id(), caller_slot.sendClose());
    pump(*caller_peer, "caller", std::move(out));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(5), [&]() {
      return caller_slot.state() == ProtocolState::closed;
    });
  }
  std::printf("closed cleanly over TCP. done\n");
  return 0;
}
