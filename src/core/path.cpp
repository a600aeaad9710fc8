#include "core/path.hpp"

#include <sstream>
#include <stdexcept>

namespace cmc {

std::string PathAction::toString() const {
  std::ostringstream oss;
  switch (kind) {
    case Kind::deliver:
      oss << "deliver(ch" << channel << "->" << towards << ')';
      break;
    case Kind::retry:
      oss << "retry(p" << party << ')';
      break;
    case Kind::modifyMute:
      oss << "modify(p" << party << ",in=" << muteIn << ",out=" << muteOut << ')';
      break;
    case Kind::attach:
      oss << "attach(p" << party << ')';
      break;
    case Kind::chaos:
      oss << "chaos(p" << party << ",s" << int(chaosSlot) << ','
          << cmc::toString(chaosSignal) << ",v" << int(chaosVariant) << ')';
      break;
    case Kind::dropHead:
      oss << "drop(ch" << channel << "->" << towards << ')';
      break;
    case Kind::dupHead:
      oss << "dup(ch" << channel << "->" << towards << ')';
      break;
    case Kind::refresh:
      oss << "refresh()";
      break;
  }
  return oss.str();
}

PathSystem::PathSystem(EndpointGoal left, EndpointGoal right,
                       std::size_t flowlinks, bool defer_attach) {
  ends_[0].goal = std::move(left);
  ends_[1].goal = std::move(right);
  channels_.reserve(flowlinks + 1);
  for (std::size_t i = 0; i <= flowlinks; ++i) {
    channels_.emplace_back(ChannelId{i + 1}, /*tunnel_count=*/1);
  }
  // Party i sits at Side::A of channel i (the channel initiator) and
  // Side::B of channel i-1.
  ends_[0].slot = SlotEndpoint(slot_ids_.next(), /*channel_initiator=*/true);
  links_.resize(flowlinks);
  for (std::size_t i = 0; i < flowlinks; ++i) {
    links_[i].left = SlotEndpoint(slot_ids_.next(), /*channel_initiator=*/false);
    links_[i].right = SlotEndpoint(slot_ids_.next(), /*channel_initiator=*/true);
  }
  ends_[1].slot = SlotEndpoint(slot_ids_.next(), /*channel_initiator=*/false);
  chaos_budget_.assign(partyCount(), 0);
  if (!defer_attach) {
    for (std::uint32_t p = 0; p < partyCount(); ++p) attachParty(p);
  }
}

EndpointGoal PathSystem::makeGoal(GoalKind kind, PathEnd end, Medium medium) {
  const auto e = static_cast<std::uint64_t>(end);
  MediaIntent intent = MediaIntent::endpoint(
      MediaAddress::parse(end == PathEnd::left ? "10.0.0.1" : "10.0.1.1",
                          static_cast<std::uint16_t>(6000 + e)),
      {Codec::g711u, Codec::g726});
  DescriptorFactory ids{e};
  switch (kind) {
    case GoalKind::openSlot: return OpenSlotGoal{medium, std::move(intent), ids};
    case GoalKind::holdSlot: return HoldSlotGoal{std::move(intent), ids};
    case GoalKind::closeSlot: return CloseSlotGoal{};
    case GoalKind::flowLink: break;
  }
  throw std::logic_error("makeGoal: flowLink is not an endpoint goal");
}

bool PathSystem::partyAttached(std::uint32_t party) const noexcept {
  if (party == 0) return ends_[0].attached;
  if (party == partyCount() - 1) return ends_[1].attached;
  return links_[party - 1].attached;
}

bool PathSystem::quiescent() const noexcept {
  for (const auto& ch : channels_) {
    if (!ch.empty()) return false;
  }
  return true;
}

bool PathSystem::bothClosed() const noexcept {
  return ends_[0].slot.state() == ProtocolState::closed &&
         ends_[1].slot.state() == ProtocolState::closed;
}

bool PathSystem::bothFlowing() const noexcept {
  const SlotEndpoint& l = ends_[0].slot;
  const SlotEndpoint& r = ends_[1].slot;
  if (l.state() != ProtocolState::flowing || r.state() != ProtocolState::flowing) {
    return false;
  }
  if (!l.medium() || !r.medium() || *l.medium() != *r.medium()) return false;
  // Descriptor agreement: each end holds the other's most recent
  // descriptor. Flowlinks forward descriptors unchanged, so id equality
  // means the very same descriptor propagated end to end.
  if (!l.remoteDescriptor() || l.remoteDescriptor()->id != r.lastDescriptorSent()) {
    return false;
  }
  if (!r.remoteDescriptor() || r.remoteDescriptor()->id != l.lastDescriptorSent()) {
    return false;
  }
  // Selector agreement: each end has received a selector answering its own
  // most recent descriptor.
  if (!l.lastSelectorReceived() ||
      l.lastSelectorReceived()->answersDescriptor != l.lastDescriptorSent()) {
    return false;
  }
  if (!r.lastSelectorReceived() ||
      r.lastSelectorReceived()->answersDescriptor != r.lastDescriptorSent()) {
    return false;
  }
  return true;
}

bool PathSystem::mediaEnabled(PathEnd sender) const noexcept {
  const SlotEndpoint& s = ends_[idx(sender)].slot;
  if (s.state() != ProtocolState::flowing) return false;
  if (!s.remoteDescriptor() || !s.lastSelectorSent()) return false;
  return s.lastSelectorSent()->answersDescriptor == s.remoteDescriptor()->id &&
         !s.lastSelectorSent()->isNoMedia();
}

std::vector<PathAction> PathSystem::enabledActions() const {
  std::vector<PathAction> actions;
  enabledActions(actions);
  return actions;
}

void PathSystem::enabledActions(std::vector<PathAction>& actions) const {
  actions.clear();
  for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) {
    for (Side towards : {Side::A, Side::B}) {
      if (channels_[ch].hasMessageToward(towards)) {
        PathAction a;
        a.kind = PathAction::Kind::deliver;
        a.channel = ch;
        a.towards = towards;
        actions.push_back(a);
        if (fault_budget_ > 0) {
          a.kind = PathAction::Kind::dropHead;
          actions.push_back(a);
          a.kind = PathAction::Kind::dupHead;
          actions.push_back(a);
        }
      }
    }
  }
  // The global stabilization action: only from quiescent, fully-attached
  // states, and only when it would actually send something — an enabled
  // no-op would be a self-loop the liveness checks could spin on forever.
  if (stabilize_ && allAttached() && quiescent() && refreshWouldEmit()) {
    PathAction a;
    a.kind = PathAction::Kind::refresh;
    actions.push_back(a);
  }
  for (std::uint32_t party = 0; party < partyCount(); ++party) {
    if (!partyAttached(party)) {
      PathAction a;
      a.kind = PathAction::Kind::attach;
      a.party = party;
      actions.push_back(a);
      if (chaos_budget_[party] > 0) appendChaosActions(party, actions);
      continue;
    }
    if (!isEndpointParty(party)) continue;
    const PathEnd end = endOfParty(party);
    const End& e = ends_[idx(end)];
    // A retry is enabled only when it can actually act (slot closed);
    // otherwise the action would be a no-op self-loop, which would read as
    // an unfair livelock to the temporal checks.
    if (retryPending(e.goal) && e.slot.state() == ProtocolState::closed) {
      PathAction a;
      a.kind = PathAction::Kind::retry;
      a.party = party;
      actions.push_back(a);
    }
    if (modify_budget_[idx(end)] > 0 && kindOf(e.goal) != GoalKind::closeSlot) {
      // Enumerate the mute combinations that differ from the current one.
      const MediaIntent* intent = nullptr;
      if (const auto* open = std::get_if<OpenSlotGoal>(&e.goal)) {
        intent = &open->intent();
      } else if (const auto* hold = std::get_if<HoldSlotGoal>(&e.goal)) {
        intent = &hold->intent();
      }
      for (bool in : {false, true}) {
        for (bool outv : {false, true}) {
          if (intent != nullptr && intent->muteIn == in && intent->muteOut == outv) {
            continue;
          }
          PathAction a;
          a.kind = PathAction::Kind::modifyMute;
          a.party = party;
          a.muteIn = in;
          a.muteOut = outv;
          actions.push_back(a);
        }
      }
    }
  }
}

void PathSystem::apply(const PathAction& action) {
  switch (action.kind) {
    case PathAction::Kind::deliver:
      deliverInto(action.channel, action.towards);
      break;
    case PathAction::Kind::retry:
      fireRetry(endOfParty(action.party));
      break;
    case PathAction::Kind::modifyMute: {
      const PathEnd end = endOfParty(action.party);
      auto& budget = modify_budget_[idx(end)];
      if (budget == 0) throw std::logic_error("modify budget exhausted");
      --budget;
      setMute(end, action.muteIn, action.muteOut);
      break;
    }
    case PathAction::Kind::attach:
      attachParty(action.party);
      break;
    case PathAction::Kind::chaos:
      applyChaos(action);
      break;
    case PathAction::Kind::dropHead:
      if (fault_budget_ == 0) throw std::logic_error("fault budget exhausted");
      --fault_budget_;
      channels_[action.channel].dropHead(action.towards);
      break;
    case PathAction::Kind::dupHead:
      if (fault_budget_ == 0) throw std::logic_error("fault budget exhausted");
      --fault_budget_;
      channels_[action.channel].duplicateHead(action.towards);
      break;
    case PathAction::Kind::refresh:
      stabilize();
      break;
  }
}

std::size_t PathSystem::run(std::size_t max_steps) {
  std::size_t steps = 0;
  bool progressed = true;
  while (progressed && steps < max_steps) {
    progressed = false;
    for (std::uint32_t ch = 0; ch < channels_.size(); ++ch) {
      for (Side towards : {Side::A, Side::B}) {
        if (channels_[ch].hasMessageToward(towards)) {
          deliverInto(ch, towards);
          ++steps;
          progressed = true;
        }
      }
    }
  }
  return steps;
}

void PathSystem::fireRetry(PathEnd end) {
  End& e = ends_[idx(end)];
  Outbox out;
  retry(e.goal, e.slot, out);
  flush(end == PathEnd::left ? "L" : "R", std::move(out));
}

void PathSystem::setMute(PathEnd end, bool mute_in, bool mute_out) {
  End& e = ends_[idx(end)];
  Outbox out;
  cmc::setMute(e.goal, mute_in, mute_out, e.slot, out);
  flush(end == PathEnd::left ? "L" : "R", std::move(out));
}

void PathSystem::replaceGoal(PathEnd end, EndpointGoal goal) {
  End& e = ends_[idx(end)];
  e.goal = std::move(goal);
  e.attached = false;
  attachParty(end == PathEnd::left ? 0
                                   : static_cast<std::uint32_t>(partyCount() - 1));
}

void PathSystem::setChaosBudget(std::uint32_t steps) {
  chaos_budget_.assign(partyCount(), steps);
}

void PathSystem::enableStabilization(bool on) {
  stabilize_ = on;
  ends_[0].slot.setStabilizing(on);
  ends_[1].slot.setStabilizing(on);
  for (LinkBox& box : links_) {
    box.left.setStabilizing(on);
    box.right.setStabilizing(on);
  }
}

bool PathSystem::allAttached() const noexcept {
  for (std::uint32_t p = 0; p < partyCount(); ++p) {
    if (!partyAttached(p)) return false;
  }
  return true;
}

bool PathSystem::refreshWouldEmit() const {
  // Dry-run on a copy: cheap because the gate only fires in quiescent
  // states, and exact — gating on converged() alone could still enable a
  // refresh that sends nothing (e.g. a closing-mode link already drained).
  PathSystem probe = *this;
  return probe.stabilize();
}

bool PathSystem::stabilize() {
  if (!stabilize_) return false;
  bool emitted = false;
  for (std::uint32_t p = 0; p < partyCount(); ++p) {
    if (!partyAttached(p)) continue;
    Outbox out;
    if (isEndpointParty(p)) {
      End& e = ends_[idx(endOfParty(p))];
      if (!converged(e.goal, e.slot)) refresh(e.goal, e.slot, out);
      if (!out.empty()) emitted = true;
      flush(p == 0 ? "L" : "R", std::move(out));
    } else {
      LinkBox& box = links_[p - 1];
      if (!box.link.converged(box.left, box.right)) {
        box.link.stabilize(box.left, box.right, out);
      }
      if (!out.empty()) emitted = true;
      flush("F", std::move(out));
    }
  }
  return emitted;
}

void PathSystem::attachParty(std::uint32_t party) {
  Outbox out;
  if (isEndpointParty(party)) {
    End& e = ends_[idx(endOfParty(party))];
    if (e.attached) return;
    e.attached = true;
    attach(e.goal, e.slot, out);
    flush(party == 0 ? "L" : "R", std::move(out));
  } else {
    LinkBox& box = links_[party - 1];
    if (box.attached) return;
    box.attached = true;
    box.link.attach(box.left, box.right, out);
    flush("F", std::move(out));
  }
}

Descriptor PathSystem::chaosDescriptor(std::uint32_t party, std::uint8_t chaos_slot,
                                       std::uint8_t variant) const {
  // Fixed pool: ids below 1<<20 never collide with DescriptorFactory ids.
  const std::uint64_t id = 1 + party * 8 + chaos_slot * 4 + variant;
  const MediaAddress addr{0x0a000000u + party * 256 + chaos_slot, 7000};
  if (variant == 1) return makeDescriptor(DescriptorId{id}, addr, {}, /*muteIn=*/true);
  const Codec codecs[] = {Codec::g711u, Codec::g726};
  return makeDescriptor(DescriptorId{id}, addr, codecs, /*muteIn=*/false);
}

SlotEndpoint& PathSystem::chaosTarget(std::uint32_t party, std::uint8_t chaos_slot) {
  if (party == 0) return ends_[0].slot;
  if (party == partyCount() - 1) return ends_[1].slot;
  return chaos_slot == 0 ? links_[party - 1].left : links_[party - 1].right;
}

void PathSystem::appendChaosSendsFor(const SlotEndpoint& slot, std::uint32_t party,
                                     std::uint8_t chaos_slot,
                                     std::vector<PathAction>& actions) const {
  auto add = [&](SignalKind sig, std::uint8_t variant) {
    PathAction a;
    a.kind = PathAction::Kind::chaos;
    a.party = party;
    a.chaosSlot = chaos_slot;
    a.chaosSignal = sig;
    a.chaosVariant = variant;
    actions.push_back(a);
  };
  switch (slot.state()) {
    case ProtocolState::closed:
      add(SignalKind::open, 0);
      add(SignalKind::open, 1);
      break;
    case ProtocolState::opening:
      add(SignalKind::close, 0);
      break;
    case ProtocolState::opened:
      add(SignalKind::oack, 0);
      add(SignalKind::oack, 1);
      add(SignalKind::close, 0);
      break;
    case ProtocolState::flowing:
      add(SignalKind::describe, 0);
      add(SignalKind::describe, 1);
      add(SignalKind::select, 0);
      add(SignalKind::select, 1);
      add(SignalKind::close, 0);
      break;
    case ProtocolState::closing:
      break;
  }
}

void PathSystem::appendChaosActions(std::uint32_t party,
                                    std::vector<PathAction>& actions) const {
  if (isEndpointParty(party)) {
    appendChaosSendsFor(ends_[idx(endOfParty(party))].slot, party, 0, actions);
  } else {
    appendChaosSendsFor(links_[party - 1].left, party, 0, actions);
    appendChaosSendsFor(links_[party - 1].right, party, 1, actions);
  }
}

void PathSystem::applyChaos(const PathAction& action) {
  auto& budget = chaos_budget_[action.party];
  if (budget == 0) throw std::logic_error("chaos budget exhausted");
  if (partyAttached(action.party)) throw std::logic_error("chaos after attach");
  --budget;
  SlotEndpoint& slot = chaosTarget(action.party, action.chaosSlot);
  const Descriptor desc = chaosDescriptor(action.party, action.chaosSlot,
                                          action.chaosVariant);
  Outbox out;
  switch (action.chaosSignal) {
    case SignalKind::open:
      out.send(slot.id(), slot.sendOpen(Medium::audio, desc));
      break;
    case SignalKind::oack:
      out.send(slot.id(), slot.sendOack(desc));
      break;
    case SignalKind::close:
      out.send(slot.id(), slot.sendClose());
      break;
    case SignalKind::describe:
      out.send(slot.id(), slot.sendDescribe(desc));
      break;
    case SignalKind::select: {
      // Answer the current remote descriptor; variant 1 refuses media.
      const auto& remote = slot.remoteDescriptor();
      if (!remote) return;
      Selector sel;
      sel.answersDescriptor = remote->id;
      sel.sender = desc.addr;
      sel.codec = Codec::noMedia;
      if (action.chaosVariant == 0) {
        for (Codec c : remote->codecs) {
          if (c != Codec::noMedia) {
            sel.codec = c;
            break;
          }
        }
      }
      out.send(slot.id(), slot.sendSelect(sel));
      break;
    }
    case SignalKind::closeack:
      throw std::logic_error("chaos cannot send bare closeack");
  }
  flush("chaos", std::move(out));
}

void PathSystem::deliverInto(std::uint32_t channel_index, Side towards) {
  ChannelMessage message = channels_[channel_index].pop(towards);
  auto* tunnel_signal = std::get_if<TunnelSignal>(&message);
  if (tunnel_signal == nullptr) return;  // paths carry no meta-signals
  ++delivered_;

  // Resolve the receiving party and slot. Channel i connects party i
  // (Side::A) with party i+1 (Side::B).
  const std::uint32_t party =
      towards == Side::A ? channel_index : channel_index + 1;

  SlotEndpoint* slot = nullptr;
  SlotEndpoint* other = nullptr;
  if (party == 0) {
    slot = &ends_[0].slot;
  } else if (party == partyCount() - 1) {
    slot = &ends_[1].slot;
  } else {
    LinkBox& box = links_[party - 1];
    if (towards == Side::B) {
      slot = &box.left;
      other = &box.right;
    } else {
      slot = &box.right;
      other = &box.left;
    }
  }

  const DeliverResult result = slot->deliver(tunnel_signal->signal);
  if (result.autoReply) {
    pushSignal("auto", channel_index, opposite(towards), *result.autoReply);
  }
  if (!partyAttached(party)) return;  // chaotic phase: absorb silently

  Outbox out;
  if (party == 0) {
    onEvent(ends_[0].goal, *slot, result.event, out);
    flush("L", std::move(out));
  } else if (party == partyCount() - 1) {
    onEvent(ends_[1].goal, *slot, result.event, out);
    flush("R", std::move(out));
  } else {
    links_[party - 1].link.onEvent(*slot, *other, result.event,
                                   tunnel_signal->signal, out);
    flush("F", std::move(out));
  }
}

PathSystem::SlotRoute PathSystem::routeOf(SlotId slot) const {
  if (slot == ends_[0].slot.id()) return {0, Side::B};
  if (slot == ends_[1].slot.id()) {
    return {static_cast<std::uint32_t>(channels_.size() - 1), Side::A};
  }
  for (std::uint32_t i = 0; i < links_.size(); ++i) {
    if (slot == links_[i].left.id()) return {i, Side::A};
    if (slot == links_[i].right.id()) return {i + 1, Side::B};
  }
  throw std::logic_error("routeOf: unknown slot");
}

void PathSystem::flush(const char* box_name, Outbox&& out) {
  for (auto& item : out.take()) {
    const SlotRoute route = routeOf(item.slot);
    pushSignal(box_name, route.channel, route.towards, std::move(item.signal));
  }
}

void PathSystem::pushSignal(const char* box_name, std::uint32_t channel_index,
                            Side towards, Signal signal) {
  if (trace_enabled_) {
    std::ostringstream oss;
    oss << signal;
    trace_.push_back(TraceEntry{box_name, channel_index, towards, oss.str()});
  }
  channels_[channel_index].push(towards, TunnelSignal{0, std::move(signal)});
}

void PathSystem::canonicalize(ByteWriter& w) const {
  for (const End& e : ends_) {
    w.boolean(e.attached);
    e.slot.canonicalize(w);
    cmc::canonicalize(e.goal, w);
  }
  w.u32(static_cast<std::uint32_t>(links_.size()));
  for (const LinkBox& box : links_) {
    w.boolean(box.attached);
    box.left.canonicalize(w);
    box.right.canonicalize(w);
    box.link.canonicalize(w);
  }
  for (const ChannelState& ch : channels_) ch.canonicalize(w);
  for (std::uint32_t b : chaos_budget_) w.u32(b);
  w.u32(modify_budget_[0]);
  w.u32(modify_budget_[1]);
  w.u32(fault_budget_);
  w.boolean(stabilize_);
}

std::uint64_t PathSystem::fingerprint() const {
  ByteWriter w;
  canonicalize(w);
  return stateHash(w.bytes());
}

}  // namespace cmc
