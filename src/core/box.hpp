// Box: a peer module involved in media control (paper Sections III-A, VII).
//
// A box owns the slots of every signaling channel that ends at it, a Maps
// object associating slots with goal objects, and whatever application
// logic the feature needs. The paper's implementation structure is
// preserved: the Box sees meta-signals and drives goals; Slot objects see
// every tunnel signal and maintain protocol state; Goal objects read all
// signals of their slots and write all signals to them, found through Maps
// (goalReceive).
//
// Box performs no I/O. Every entry point (deliverTunnel, deliverMeta,
// fireTimer, ...) appends to an Output that the hosting runtime drains:
// tunnel signals to put on channels, meta-signals, timer requests, channel
// create/destroy requests. This keeps feature code runnable under the
// simulator and over real TCP transports alike.
//
// Subclasses implement features by overriding the on* hooks and calling the
// protected helpers; the media-control heavy lifting is entirely in the
// goal primitives.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/meta.hpp"
#include "core/goal.hpp"
#include "core/intent.hpp"
#include "util/time.hpp"

namespace cmc {

// A request to the runtime to create a new signaling channel from this box
// toward the box addressed by `target` (configuration/routing is outside
// the paper's scope; the runtime resolves names).
struct ChannelRequest {
  std::string target;
  std::uint32_t tunnels = 1;
  std::string tag;  // echoed back in onChannelUp so the box can correlate
};

class Box {
 public:
  Box(BoxId id, std::string name);
  virtual ~Box() = default;

  Box(const Box&) = delete;
  Box& operator=(const Box&) = delete;

  [[nodiscard]] BoxId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // ------------------------------------------------------------ wiring
  // Called by the runtime when a channel end is established at this box.
  // Returns the ids of the new slots (one per tunnel). `initiator` is true
  // on the side that created the channel (wins open/open races).
  std::vector<SlotId> addChannelEnd(ChannelId channel, std::uint32_t tunnels,
                                    bool initiator, const std::string& tag,
                                    const std::string& peer_name);
  // Called by the runtime when the channel is gone (local destroy or remote
  // teardown). Drops its slots and any goals over them.
  void removeChannel(ChannelId channel);

  [[nodiscard]] bool hasChannel(ChannelId channel) const noexcept;
  [[nodiscard]] std::vector<SlotId> slotsOf(ChannelId channel) const;
  [[nodiscard]] ChannelId channelOf(SlotId slot) const;

  // ------------------------------------------------- goal management (Maps)
  // Bind a single-slot goal to a slot, detaching whatever controlled it.
  void setGoal(SlotId slot, EndpointGoal goal);
  // Bind both slots to one flowlink. If the same (unordered) pair is
  // already flowlinked, this is a no-op: the same goal object keeps
  // control, as the paper requires for unchanged annotations.
  void linkSlots(SlotId a, SlotId b);
  void clearGoal(SlotId slot);
  [[nodiscard]] std::optional<GoalKind> goalKind(SlotId slot) const;

  // Fire pending openslot retries (runtime-paced).
  void fireRetries();
  [[nodiscard]] bool hasPendingRetries() const;

  // ------------------------------------------------------- stabilization
  // Fault-tolerant runtimes (docs/FAULTS.md) mark every slot stabilizing:
  // endpoints then tolerate re-sent signals and goals may re-assert
  // themselves. Off by default — the baseline protocol semantics are
  // unchanged until a fault plan opts in.
  void enableStabilization(bool on);
  [[nodiscard]] bool stabilizationEnabled() const noexcept {
    return stabilization_enabled_;
  }
  // Re-assert every goal that is not where it wants to be (idempotent;
  // runtime-paced, analogous to fireRetries).
  void refreshGoals();
  // True when some goal on this box is not converged and a refresh could
  // make progress toward it.
  [[nodiscard]] bool needsRefresh() const;
  // Crash/restart fault: lose all volatile slot state (protocol states,
  // descriptor caches, in-flight outputs) while keeping channels and goal
  // annotations, then rejoin the path — goals re-attach, and any slot still
  // closed afterwards sends a close-probe forcing its peer to re-converge.
  void crashRestart();

  // ------------------------------------------------------- slot predicates
  [[nodiscard]] const SlotEndpoint& slot(SlotId slot) const;
  [[nodiscard]] ProtocolState slotState(SlotId slot) const;
  // True when the goal controlling `slot` sits in its target quiescent
  // state: openSlot/holdSlot → flowing, closeSlot → closed, flowLink →
  // both slots matched (Fig. 12). Convergence probes build path-quiescence
  // predicates from this.
  [[nodiscard]] bool goalSatisfied(SlotId slot) const;
  [[nodiscard]] bool isClosed(SlotId s) const { return slotState(s) == ProtocolState::closed; }
  [[nodiscard]] bool isOpening(SlotId s) const { return slotState(s) == ProtocolState::opening; }
  [[nodiscard]] bool isOpened(SlotId s) const { return slotState(s) == ProtocolState::opened; }
  [[nodiscard]] bool isFlowing(SlotId s) const { return slotState(s) == ProtocolState::flowing; }

  // Live-resource counts, for leak auditing: after a call's channels are
  // torn down, every box that served it must be back to zero slots and zero
  // goals (single goals + flowlinks). The load runtime checks this per call.
  [[nodiscard]] std::size_t slotCount() const noexcept { return slots_.size(); }
  [[nodiscard]] std::size_t goalCount() const noexcept {
    return single_goals_.size() + links_.size();
  }

  // ------------------------------------------------- runtime entry points
  // Virtual so that bench_ablation's naive-forwarding box (the paper's
  // Fig. 2 pathology model) can bypass the goal machinery entirely.
  virtual void deliverTunnel(SlotId slot, const Signal& signal);
  void deliverMeta(ChannelId channel, const MetaSignal& meta);
  void fireTimer(const std::string& tag);

  // ------------------------------------------------------------- outputs
  struct TimerRequest {
    SimDuration delay;
    std::string tag;
  };
  struct Output {
    std::vector<OutSignal> tunnel;
    std::vector<std::pair<ChannelId, MetaSignal>> meta;
    std::vector<TimerRequest> timers;
    std::vector<ChannelRequest> channelRequests;
    std::vector<ChannelId> teardowns;

    [[nodiscard]] bool empty() const noexcept {
      return tunnel.empty() && meta.empty() && timers.empty() &&
             channelRequests.empty() && teardowns.empty();
    }
  };
  // Drain everything the box decided to do since the last drain.
  [[nodiscard]] Output drainOutput();
  // The same into a caller-owned buffer: `out` is cleared and swapped with
  // the pending output, so a host draining every box through one buffer
  // reuses vector capacity instead of allocating per drain.
  void drainOutputInto(Output& out);

  // Endpoint modify passthroughs (mute change, address migration, and
  // unilateral codec re-selection); no-ops for slots without a single-slot
  // goal.
  void setSlotMute(SlotId slot, bool mute_in, bool mute_out);
  void setSlotAddress(SlotId slot, MediaAddress addr);
  bool reselectSlotCodec(SlotId slot, Codec codec);

 protected:
  // ------------------------------------------------------ subclass hooks
  // A meta-signal arrived on a channel.
  virtual void onMeta(ChannelId, const MetaSignal&) {}
  // A requested channel is up (tag correlates with requestChannel).
  virtual void onChannelUp(ChannelId, const std::string& /*tag*/) {}
  // A channel created by a peer reached this box.
  virtual void onIncomingChannel(ChannelId, const std::string& /*peer*/) {}
  // A channel went away (remote teardown or local destroy).
  virtual void onChannelDown(ChannelId) {}
  // A timer fired.
  virtual void onTimer(const std::string& /*tag*/) {}
  // A slot's protocol state may have changed (programs re-check guards).
  virtual void onSlotActivity(SlotId) {}
  // The box lost its volatile state in a crash and was restarted
  // (crashRestart); feature code re-syncs anything derived from slot state
  // (e.g. stops media that no longer has a flowing slot).
  virtual void onCrashRestart() {}

  // --------------------------------------------------- subclass helpers
  void sendMeta(ChannelId channel, MetaSignal meta);
  void requestChannel(std::string target, std::uint32_t tunnels, std::string tag);
  void destroyChannel(ChannelId channel);
  void setTimer(SimDuration delay, std::string tag);

 private:
  struct ChannelEnd {
    ChannelId id;
    bool initiator = false;
    std::string peer;
    std::vector<SlotId> slots;
  };

  // One flowlink controlling two slots.
  struct LinkEntry {
    SlotId a;
    SlotId b;
    FlowLink link;
  };

  [[nodiscard]] SlotEndpoint& slotRef(SlotId slot);
  void dispatch(SlotId slot, SlotEvent event, const Signal& signal);
  void flushOutbox(Outbox&& out);
  void detachSlot(SlotId slot);
  void maybeRequestRetryTimer();

  BoxId id_;
  std::string name_;
  IdAllocator<SlotId> slot_ids_;
  std::map<SlotId, SlotEndpoint> slots_;
  std::map<ChannelId, ChannelEnd> channels_;
  std::map<SlotId, EndpointGoal> single_goals_;
  std::vector<std::unique_ptr<LinkEntry>> links_;
  std::map<SlotId, LinkEntry*> link_of_;
  Output output_;
  bool retry_timer_outstanding_ = false;
  bool stabilization_enabled_ = false;

 public:
  // Pacing for openslot retries; runtimes may tune it.
  SimDuration retryDelay{200'000};  // 200 ms
  static constexpr const char* kRetryTimerTag = "__cmc_retry";
};

}  // namespace cmc
