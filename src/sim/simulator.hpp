// Simulator: hosts boxes, carries their signaling channels, and charges the
// paper's timing model (Section VIII-C).
//
// Every stimulus processed by a box — a tunnel signal, a meta-signal, a
// timer, an injected user action — costs the box `c` (TimingModel::
// processing); boxes are serial servers, so stimuli queue when they arrive
// faster than the box computes. Every signal put on a channel takes `n`
// (TimingModel::network) to reach the peer box. Outputs a box produces
// while processing a stimulus are emitted at the stimulus's completion
// time, which is exactly the accounting behind the paper's p*n + (p+1)*c
// latency law.
//
// The simulator also resolves ChannelRequests (configuration/routing being
// outside the paper's scope, boxes address each other by name) and paces
// openslot retries through box timers.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/box.hpp"
#include "media/network.hpp"
#include "obs/context.hpp"
#include "obs/probes.hpp"
#include "sim/event_loop.hpp"
#include "sim/fault.hpp"
#include "sim/timing.hpp"
#include "util/inline_fn.hpp"

namespace cmc::obs {
class TraceRecorder;
class MetricsRegistry;
class Counter;
class Gauge;
class FlightRecorder;
}  // namespace cmc::obs

namespace cmc {

class Simulator {
 public:
  explicit Simulator(TimingModel timing = TimingModel::paperDefaults(),
                     std::uint64_t seed = 1);
  ~Simulator();

  // Construct and register a box. The box's name must be unique; boxes
  // address channel requests to each other by name.
  template <typename B, typename... Args>
  B& addBox(Args&&... args) {
    auto box = std::make_unique<B>(BoxId{next_box_id_++}, std::forward<Args>(args)...);
    B& ref = *box;
    registerBox(std::move(box));
    return ref;
  }

  [[nodiscard]] Box& box(const std::string& name);
  [[nodiscard]] bool hasBox(const std::string& name) const noexcept {
    return boxes_.count(name) != 0;
  }

  // Forget a finished box: destroy it and every piece of per-box simulator
  // state, so a long run costs nothing for boxes whose work is over.
  // Refused (returns false) for an unknown name and for a box that still
  // has slots or goals, is crashed awaiting restart, or has a stimulus
  // queued or in flight — anything that could still reach the box object.
  // Refresh ticks, timers and meta-signals still pending for a retired box
  // become no-ops; the name may be registered again afterwards.
  bool retireBox(const std::string& name);

  // Statically connect two boxes with a signaling channel of `tunnels`
  // tunnels (both ends exist immediately; `a` is the initiator side).
  ChannelId connect(const std::string& a, const std::string& b,
                    std::uint32_t tunnels = 1);

  // Run `fn` on a named box as a user stimulus (charges processing cost c).
  void inject(const std::string& box_name, std::function<void(Box&)> fn);

  // Advance the simulation until idle (or the horizon). Returns true if the
  // event queue drained.
  bool run(SimDuration horizon = std::chrono::seconds(600));
  // Advance exactly `d` of simulated time, then stop.
  void runFor(SimDuration d);

  [[nodiscard]] SimTime now() const noexcept { return loop_.now(); }
  [[nodiscard]] EventLoop& loop() noexcept { return loop_; }
  // The media plane sharing this simulation's clock. Owned here so it
  // outlives the boxes whose media endpoints attach to it.
  [[nodiscard]] MediaNetwork& mediaNetwork() noexcept { return media_net_; }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  [[nodiscard]] const TimingModel& timing() const noexcept { return timing_; }

  [[nodiscard]] std::uint64_t signalsDelivered() const noexcept {
    return signals_delivered_;
  }

  // ---------------------------------------------------------- observability
  // Virtual time since start in microseconds (the timebase every obs
  // artifact — traces, probes, metrics spans — is expressed in).
  [[nodiscard]] std::int64_t nowUs() const noexcept {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               loop_.now().sinceStart())
        .count();
  }

  // Install `rec` as the global trace recorder and retime it onto this
  // simulation's virtual clock, so exported traces are deterministic for a
  // fixed seed. Pass nullptr to detach. The destructor detaches whatever
  // this simulator installed.
  void attachTrace(obs::TraceRecorder* rec);
  // Install `m` as the global metrics registry (detached on destruction).
  void attachMetrics(obs::MetricsRegistry* m);
  // Install `fr` as the process-wide flight recorder and point it at this
  // simulation's probes plus whatever trace/metrics are attached, so a
  // probe timeout or flightAssert leaves a post-mortem dump behind. Pass
  // nullptr to detach (the destructor also detaches).
  void attachFlightRecorder(obs::FlightRecorder* fr);
  // Stamp log lines with this simulation's virtual time instead of the
  // wall clock (restored on destruction).
  void useSimTimeForLogs();

  // Convergence probes: armed predicates re-checked after every completed
  // box stimulus, capturing the exact virtual time a path quiesced.
  [[nodiscard]] obs::ConvergenceProbes& probes() noexcept { return probes_; }

  // ------------------------------------------------------- fault injection
  // Install a fault plan (docs/FAULTS.md). Switches every registered box
  // into stabilization mode, schedules the plan's crashes, and starts the
  // per-box refresh tick that re-asserts unconverged goals. The plan must
  // outlive the simulator (or be detached with installFaultPlan(nullptr)).
  // Install after adding boxes and before running.
  void installFaultPlan(FaultPlan* plan);
  [[nodiscard]] FaultPlan* faultPlan() const noexcept { return fault_plan_; }

  // True while `name` is crashed (between a CrashEvent and its restart).
  [[nodiscard]] bool boxDown(const std::string& name) const noexcept;

  // Arm a convergence probe in the shared "stabilization_time" bucket —
  // the interval from now until `quiescent` first holds, i.e. how long the
  // path took to self-stabilize.
  // A positive `deadline_us` (absolute virtual time) makes the probe a
  // watchdog: missing it fails the probe and triggers the attached flight
  // recorder.
  void armStabilizationProbe(std::string name,
                             obs::ConvergenceProbes::Predicate quiescent,
                             std::int64_t deadline_us = 0) {
    probes_.arm(std::move(name), "stabilization_time", nowUs(),
                std::move(quiescent), deadline_us);
  }

  // Hook invoked on every tunnel-signal delivery (tracing/metrics).
  std::function<void(const std::string& from, const std::string& to,
                     const Signal&, SimTime)>
      onSignalDelivered;

 private:
  struct Route {
    ChannelId channel;
    std::uint32_t tunnel;
    bool from_side_a;
  };

  // Everything the simulator keeps per box, so retiring a box is one erase
  // and routing a stimulus to a box is one name lookup. Hash-table nodes
  // are stable: scheduled closures and channel records may hold a
  // BoxEntry& for as long as retireBox refuses the box (slots open, a
  // stimulus pending, a crash outage).
  struct BoxEntry {
    std::unique_ptr<Box> box;
    // Serial-server clock: when the box finishes its queued stimuli.
    SimTime busy_until;
    // Pre-composed busy-time counter name, and its handle in the registry
    // the simulator's handles are cached for (see MetricHandles).
    std::string busy_counter;
    obs::Counter* busy = nullptr;
    // Set by a crash, cleared by the restart handler.
    std::optional<SimTime> down_until;
    std::uint32_t stimuli_pending = 0;  // queued or in flight
    bool refresh_armed = false;         // one refresh tick pending
    // slot -> route for each slot of the box's live channel ends, sorted by
    // slot, maintained as ends come and go.
    std::vector<std::pair<SlotId, Route>> routes;
  };

  // Hot-path metric handles for one registry (with BoxEntry::busy). Each is
  // resolved on first use, so the registry only ever holds metrics that
  // were actually written; all are dropped when the installed registry
  // changes. MetricsRegistry references stay valid for the registry's
  // lifetime, and a registry must outlive the simulator runs it is
  // installed for.
  struct MetricHandles {
    obs::MetricsRegistry* registry = nullptr;
    obs::Counter* stimuli = nullptr;
    obs::Counter* busy_us = nullptr;
    obs::Gauge* queue_depth = nullptr;
    std::array<obs::Counter*, 6> signals{};  // by SignalKind
  };

  // One end of a channel. `entry` is set while the end is live and null
  // once it is torn down (or, for a requested channel, until the far end
  // materializes), so delivery reaches the box without a name lookup. The
  // pointer cannot dangle: a live end keeps its slots, retireBox refuses a
  // box with slots, and retiring a box closes any end still pointing at it.
  struct ChannelSide {
    std::string box;  // name: trace events and fault routing
    BoxEntry* entry = nullptr;
    std::vector<SlotId> slots;
  };

  struct ChannelRecord {
    ChannelId id;
    std::uint32_t tunnels = 1;
    ChannelSide a;  // initiator
    ChannelSide b;
    [[nodiscard]] ChannelSide& side(bool side_a) noexcept {
      return side_a ? a : b;
    }
  };

  void registerBox(std::unique_ptr<Box> box);
  [[nodiscard]] BoxEntry* findBox(const std::string& name) noexcept;
  [[nodiscard]] bool isDown(const BoxEntry& entry) const noexcept {
    return entry.down_until && loop_.now() < *entry.down_until;
  }
  // The handles cached for `m`, dropped first if they belong to another
  // registry.
  [[nodiscard]] MetricHandles& handlesFor(obs::MetricsRegistry* m) noexcept;
  // A stimulus body. Inline capacity covers the hot case (a Signal plus a
  // slot and box reference) so queuing a stimulus allocates nothing; bigger
  // closures from cold paths spill to the heap inside InlineFn.
  using StimulusFn = InlineFn<120>;
  // Run `fn` as a stimulus on `box` now: serialize on the box (busy time),
  // charge c, then execute and drain outputs. `cause` is the causal parent
  // (the context stamped on the signal/timer that triggered this stimulus);
  // empty for roots — user injections, refresh ticks, restarts — which
  // start a fresh trace when propagation is enabled.
  void stimulate(BoxEntry& entry, StimulusFn fn, obs::TraceContext cause = {});
  // Execute a scheduled CrashEvent: mark the box down, drop its queued
  // stimuli, and schedule the restart (Box::crashRestart) at the end of
  // the outage.
  void crashBox(const CrashEvent& crash);
  // Arm (if not already armed) one refresh tick for the box, firing
  // refresh_interval from now. The tick names the box by name and id, so a
  // tick outliving its box (retired, maybe re-registered) does nothing.
  void scheduleRefreshTick(BoxEntry& entry);
  void refreshTick(const std::string& name, BoxId id);
  // Process `entry`'s outputs to a fixpoint through the reused drain_out_.
  void drain(BoxEntry& entry);
  void processOutput(BoxEntry& sender, Box::Output& out);
  // Deliver a tunnel signal scheduled by processOutput. The in-flight event
  // carries only route coordinates (channel id, tunnel, destination side);
  // the destination box comes from the channel record on arrival, so the
  // capture is small and string-free; a torn-down channel means the signal
  // is simply lost, same as before.
  void deliverTunnelSignal(ChannelId channel, std::uint32_t tunnel,
                           bool to_side_a, Signal signal,
                           obs::TraceContext ctx);

  // Open the end `side` of channel `rec` on `entry`: cache the entry and
  // route each of `slots` to its tunnel.
  static void openSide(ChannelRecord& rec, bool side_a, BoxEntry& entry,
                       std::vector<SlotId> slots);
  // Close that end: forget the entry and the routes of its slots.
  static void closeSide(ChannelRecord& rec, bool side_a);
  [[nodiscard]] Route routeOf(const BoxEntry& entry, SlotId slot) const;
  [[nodiscard]] ChannelRecord& record(ChannelId id);

  EventLoop loop_;
  MediaNetwork media_net_{loop_};  // before boxes_: endpoints detach on box death
  TimingModel timing_;
  Rng rng_;
  std::uint64_t next_box_id_ = 1;
  std::uint64_t next_channel_id_ = 1;
  std::unordered_map<std::string, BoxEntry> boxes_;
  std::unordered_map<ChannelId, ChannelRecord> channels_;
  MetricHandles handles_;
  // Every drain swaps a box's pending output into this buffer, so its
  // vectors keep their capacity from one stimulus to the next.
  Box::Output drain_out_;
  std::uint64_t signals_delivered_ = 0;
  obs::ConvergenceProbes probes_;
  FaultPlan* fault_plan_ = nullptr;  // not owned
  // Globals this simulator installed, cleared on destruction so a stale
  // pointer never outlives the run that owns it.
  obs::TraceRecorder* attached_trace_ = nullptr;
  obs::MetricsRegistry* attached_metrics_ = nullptr;
  obs::FlightRecorder* attached_flight_ = nullptr;
  bool owns_log_time_ = false;
};

}  // namespace cmc
