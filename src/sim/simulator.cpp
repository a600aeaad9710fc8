#include "sim/simulator.hpp"

#include <algorithm>
#include <array>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace cmc {

namespace {

// Pre-composed per-kind counter names: charging "sim.signal.open" on every
// delivery must not rebuild the string.
const std::string& signalCounterName(SignalKind kind) {
  static const std::array<std::string, 6> names = [] {
    std::array<std::string, 6> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = std::string("sim.signal.") +
               std::string(toString(static_cast<SignalKind>(i)));
    }
    return out;
  }();
  return names[static_cast<std::size_t>(kind)];
}

obs::Counter& cachedCounter(obs::Counter*& slot, obs::MetricsRegistry& m,
                            std::string_view name) {
  if (slot == nullptr) slot = &m.counter(name);
  return *slot;
}

}  // namespace

Simulator::Simulator(TimingModel timing, std::uint64_t seed)
    : timing_(timing), rng_(seed) {}

Simulator::~Simulator() {
  if (attached_trace_ != nullptr) {
    // The recorder may outlive this simulator; its time source captures
    // `this` and must not dangle.
    attached_trace_->setTimeSource(nullptr);
    if (obs::recorder() == attached_trace_) obs::setRecorder(nullptr);
  }
  if (attached_metrics_ != nullptr && obs::metrics() == attached_metrics_) {
    obs::setMetrics(nullptr);
  }
  if (attached_flight_ != nullptr &&
      obs::flightRecorder() == attached_flight_) {
    obs::setFlightRecorder(nullptr);
  }
  if (owns_log_time_) log::setSimTimeSource(nullptr);
}

void Simulator::attachTrace(obs::TraceRecorder* rec) {
  if (rec != nullptr) {
    rec->setTimeSource([this]() { return nowUs(); });
  }
  obs::setRecorder(rec);
  attached_trace_ = rec;
}

void Simulator::attachMetrics(obs::MetricsRegistry* m) {
  obs::setMetrics(m);
  attached_metrics_ = m;
}

void Simulator::attachFlightRecorder(obs::FlightRecorder* fr) {
  if (fr != nullptr) {
    fr->setTrace(attached_trace_);
    fr->setMetrics(attached_metrics_);
    fr->setProbes(&probes_);
  }
  obs::setFlightRecorder(fr);
  attached_flight_ = fr;
}

void Simulator::useSimTimeForLogs() {
  log::setSimTimeSource([this]() { return nowUs(); });
  owns_log_time_ = true;
}

Box& Simulator::box(const std::string& name) {
  BoxEntry* entry = findBox(name);
  if (entry == nullptr) throw std::logic_error("unknown box: " + name);
  return *entry->box;
}

Simulator::BoxEntry* Simulator::findBox(const std::string& name) noexcept {
  auto it = boxes_.find(name);
  return it == boxes_.end() ? nullptr : &it->second;
}

void Simulator::registerBox(std::unique_ptr<Box> box) {
  const std::string& name = box->name();
  auto [it, inserted] = boxes_.try_emplace(name);
  if (!inserted) throw std::logic_error("duplicate box: " + name);
  BoxEntry& entry = it->second;
  entry.busy_counter = "sim.box_busy_us." + name;
  if (fault_plan_ != nullptr) box->enableStabilization(true);
  entry.box = std::move(box);
  if (fault_plan_ != nullptr) scheduleRefreshTick(entry);
}

bool Simulator::retireBox(const std::string& name) {
  auto it = boxes_.find(name);
  if (it == boxes_.end()) return false;
  BoxEntry& entry = it->second;
  const Box& target = *entry.box;
  if (target.slotCount() != 0 || target.goalCount() != 0 ||
      entry.down_until || entry.stimuli_pending != 0) {
    return false;
  }
  // A box without slots has no live channel end, so it normally has no
  // routes left either. One that dropped an end without a teardown output
  // still has that end's routes: close the end, so no channel record keeps
  // a pointer to the erased entry.
  while (!entry.routes.empty()) {
    const Route route = entry.routes.back().second;
    entry.routes.pop_back();
    auto cit = channels_.find(route.channel);
    if (cit != channels_.end() &&
        cit->second.side(route.from_side_a).entry == &entry) {
      closeSide(cit->second, route.from_side_a);
    }
  }
  boxes_.erase(it);
  return true;
}

Simulator::MetricHandles& Simulator::handlesFor(
    obs::MetricsRegistry* m) noexcept {
  if (handles_.registry != m) {
    handles_ = MetricHandles{m};
    for (auto& [name, entry] : boxes_) entry.busy = nullptr;
  }
  return handles_;
}

ChannelId Simulator::connect(const std::string& a, const std::string& b,
                             std::uint32_t tunnels) {
  BoxEntry* entry_a = findBox(a);
  BoxEntry* entry_b = findBox(b);
  if (entry_a == nullptr) throw std::logic_error("unknown box: " + a);
  if (entry_b == nullptr) throw std::logic_error("unknown box: " + b);
  const ChannelId id{next_channel_id_++};
  ChannelRecord& rec = channels_[id];
  rec.id = id;
  rec.tunnels = tunnels;
  rec.a.box = a;
  rec.b.box = b;
  openSide(rec, true, *entry_a,
           entry_a->box->addChannelEnd(id, tunnels, /*initiator=*/true, "", b));
  openSide(rec, false, *entry_b,
           entry_b->box->addChannelEnd(id, tunnels, /*initiator=*/false, "", a));
  // Static configuration happens before time starts; drain any goal signals
  // the hooks produced.
  drain(*entry_a);
  drain(*entry_b);
  return id;
}

void Simulator::inject(const std::string& box_name, std::function<void(Box&)> fn) {
  BoxEntry* entry = findBox(box_name);
  if (entry == nullptr) throw std::logic_error("unknown box: " + box_name);
  ++entry->stimuli_pending;  // queued from now, not just once stimulated
  loop_.schedule(SimDuration{0},
                 [this, entry, fn = std::move(fn)]() mutable {
                   --entry->stimuli_pending;
                   Box& target = *entry->box;
                   stimulate(*entry, [&target, fn = std::move(fn)]() { fn(target); });
                 });
}

bool Simulator::run(SimDuration horizon) { return loop_.runUntilIdle(horizon); }

void Simulator::runFor(SimDuration d) { loop_.runUntil(loop_.now() + d); }

void Simulator::installFaultPlan(FaultPlan* plan) {
  fault_plan_ = plan;
  if (plan == nullptr) return;
  // In name order, so the refresh ticks queue the same way whatever the
  // hash table's layout.
  std::vector<std::pair<const std::string*, BoxEntry*>> entries;
  entries.reserve(boxes_.size());
  for (auto& [name, entry] : boxes_) entries.emplace_back(&name, &entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto& x, const auto& y) { return *x.first < *y.first; });
  for (auto& [name, entry] : entries) {
    entry->box->enableStabilization(true);
    scheduleRefreshTick(*entry);
  }
  for (const CrashEvent& crash : plan->crashes()) {
    loop_.scheduleAt(crash.at, [this, crash]() { crashBox(crash); });
  }
  if (obs::TraceRecorder* rec = obs::recorder()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::mark;
    ev.name = "fault_plan_installed";
    ev.v0 = static_cast<std::int64_t>(plan->seed());
    rec->record(std::move(ev));
  }
}

bool Simulator::boxDown(const std::string& name) const noexcept {
  auto it = boxes_.find(name);
  return it != boxes_.end() && isDown(it->second);
}

void Simulator::crashBox(const CrashEvent& crash) {
  BoxEntry* entry = findBox(crash.box);
  if (entry == nullptr) return;
  const SimTime up_at = loop_.now() + crash.down_for;
  entry->down_until = up_at;
  if (fault_plan_ != nullptr) ++fault_plan_->counters().crashes;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    m->counter("fault.crashes").add();
  }
  if (obs::TraceRecorder* rec = obs::recorder()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::mark;
    ev.name = "crash";
    ev.actor = crash.box;
    ev.v0 = crash.down_for.count();
    rec->record(std::move(ev));
  }
  // The entry outlives the outage: retireBox refuses a crashed box.
  loop_.scheduleAt(up_at, [this, entry]() {
    entry->down_until.reset();
    Box& target = *entry->box;
    if (obs::TraceRecorder* rec = obs::recorder()) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::mark;
      ev.name = "restart";
      ev.actor = target.name();
      rec->record(std::move(ev));
    }
    stimulate(*entry, [&target]() { target.crashRestart(); });
    scheduleRefreshTick(*entry);
  });
}

void Simulator::scheduleRefreshTick(BoxEntry& entry) {
  if (fault_plan_ == nullptr || entry.refresh_armed) return;
  entry.refresh_armed = true;
  loop_.schedule(fault_plan_->spec().refresh_interval,
                 [this, name = entry.box->name(), id = entry.box->id()]() {
                   refreshTick(name, id);
                 });
}

void Simulator::refreshTick(const std::string& name, BoxId id) {
  BoxEntry* entry = findBox(name);
  if (entry == nullptr || entry->box->id() != id) return;  // retired
  entry->refresh_armed = false;
  if (fault_plan_ == nullptr) return;
  if (isDown(*entry)) return;  // the restart handler re-arms
  Box& target = *entry->box;
  if (target.needsRefresh()) {
    stimulate(*entry, [&target]() { target.refreshGoals(); });
  }
  // Keep ticking while faults may still hit this box; once injection is
  // over, stimulus completions re-arm the tick whenever a box is left
  // unconverged, so a converged path stops ticking and the loop can drain.
  // A box retired before then simply drops its tick chain.
  if (fault_plan_->activeAt(loop_.now() + fault_plan_->spec().refresh_interval) ||
      target.needsRefresh()) {
    scheduleRefreshTick(*entry);
  }
}

void Simulator::stimulate(BoxEntry& entry, StimulusFn fn,
                          obs::TraceContext cause) {
  // Serialize on the box: processing starts when the box frees up and takes
  // c; outputs appear at completion.
  const SimTime start =
      loop_.now() < entry.busy_until ? entry.busy_until : loop_.now();
  const SimTime done = start + timing_.processing;
  entry.busy_until = done;
  ++entry.stimuli_pending;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    MetricHandles& h = handlesFor(m);
    cachedCounter(h.stimuli, *m, "sim.stimuli").add();
    if (h.queue_depth == nullptr) h.queue_depth = &m->gauge("sim.queue_depth");
    h.queue_depth->set(static_cast<std::int64_t>(loop_.pending()));
    const auto busy_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(done - start)
            .count());
    cachedCounter(h.busy_us, *m, "sim.busy_us").add(busy_us);
    cachedCounter(entry.busy, *m, entry.busy_counter).add(busy_us);
  }
  const std::int64_t start_us =
      std::chrono::duration_cast<std::chrono::microseconds>(start.sinceStart())
          .count();
  // The pending count keeps the entry (and its box) alive until this runs.
  loop_.scheduleAt(done, [this, &entry, start_us, cause,
                          fn = std::move(fn)]() mutable {
    Box& box = *entry.box;
    // A stimulus queued before a crash dies with the box's volatile state.
    if (isDown(entry)) {
      --entry.stimuli_pending;
      if (fault_plan_ != nullptr) ++fault_plan_->counters().dead_box_drops;
      return;
    }
    obs::TraceRecorder* rec = obs::recorder();
    // Span adoption: the stimulus becomes a child of the span that stamped
    // the triggering signal; a causeless stimulus roots a fresh trace.
    // Each delivery gets its own span id, so fault-injected duplicates and
    // retransmits show up as distinct spans under one trace.
    obs::TraceContext self{};
    if (rec != nullptr && rec->propagationEnabled()) {
      self.trace = cause.trace != 0 ? cause.trace : rec->newId();
      self.span = rec->newId();
    }
    {
      // Value-type instrumentation inside (SlotEndpoint transitions,
      // flowlink updates) attributes events to this box via the scope, and
      // to this stimulus's span via the context scope.
      obs::ActorScope scope(box.name());
      obs::ContextScope ctx_scope(self);
      CMC_PROF_SCOPE("sim.stimulus");
      fn();
      drain(entry);
    }
    if (rec != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::boxSpan;
      ev.name = "stimulus";
      ev.actor = box.name();
      ev.ts_us = start_us;
      const std::int64_t dur = nowUs() - start_us;
      ev.dur_us = dur > 0 ? dur : 1;  // zero-width spans vanish in viewers
      ev.trace_id = self.trace;
      ev.span_id = self.span;
      ev.parent_span = cause.span;
      rec->record(std::move(ev));
    }
    // Liveness under faults: any stimulus that leaves the box unconverged
    // (a lost answer, a stale signal) re-arms its refresh tick.
    if (fault_plan_ != nullptr && box.needsRefresh()) {
      scheduleRefreshTick(entry);
    }
    --entry.stimuli_pending;
    if (!probes_.empty()) probes_.check(nowUs(), box.id().value());
  });
}

void Simulator::drain(BoxEntry& entry) {
  // Processing outputs can trigger same-box hooks that enqueue more output
  // (e.g. onChannelUp when the box creates a channel); loop to fixpoint.
  // processOutput never stimulates a box synchronously, so one buffer
  // serves every drain.
  Box& box = *entry.box;
  for (int guard = 0; guard < 64; ++guard) {
    box.drainOutputInto(drain_out_);
    if (drain_out_.empty()) return;
    processOutput(entry, drain_out_);
  }
  log::warn("sim", "box ", box.name(), " output did not quiesce");
}

void Simulator::processOutput(BoxEntry& sender_entry, Box::Output& out) {
  CMC_PROF_SCOPE("sim.process_output");
  Box& sender = *sender_entry.box;
  const std::string& from = sender.name();
  // Every output is stamped with the context of the stimulus that produced
  // it (empty when propagation is off or during static configuration), so
  // the receiving box's stimulus span can adopt it as its causal parent.
  const obs::TraceContext cause = obs::currentContext();

  for (auto& item : out.tunnel) {
    const Route route = routeOf(sender_entry, item.slot);
    const std::string& to = record(route.channel).side(!route.from_side_a).box;
    if (obs::TraceRecorder* trace = obs::recorder()) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::signalSend;
      ev.name.assign(toString(kindOf(item.signal)));
      ev.actor = from;
      ev.aux = to;
      ev.id = item.slot.value();
      ev.v0 = static_cast<std::int64_t>(route.channel.value());
      ev.v1 = route.tunnel;
      trace->record(std::move(ev));
    }
    const SimDuration latency = timing_.sampleNetwork(rng_);
    FaultDecision fate;  // default: deliver one copy, on time
    if (fault_plan_ != nullptr) {
      fate = fault_plan_->decide(from, to, loop_.now());
    }
    if (obs::MetricsRegistry* m = obs::metrics();
        m != nullptr && fault_plan_ != nullptr) {
      if (fate.drop || fate.copies > 1 || fate.extra.count() > 0) {
        m->counter("fault.injected").add();
      }
      if (fate.drop) m->counter("fault.dropped").add();
      if (fate.copies > 1) m->counter("fault.duplicated").add();
      if (fate.extra.count() > 0) m->counter("fault.delayed").add();
    }
    if (fate.drop) {
      if (obs::TraceRecorder* trace = obs::recorder()) {
        obs::TraceEvent ev;
        ev.kind = obs::EventKind::mark;
        ev.name = "fault_drop";
        ev.actor = from;
        ev.aux = to;
        ev.id = item.slot.value();
        trace->record(std::move(ev));
      }
      continue;
    }
    for (std::uint32_t copy = 0; copy < fate.copies; ++copy) {
      const SimDuration when = latency + fate.extra + fate.copy_spacing * copy;
      Signal signal_copy = item.signal;
      // Duplicates carry the same context: one trace id, one parent span;
      // each delivery then becomes its own span on the receiver. The event
      // carries route coordinates, not box-name strings: with the codec
      // list inline in the descriptor, the whole capture fits the event
      // node and scheduling a delivery allocates nothing.
      loop_.schedule(when, [this, channel = route.channel,
                            tunnel = route.tunnel,
                            to_side_a = !route.from_side_a, cause,
                            signal = std::move(signal_copy)]() mutable {
        deliverTunnelSignal(channel, tunnel, to_side_a, std::move(signal),
                            cause);
      });
    }
  }

  // Everything below is call-lifecycle administration — meta signals,
  // timers, channel creation and teardown — which inherently allocates
  // (new protocol state, new routes). It runs under its own site so
  // sim.process_output measures the per-signal forwarding path alone; the
  // admin cost stays visible in profiles under sim.output_admin.
  CMC_PROF_SCOPE("sim.output_admin");

  for (auto& [channel_id, meta] : out.meta) {
    auto it = channels_.find(channel_id);
    if (it == channels_.end()) continue;
    ChannelRecord& rec = it->second;
    const std::string& to = rec.side(rec.a.box != from).box;
    meta.ctx = cause;  // in-band provenance, mirrors the net frame encoding
    loop_.schedule(timing_.sampleNetwork(rng_),
                   [this, to, channel_id, meta = std::move(meta)]() {
                     if (channels_.count(channel_id) == 0) return;
                     BoxEntry* entry = findBox(to);
                     if (entry == nullptr) return;  // retired
                     if (isDown(*entry)) {
                       if (fault_plan_ != nullptr) {
                         ++fault_plan_->counters().dead_box_drops;
                       }
                       return;
                     }
                     Box& target = *entry->box;
                     stimulate(*entry, [&target, channel_id, meta]() {
                       target.deliverMeta(channel_id, meta);
                     }, meta.ctx);
                   });
  }

  for (auto& timer : out.timers) {
    // A timer continues the causal chain of the stimulus that armed it
    // (e.g. an openslot retry descends from the open that went unanswered).
    loop_.schedule(timer.delay, [this, from, id = sender.id(), cause,
                                 tag = std::move(timer.tag)]() {
      BoxEntry* entry = findBox(from);
      if (entry == nullptr || entry->box->id() != id) return;  // retired
      // Timers are volatile: a crash forgets them (crashRestart re-arms
      // what its re-attached goals still need).
      if (isDown(*entry)) return;
      Box& target = *entry->box;
      stimulate(*entry, [&target, tag]() { target.fireTimer(tag); }, cause);
    });
  }

  for (auto& request : out.channelRequests) {
    if (boxes_.count(request.target) == 0) {
      log::warn("sim", "channel request to unknown box ", request.target);
      continue;
    }
    const ChannelId id{next_channel_id_++};
    ChannelRecord& rec = channels_[id];
    rec.id = id;
    rec.tunnels = request.tunnels;
    rec.a.box = from;
    rec.b.box = request.target;
    openSide(rec, true, sender_entry,
             sender.addChannelEnd(id, rec.tunnels, /*initiator=*/true,
                                  request.tag, request.target));
    // The far end materializes one network latency later (setup meta). The
    // transport-level end registration is synchronous so that signals in
    // flight right behind the setup find the slots; the callee's feature
    // reaction to the new channel is charged one processing cost.
    loop_.schedule(timing_.sampleNetwork(rng_), [this, id, from, cause]() {
      auto cit = channels_.find(id);
      if (cit == channels_.end() || cit->second.a.entry == nullptr) return;
      ChannelRecord& r = cit->second;
      BoxEntry* entry = findBox(r.b.box);
      if (entry == nullptr) return;  // retired before the setup arrived
      Box& callee = *entry->box;
      openSide(r, false, *entry,
               callee.addChannelEnd(id, r.tunnels, /*initiator=*/false, "",
                                    from));
      // Materialization mutates box state (slots appear, goals may attach
      // in the incoming-channel hook) outside any stimulus, so re-evaluate
      // probes here: a quiescence predicate that flips at this instant must
      // record this instant, not whichever unrelated stimulus happens to
      // complete next — under concurrent call load the gap would make probe
      // latencies depend on what else shares the event loop.
      if (!probes_.empty()) probes_.check(nowUs(), callee.id().value());
      // Drain hook outputs after processing cost; causally the callee's
      // reaction descends from the stimulus that requested the channel.
      stimulate(*entry, []() {}, cause);
    });
  }

  for (ChannelId id : out.teardowns) {
    auto it = channels_.find(id);
    if (it == channels_.end()) continue;
    ChannelRecord& rec = it->second;
    const bool from_a = rec.a.box == from;
    closeSide(rec, from_a);
    const ChannelSide& peer = rec.side(!from_a);
    if (peer.entry != nullptr) {
      loop_.schedule(timing_.sampleNetwork(rng_),
                     [this, id, to = peer.box, cause]() {
        auto cit = channels_.find(id);
        if (cit == channels_.end()) return;
        BoxEntry* entry = findBox(to);
        if (entry == nullptr) return;  // retired
        Box& target = *entry->box;
        stimulate(*entry, [this, &target, id]() {
          target.deliverMeta(id, MetaSignal{MetaKind::teardown, "", ""});
          auto cit2 = channels_.find(id);
          if (cit2 != channels_.end()) {
            ChannelRecord& r = cit2->second;
            closeSide(r, r.a.box == target.name());
            if (r.a.entry == nullptr && r.b.entry == nullptr) {
              channels_.erase(cit2);
            }
          }
        }, cause);
      });
    } else {
      channels_.erase(it);
    }
  }
}

void Simulator::deliverTunnelSignal(ChannelId channel, std::uint32_t tunnel,
                                    bool to_side_a, Signal signal,
                                    obs::TraceContext ctx) {
  CMC_PROF_SCOPE("sim.deliver_tunnel");
  auto cit = channels_.find(channel);
  if (cit == channels_.end()) return;  // torn down while in flight
  ChannelRecord& rec = cit->second;
  const ChannelSide& to = rec.side(to_side_a);
  // A closed end (its box may be retired) loses the signal.
  if (to.entry == nullptr || tunnel >= to.slots.size()) return;
  const std::string& to_box = to.box;
  const std::string& from_box = rec.side(!to_side_a).box;
  BoxEntry* entry = to.entry;
  if (isDown(*entry)) {
    // The destination is crashed: the signal reaches a dead transport and
    // is lost, exactly like a drop fault.
    if (fault_plan_ != nullptr) ++fault_plan_->counters().dead_box_drops;
    if (obs::MetricsRegistry* m = obs::metrics()) {
      m->counter("fault.dead_box_drops").add();
    }
    return;
  }
  const SlotId slot = to.slots[tunnel];
  Box& target = *entry->box;
  ++signals_delivered_;
  if (obs::MetricsRegistry* m = obs::metrics()) {
    const SignalKind kind = kindOf(signal);
    cachedCounter(handlesFor(m).signals[static_cast<std::size_t>(kind)], *m,
                  signalCounterName(kind))
        .add();
  }
  if (obs::TraceRecorder* trace = obs::recorder()) {
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::signalRecv;
    ev.name.assign(toString(kindOf(signal)));
    ev.actor = to_box;
    ev.aux = from_box;
    ev.id = slot.value();
    ev.v0 = static_cast<std::int64_t>(channel.value());
    ev.v1 = tunnel;
    // The arrival instant precedes the stimulus span (processing may queue
    // behind a busy box), so it records the carried context explicitly:
    // which trace it belongs to and which span caused it.
    ev.trace_id = ctx.trace;
    ev.parent_span = ctx.span;
    trace->record(std::move(ev));
  }
  if (onSignalDelivered) {
    onSignalDelivered(from_box, to_box, signal, loop_.now());
  }
  stimulate(*entry, [&target, slot, signal = std::move(signal)]() {
    target.deliverTunnel(slot, signal);
  }, ctx);
}

namespace {

template <typename Routes>
auto routeSlot(Routes& routes, SlotId slot) {
  return std::lower_bound(
      routes.begin(), routes.end(), slot,
      [](const auto& route, SlotId s) { return route.first < s; });
}

}  // namespace

void Simulator::openSide(ChannelRecord& rec, bool side_a, BoxEntry& entry,
                         std::vector<SlotId> slots) {
  ChannelSide& side = rec.side(side_a);
  side.entry = &entry;
  side.slots = std::move(slots);
  for (std::uint32_t t = 0; t < side.slots.size(); ++t) {
    const SlotId slot = side.slots[t];
    entry.routes.emplace(routeSlot(entry.routes, slot), slot,
                         Route{rec.id, t, side_a});
  }
}

void Simulator::closeSide(ChannelRecord& rec, bool side_a) {
  ChannelSide& side = rec.side(side_a);
  if (side.entry == nullptr) return;
  auto& routes = side.entry->routes;
  for (SlotId slot : side.slots) {
    auto it = routeSlot(routes, slot);
    if (it != routes.end() && it->first == slot) routes.erase(it);
  }
  side.entry = nullptr;
}

Simulator::Route Simulator::routeOf(const BoxEntry& entry, SlotId slot) const {
  auto it = routeSlot(entry.routes, slot);
  if (it == entry.routes.end() || it->first != slot) {
    throw std::logic_error("no route for slot on box " + entry.box->name());
  }
  return it->second;
}

Simulator::ChannelRecord& Simulator::record(ChannelId id) {
  auto it = channels_.find(id);
  if (it == channels_.end()) throw std::logic_error("unknown channel");
  return it->second;
}

}  // namespace cmc
