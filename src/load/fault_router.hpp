// Per-call fault routing for the sharded load runtime.
//
// One PerCallFaultRouter is installed per shard Simulator. It owns one
// seeded FaultPlan per faulty call and routes every decide() to the plan of
// the call the emitting box belongs to (box names carry the call-id prefix,
// see CallSpec). Two properties follow:
//
//   * isolation — each call's fault stream consumes only its own Rng, so a
//     faulty call cannot perturb the faults (or the absence of faults) of
//     any other call sharing its shard;
//   * shard invariance — a call's fault decisions depend only on its own
//     seed and its own signal sequence, so re-sharding the workload leaves
//     every call's faults byte-identical.
//
// FaultSpec::active_for is measured from simulated time zero, but a call
// arriving at t=40s must see its fault window over *its* first active_for,
// not the shard's. The router therefore shifts time: each sub-plan is asked
// about `now - arrival` as if it were absolute time.
//
// activeAt() keeps the simulator's per-box stabilization refresh ticks
// alive while any fault window may still be open, or until the leak audit
// retires a cleanly torn-down call's boxes, whichever comes first (a tick
// on a retired box does nothing). Crucially the horizon it
// answers with is computed over the WHOLE workload (ShardedRuntime passes
// it in), not over the calls this shard happened to draw: refresh-tick
// chains live and die by activeAt(), and if their lifetime varied by shard
// composition, a box could get a goal refresh at different instants under
// different shard counts — breaking replay invariance. For the same reason
// the runtime installs a router on every shard whenever the workload has a
// nonzero fault fraction, even on shards that drew no faulty calls:
// installing a plan flips boxes into stabilization mode, and whether a call
// runs in that mode must not depend on where it landed.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "load/workload.hpp"
#include "sim/fault.hpp"
#include "util/time.hpp"

namespace cmc::load {

class PerCallFaultRouter : public FaultPlan {
 public:
  // `base` supplies refresh_interval (and the per-call fault shape default).
  // `fault_horizon` is the absolute virtual instant after which no call in
  // the whole workload can still be inside its fault window — i.e.
  // max(arrival + active_for) over every faulty call, shard-independent.
  // An active_for of zero means fault windows never close.
  PerCallFaultRouter(FaultSpec base, SimTime fault_horizon)
      : FaultPlan(/*seed=*/0, base),
        horizon_(fault_horizon),
        never_ends_(base.active_for.count() == 0) {}

  // Register one faulty call: its boxes get fault decisions from a plan
  // seeded with the call's own seed.
  void addCall(const CallSpec& call, const FaultSpec& spec) {
    auto entry = std::make_shared<Entry>(Entry{
        call.arrival, std::make_unique<FaultPlan>(call.seed, spec)});
    by_box_[call.leftName()] = entry;
    by_box_[call.rightName()] = entry;
    if (call.flowlinks > 0) by_box_[call.relayName()] = entry;
  }

  [[nodiscard]] bool activeAt(SimTime now) const noexcept override {
    return never_ends_ || now < horizon_;
  }

  [[nodiscard]] FaultDecision decide(const std::string& from,
                                     const std::string& to,
                                     SimTime now) override {
    ++counters().considered;
    auto it = by_box_.find(from);
    if (it == by_box_.end()) return FaultDecision{};
    Entry& entry = *it->second;
    // Shift into the call's own timeline so its fault window opens at its
    // arrival, wherever in the shard's run that falls.
    const SimTime call_now = SimTime{} + (now - entry.arrival);
    return entry.plan->decide(from, to, call_now);
  }

  // Fault counters for the call owning `box_name` (nullptr for clean calls).
  [[nodiscard]] const Counters* countersFor(const std::string& box_name) const {
    auto it = by_box_.find(box_name);
    return it == by_box_.end() ? nullptr : &it->second->plan->counters();
  }

 private:
  struct Entry {
    SimTime arrival;
    std::unique_ptr<FaultPlan> plan;
  };

  SimTime horizon_;
  bool never_ends_;
  // Shared entries: the three box names of a call alias one Entry.
  std::map<std::string, std::shared_ptr<Entry>> by_box_;
};

}  // namespace cmc::load
