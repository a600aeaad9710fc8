// Tests for simulator internals: serial-server queueing (the paper's boxes
// process one stimulus at a time at cost c), network jitter, the delivery
// hook, injection ordering, and box retirement.
#include <gtest/gtest.h>

#include "endpoints/user_device.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;

TEST(SimInternals, StimuliSerializeOnABox) {
  // Two stimuli injected at t=0 on the same box: the box is a serial
  // server with processing cost c = 20 ms, so they complete at 20 and 40.
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("box");
  std::vector<double> completions;
  sim.inject("box", [&](Box&) { completions.push_back(0); });
  sim.inject("box", [&](Box&) { completions.push_back(0); });
  sim.runFor(1_s);
  // Completion times are observable through the loop clock at callback
  // time; re-run with capture:
  Simulator sim2(TimingModel::paperDefaults(), 1);
  sim2.addBox<Box>("box");
  std::vector<double> at;
  sim2.inject("box", [&](Box&) { at.push_back(sim2.now().millis()); });
  sim2.inject("box", [&](Box&) { at.push_back(sim2.now().millis()); });
  sim2.runFor(1_s);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 20.0);
  EXPECT_DOUBLE_EQ(at[1], 40.0);
}

TEST(SimInternals, DifferentBoxesRunInParallel) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("x");
  sim.addBox<Box>("y");
  std::vector<double> at;
  sim.inject("x", [&](Box&) { at.push_back(sim.now().millis()); });
  sim.inject("y", [&](Box&) { at.push_back(sim.now().millis()); });
  sim.runFor(1_s);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], 20.0);
  EXPECT_DOUBLE_EQ(at[1], 20.0);  // not serialized across boxes
}

TEST(SimInternals, SignalHookSeesDeliveries) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.2", 5000));
  std::vector<std::string> kinds;
  sim.onSignalDelivered = [&](const std::string& from, const std::string& to,
                              const Signal& signal, SimTime) {
    kinds.push_back(std::string(from) + ">" + to + ":" +
                    std::string(toString(kindOf(signal))));
  };
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim.runFor(2_s);
  ASSERT_GE(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], "A>B:open");
  EXPECT_EQ(kinds[1], "B>A:oack");
  EXPECT_EQ(kinds[2], "B>A:select");
  EXPECT_EQ(kinds[3], "A>B:select");
  EXPECT_EQ(sim.signalsDelivered(), kinds.size());
}

TEST(SimInternals, JitterSpreadsDeliveries) {
  TimingModel timing = TimingModel::paperDefaults();
  timing.network_jitter = 0.5;
  Simulator sim(timing, 9);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.9.1.2", 5000));
  std::vector<double> at;
  sim.onSignalDelivered = [&](const std::string&, const std::string&,
                              const Signal&, SimTime t) {
    at.push_back(t.millis());
  };
  sim.inject("A", [](Box& bx) { static_cast<UserDeviceBox&>(bx).placeCall("B"); });
  sim.runFor(2_s);
  ASSERT_GE(at.size(), 2u);
  // The open leaves when the inject stimulus completes (t = c = 20 ms) and
  // arrives n later; with +/-50% jitter n is in [17, 51] ms.
  EXPECT_GE(at[0], 20.0 + 17.0 - 0.001);
  EXPECT_LE(at[0], 20.0 + 51.0 + 0.001);
  // The call still establishes.
  auto& a = static_cast<UserDeviceBox&>(sim.box("A"));
  EXPECT_TRUE(a.inCall());
}

TEST(SimInternals, ConnectIsImmediatelyUsable) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.9.1.1", 5000));
  sim.addBox<Box>("hub");
  const ChannelId ch = sim.connect("A", "hub");
  EXPECT_TRUE(a.hasChannel(ch));
  EXPECT_TRUE(sim.box("hub").hasChannel(ch));
}

TEST(SimInternals, DuplicateBoxNameThrows) {
  Simulator sim;
  sim.addBox<Box>("same");
  EXPECT_THROW(sim.addBox<Box>("same"), std::logic_error);
}

TEST(SimInternals, UnknownBoxLookupThrows) {
  Simulator sim;
  EXPECT_THROW(sim.box("ghost"), std::logic_error);
}

// A bare box whose timers and channel teardowns a test can trigger, and
// whose timer firings land in a counter that outlives the box.
class ProbeBox : public Box {
 public:
  ProbeBox(BoxId id, std::string name, int* timers_fired)
      : Box(id, std::move(name)), timers_fired_(timers_fired) {}
  void armTimer(SimDuration delay) { setTimer(delay, "probe"); }
  void destroy(ChannelId channel) { destroyChannel(channel); }

 protected:
  void onTimer(const std::string&) override { ++*timers_fired_; }

 private:
  int* timers_fired_;
};

TEST(SimInternals, RetireBoxRefusesABoxStillInUse) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  auto& a = sim.addBox<Box>("a");
  sim.addBox<Box>("b");
  const ChannelId ch = sim.connect("a", "b");
  EXPECT_FALSE(sim.retireBox("a")) << "box with slots";
  a.setGoal(a.slotsOf(ch).at(0), CloseSlotGoal{});
  EXPECT_FALSE(sim.retireBox("a")) << "box with slots and goals";

  sim.addBox<Box>("q");
  sim.inject("q", [](Box&) {});
  EXPECT_FALSE(sim.retireBox("q")) << "stimulus queued";
  sim.runFor(1_ms);  // the injection has started; it completes at c = 20 ms
  EXPECT_FALSE(sim.retireBox("q")) << "stimulus in flight";
  sim.runFor(1_s);
  EXPECT_TRUE(sim.retireBox("q"));
  EXPECT_FALSE(sim.hasBox("q"));
  EXPECT_FALSE(sim.retireBox("q")) << "already retired";
  EXPECT_TRUE(sim.hasBox("a"));
}

TEST(SimInternals, RetireBoxRefusesACrashedBox) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("c");
  FaultSpec spec;
  spec.active_for = 1_s;
  FaultPlan plan(3, spec);
  plan.addCrash(CrashEvent{"c", SimTime{} + 100_ms, 500_ms});
  sim.installFaultPlan(&plan);
  sim.runFor(200_ms);
  ASSERT_TRUE(sim.boxDown("c"));
  EXPECT_FALSE(sim.retireBox("c"));
  sim.runFor(600_ms);  // restarted at 600 ms; the restart stimulus is done
  EXPECT_FALSE(sim.boxDown("c"));
  EXPECT_TRUE(sim.retireBox("c"));
  EXPECT_TRUE(sim.run());
}

TEST(SimInternals, PendingTimerAndTeardownForARetiredBoxAreNoOps) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  int fired = 0;
  sim.addBox<ProbeBox>("t", &fired);
  sim.inject("t", [](Box& b) { static_cast<ProbeBox&>(b).armTimer(100_ms); });
  sim.runFor(50_ms);  // the timer is armed and pending
  ASSERT_TRUE(sim.retireBox("t"));
  // A box registered under the same name is a different box: the stale
  // timer must not fire on it either.
  int fired_again = 0;
  sim.addBox<ProbeBox>("t", &fired_again);

  // A teardown meta in flight toward a box that has already let go of its
  // channel end and been retired.
  sim.addBox<ProbeBox>("a", &fired);
  sim.addBox<ProbeBox>("b", &fired);
  const ChannelId ch = sim.connect("a", "b");
  sim.box("b").removeChannel(ch);
  ASSERT_TRUE(sim.retireBox("b"));
  sim.inject("a", [ch](Box& b) { static_cast<ProbeBox&>(b).destroy(ch); });

  EXPECT_TRUE(sim.run());
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(fired_again, 0);
  EXPECT_FALSE(sim.hasBox("b"));
  EXPECT_EQ(sim.box("a").slotCount(), 0u);
}

// A channel end caches its box for delivery. A box that lets go of its end
// without a teardown output can still be retired; its end must close with
// it, so a signal sent toward it later is lost rather than delivered to a
// freed box, or to a new box registered under the same name.
TEST(SimInternals, SignalTowardARetiredBoxIsLost) {
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("a");
  sim.addBox<Box>("b");
  const ChannelId ch = sim.connect("a", "b");
  sim.box("b").removeChannel(ch);
  ASSERT_TRUE(sim.retireBox("b"));
  auto& fresh = sim.addBox<Box>("b");

  const SlotId slot = sim.box("a").slotsOf(ch).at(0);
  sim.inject("a", [slot](Box& box) {
    box.setGoal(slot, OpenSlotGoal{Medium::audio,
                                   MediaIntent::endpoint(
                                       MediaAddress::parse("10.0.0.1", 5000),
                                       {Codec::g711u}),
                                   DescriptorFactory{1}});
  });
  sim.runFor(1_s);  // the open goes out (and is retried) but lands nowhere
  EXPECT_EQ(sim.signalsDelivered(), 0u);
  EXPECT_EQ(fresh.slotCount(), 0u);
}

TEST(SimInternals, ReRegisteredNameGetsAFreshRefreshTickChain) {
  // Ticks every 300 ms while faults may still be injected (first second).
  FaultSpec spec;
  spec.active_for = 1_s;
  spec.refresh_interval = 300_ms;
  FaultPlan plan(5, spec);

  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("r");
  sim.installFaultPlan(&plan);  // first tick pending at 300 ms
  sim.runFor(100_ms);
  ASSERT_TRUE(sim.retireBox("r"));
  sim.addBox<Box>("r");  // a fresh chain: ticks at 400 and 700 ms
  const std::uint64_t before = sim.loop().executed();
  EXPECT_TRUE(sim.run());
  // The retired box's stale tick at 300 ms runs as a no-op and leaves the
  // new box's chain alone; the new box ticks exactly twice (the 700 ms tick
  // sees the fault window closed by 1000 ms and does not re-arm).
  EXPECT_EQ(sim.loop().executed() - before, 3u);
}

TEST(SimInternals, MetricHandlesFollowTheInstalledRegistry) {
  // The simulator caches its hot-path metric handles; switching registries
  // mid-run must send later writes to the new registry, not the old one.
  Simulator sim(TimingModel::paperDefaults(), 1);
  sim.addBox<Box>("m");
  obs::MetricsRegistry first;
  obs::MetricsRegistry second;
  sim.attachMetrics(&first);
  sim.inject("m", [](Box&) {});
  sim.runFor(1_s);
  sim.attachMetrics(&second);
  sim.inject("m", [](Box&) {});
  sim.inject("m", [](Box&) {});
  sim.runFor(1_s);
  sim.attachMetrics(nullptr);
  for (auto [registry, stimuli] :
       {std::pair{&first, 1u}, std::pair{&second, 2u}}) {
    ASSERT_NE(registry->findCounter("sim.stimuli"), nullptr);
    EXPECT_EQ(registry->findCounter("sim.stimuli")->value(), stimuli);
    ASSERT_NE(registry->findCounter("sim.box_busy_us.m"), nullptr);
    EXPECT_EQ(registry->findCounter("sim.box_busy_us.m")->value(),
              stimuli * 20'000u);
  }
}

}  // namespace
}  // namespace cmc
