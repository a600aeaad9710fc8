// Tests for the observability subsystem: trace recorder determinism and
// ring-buffer bounds, recorder transparency (on vs off changes nothing),
// metrics counters, convergence probes, and log timestamps.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "endpoints/user_device.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/probes.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/log.hpp"

namespace cmc {
namespace {

using namespace literals;

struct CallOutcome {
  std::uint64_t signals = 0;
  bool a_hears_b = false;
  bool b_hears_a = false;
  double end_ms = 0;
};

// Run the canonical two-phone call for 2 s of virtual time, optionally with
// a recorder and registry installed, and report what happened.
CallOutcome runCall(std::uint64_t seed, obs::TraceRecorder* rec,
                    obs::MetricsRegistry* reg) {
  Simulator sim(TimingModel::paperDefaults(), seed);
  if (rec != nullptr) sim.attachTrace(rec);
  if (reg != nullptr) sim.attachMetrics(reg);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));
  sim.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(2_s);
  CallOutcome out;
  out.signals = sim.signalsDelivered();
  out.a_hears_b = a.media().hears(b.media().id());
  out.b_hears_a = b.media().hears(a.media().id());
  out.end_ms = sim.now().millis();
  return out;
}

TEST(ObsTraceTest, IdenticalSeedsYieldByteIdenticalTraces) {
  obs::TraceRecorder first;
  obs::TraceRecorder second;
  runCall(/*seed=*/5, &first, nullptr);
  runCall(/*seed=*/5, &second, nullptr);
  ASSERT_GT(first.recorded(), 0u);
  EXPECT_EQ(first.recorded(), second.recorded());
  EXPECT_EQ(first.chromeTraceJson(), second.chromeTraceJson());
}

TEST(ObsTraceTest, RecorderOnVsOffIdenticalOutcomes) {
  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  const CallOutcome off = runCall(/*seed=*/9, nullptr, nullptr);
  const CallOutcome on = runCall(/*seed=*/9, &rec, &reg);
  EXPECT_EQ(on.signals, off.signals);
  EXPECT_EQ(on.a_hears_b, off.a_hears_b);
  EXPECT_EQ(on.b_hears_a, off.b_hears_a);
  EXPECT_EQ(on.end_ms, off.end_ms);
  EXPECT_TRUE(off.a_hears_b);
  EXPECT_TRUE(off.b_hears_a);
}

TEST(ObsTraceTest, RingOverflowKeepsNewestWithDroppedCount) {
  obs::TraceRecorder rec(/*capacity=*/8);
  for (int i = 0; i < 20; ++i) {
    rec.record(obs::EventKind::mark, "e" + std::to_string(i), "t");
  }
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const std::vector<obs::TraceEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].name,
              "e" + std::to_string(12 + i));
  }
  EXPECT_NE(rec.chromeTraceJson().find("\"dropped_events\":12"),
            std::string::npos);
}

TEST(ObsTraceTest, RingOverflowBumpsDroppedMetricAndReportsSize) {
  obs::MetricsRegistry reg;
  obs::setThreadMetrics(&reg);
  obs::TraceRecorder rec(/*capacity=*/4);
  for (int i = 0; i < 3; ++i) {
    rec.record(obs::EventKind::mark, "fits", "t");
  }
  EXPECT_EQ(rec.size(), 3u);
  // No overflow yet: the counter must not even exist, so drop-free runs
  // keep their metrics dumps byte-identical.
  EXPECT_EQ(reg.findCounter("trace.dropped"), nullptr);
  for (int i = 0; i < 7; ++i) {
    rec.record(obs::EventKind::mark, "overflow", "t");
  }
  EXPECT_EQ(rec.size(), rec.capacity());
  EXPECT_EQ(rec.dropped(), 6u);
  const obs::Counter* dropped = reg.findCounter("trace.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 6u);
  obs::setThreadMetrics(nullptr);
}

TEST(ObsMetricsTest, GaugeMaxNeverSetReturnsValueNotSentinel) {
  // Regression: a created-but-never-set gauge used to report INT64_MIN as
  // its high-water mark, which leaked the sentinel into dumps.
  obs::Gauge gauge;
  EXPECT_EQ(gauge.max(), 0);
  EXPECT_EQ(gauge.value(), 0);
  obs::MetricsRegistry reg;
  (void)reg.gauge("untouched");
  EXPECT_NE(reg.json().find("\"untouched\":{\"value\":0,\"max\":0}"),
            std::string::npos);
  // Once set, max tracks the high-water mark as before.
  gauge.set(-5);
  EXPECT_EQ(gauge.max(), -5);
  gauge.set(3);
  gauge.set(1);
  EXPECT_EQ(gauge.max(), 3);
}

TEST(ObsTraceTest, SlotTransitionsAndSignalsRecorded) {
  obs::TraceRecorder rec;
  runCall(/*seed=*/3, &rec, nullptr);
  bool saw_flowing = false;
  bool saw_send_open = false;
  bool saw_recv_oack = false;
  bool saw_span = false;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind == obs::EventKind::slotTransition && ev.name == "flowing") {
      saw_flowing = true;
      EXPECT_FALSE(ev.actor.empty());  // ActorScope attributed the box
    }
    if (ev.kind == obs::EventKind::signalSend && ev.name == "open") {
      saw_send_open = true;
    }
    if (ev.kind == obs::EventKind::signalRecv && ev.name == "oack") {
      saw_recv_oack = true;
    }
    if (ev.kind == obs::EventKind::boxSpan) {
      saw_span = true;
      EXPECT_EQ(ev.dur_us, 20'000);  // paper processing cost c = 20 ms
    }
  }
  EXPECT_TRUE(saw_flowing);
  EXPECT_TRUE(saw_send_open);
  EXPECT_TRUE(saw_recv_oack);
  EXPECT_TRUE(saw_span);
}

TEST(ObsMetricsTest, CountersPopulatedBySimulation) {
  obs::MetricsRegistry reg;
  runCall(/*seed=*/7, nullptr, &reg);
  const obs::Counter* stimuli = reg.findCounter("sim.stimuli");
  ASSERT_NE(stimuli, nullptr);
  EXPECT_GT(stimuli->value(), 0u);
  const obs::Counter* open = reg.findCounter("sim.signal.open");
  ASSERT_NE(open, nullptr);
  EXPECT_GE(open->value(), 1u);
  const obs::Counter* posted = reg.findCounter("goal.posted");
  ASSERT_NE(posted, nullptr);
  EXPECT_GE(posted->value(), 2u);  // both devices post goals
  const obs::Counter* achieved = reg.findCounter("goal.achieved");
  ASSERT_NE(achieved, nullptr);
  EXPECT_GE(achieved->value(), 1u);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.stimuli\""), std::string::npos);
}

TEST(ObsMetricsTest, GaugeAddIsExactUnderContention) {
  // Regression: add() used to be a load/set pair, losing concurrent deltas.
  obs::Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge]() {
      for (int i = 0; i < kIters; ++i) {
        gauge.add(2);
        gauge.add(-1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(gauge.value(), kThreads * kIters);
  // The high-water mark saw at least the final value and never more than
  // the sum of all positive deltas.
  EXPECT_GE(gauge.max(), gauge.value());
  EXPECT_LE(gauge.max(), std::int64_t{2} * kThreads * kIters);
}

TEST(ObsTraceTest, FlowEventsLinkParentAndChildSpans) {
  obs::TraceRecorder rec;
  obs::TraceEvent parent;
  parent.kind = obs::EventKind::boxSpan;
  parent.name = "stimulus";
  parent.actor = "A";
  parent.ts_us = 100;
  parent.dur_us = 20'000;
  parent.trace_id = 7;
  parent.span_id = 1;
  rec.record(parent);
  obs::TraceEvent child = parent;
  child.actor = "B";
  child.ts_us = 54'100;
  child.span_id = 2;
  child.parent_span = 1;
  rec.record(child);
  // An orphan whose parent fell out of the ring must not emit an arrow.
  obs::TraceEvent orphan = parent;
  orphan.actor = "C";
  orphan.ts_us = 90'000;
  orphan.span_id = 3;
  orphan.parent_span = 99;
  rec.record(orphan);

  const std::string json = rec.chromeTraceJson();
  // The arrow leaves A's span at its end and lands at B's span start, both
  // sides carrying the child's span id so viewers pair them up.
  EXPECT_NE(json.find("{\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":20100,"
                      "\"cat\":\"flow\",\"name\":\"causal\",\"id\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":2,"
                      "\"ts\":54100,\"cat\":\"flow\",\"name\":\"causal\","
                      "\"id\":2}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"id\":3}"), std::string::npos);
}

TEST(ObsMetricsTest, HistogramQuantiles) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test.latency");
  for (int i = 1; i <= 100; ++i) h.observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_GE(h.quantile(0.99), h.quantile(0.5));
  EXPECT_LE(h.quantile(1.0), 100.0);
}

// A box named with '"' or '\' reaches every metrics writer through its
// sim.box_busy_us.<box> counter; unescaped, it makes the rollup, the
// `metrics` ops verb and the flight dump unparseable.
TEST(ObsMetricsTest, NamesAreEscapedByEveryWriter) {
  const std::string name = "sim.box_busy_us.q\"b\\";
  const std::string key = "\"sim.box_busy_us.q\\\"b\\\\\":";
  auto occurrences = [&](const std::string& json) {
    std::size_t n = 0;
    for (auto at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
      ++n;
    }
    return n;
  };
  obs::MetricsRegistry reg;
  reg.counter(name).add(1);
  reg.gauge(name).set(2);
  reg.histogram(name).observe(3);
  EXPECT_EQ(occurrences(reg.json()), 3u) << reg.json();
  const auto shot = obs::MetricsSnapshot::capture(reg, 0);
  EXPECT_EQ(occurrences(shot.json()), 3u) << shot.json();

  obs::ConvergenceProbes probes;
  probes.arm("p", name, 0, []() { return true; });
  probes.check(10);
  EXPECT_EQ(occurrences(probes.json()), 1u) << probes.json();
}

TEST(ObsProbesTest, ProbeCapturesConvergenceLatency) {
  Simulator sim(TimingModel::paperDefaults(), 11);
  auto& a = sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.1", 5000));
  auto& b = sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                                      MediaAddress::parse("10.0.0.2", 5000));
  // Probes are re-evaluated after box stimuli, so the predicate must read
  // signaling-driven state (sendingState is set synchronously inside the
  // device's stimulus processing), not packet-arrival state like hears().
  sim.probes().arm("call_setup", "setup", sim.nowUs(), [&]() {
    const auto& sa = a.media().sendingState();
    const auto& sb = b.media().sendingState();
    return sa && sb && sa->target == b.media().address() &&
           sb->target == a.media().address() && !isNoMedia(sa->codec) &&
           !isNoMedia(sb->codec);
  });
  EXPECT_EQ(sim.probes().armedCount(), 1u);
  sim.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(5_s);
  EXPECT_EQ(sim.probes().convergedCount(), 1u);
  const auto latency = sim.probes().latencyUs("call_setup");
  ASSERT_TRUE(latency.has_value());
  EXPECT_GT(*latency, 0);
  EXPECT_LT(*latency, 2'000'000);  // converged well before the horizon
  const obs::Histogram* h = sim.probes().histogram("setup");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_NE(sim.probes().json().find("\"setup\""), std::string::npos);
}

TEST(ObsProbesTest, UnsatisfiedProbeStaysArmed) {
  Simulator sim(TimingModel::paperDefaults(), 13);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  sim.probes().arm("never", "never", sim.nowUs(), []() { return false; });
  sim.inject("A", [](Box&) {});
  sim.runFor(1_s);
  EXPECT_EQ(sim.probes().armedCount(), 1u);
  EXPECT_EQ(sim.probes().convergedCount(), 0u);
  EXPECT_FALSE(sim.probes().latencyUs("never").has_value());
}

// A probe scoped to the boxes its predicate reads must record exactly what
// an unscoped probe over the same predicate records, while being evaluated
// only when one of those boxes is stimulated. A second call between C and D
// keeps unrelated boxes busy throughout.
TEST(ObsProbesTest, WatchedProbeRecordsTheSameLatencyAsAnUnscopedOne) {
  Simulator sim(TimingModel::paperDefaults(), 11);
  auto addPhone = [&](const std::string& name, const char* ip) -> auto& {
    return sim.addBox<UserDeviceBox>(name, sim.mediaNetwork(), sim.loop(),
                                     MediaAddress::parse(ip, 5000));
  };
  auto& a = addPhone("A", "10.0.0.1");
  auto& b = addPhone("B", "10.0.0.2");
  addPhone("C", "10.0.0.3");
  addPhone("D", "10.0.0.4");
  int unscoped_evals = 0;
  int watched_evals = 0;
  auto inCall = [&a, &b]() {
    const auto& sa = a.media().sendingState();
    const auto& sb = b.media().sendingState();
    return sa && sb && sa->target == b.media().address() &&
           sb->target == a.media().address();
  };
  sim.probes().arm("unscoped", "setup", sim.nowUs(), [&]() {
    ++unscoped_evals;
    return inCall();
  });
  sim.probes().arm(
      "watched", "setup", sim.nowUs(),
      [&]() {
        ++watched_evals;
        return inCall();
      },
      /*deadline_us=*/0, {a.id().value(), b.id().value()});
  sim.inject("C", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("D"); });
  sim.runFor(20_ms);
  sim.inject("A", [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(5_s);

  EXPECT_EQ(sim.probes().convergedCount(), 2u);
  const auto unscoped = sim.probes().latencyUs("unscoped");
  const auto watched = sim.probes().latencyUs("watched");
  ASSERT_TRUE(unscoped.has_value());
  ASSERT_TRUE(watched.has_value());
  EXPECT_EQ(*watched, *unscoped);
  EXPECT_LT(watched_evals, unscoped_evals)
      << "the watched probe was evaluated on stimuli of C and D";
}

// Scoping narrows which predicates a check runs, never when a watchdog
// fires: a probe watching a box that is never stimulated still fails at
// the first check at or after its deadline, the same check as an unscoped
// one, and both fail in arming order. A probe is evaluated at its first
// check after arming whatever box that check names, and after that only at
// checks naming a box it watches.
TEST(ObsProbesTest, WatchedDeadlineFailsAtTheSameCheckAsAnUnscopedOne) {
  obs::ConvergenceProbes probes;
  std::vector<std::pair<std::string, std::int64_t>> failures;
  probes.setOnFailure([&](const std::string& name, std::int64_t now_us) {
    failures.emplace_back(name, now_us);
  });
  const std::uint64_t kIdle = 7;
  const std::uint64_t kBusy = 9;
  probes.arm("watched", "never", 0, []() { return false; },
             /*deadline_us=*/100, {kIdle});
  probes.arm("unscoped", "never", 0, []() { return false; },
             /*deadline_us=*/100);
  probes.check(50, kBusy);
  EXPECT_TRUE(failures.empty());
  probes.check(150, kBusy);
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0], (std::pair<std::string, std::int64_t>{"watched", 150}));
  EXPECT_EQ(failures[1], (std::pair<std::string, std::int64_t>{"unscoped", 150}));
  EXPECT_EQ(probes.failed(), (std::vector<std::string>{"watched", "unscoped"}));
  EXPECT_TRUE(probes.empty());

  bool resting = false;
  int evals = 0;
  probes.arm("late", "late", 200, [&]() {
    ++evals;
    return resting;
  }, /*deadline_us=*/0, {kIdle});
  probes.check(210, kBusy);  // first check after arming: evaluated
  EXPECT_EQ(evals, 1);
  resting = true;
  probes.check(220, kBusy);  // not watching kBusy: not evaluated
  EXPECT_EQ(evals, 1);
  EXPECT_FALSE(probes.latencyUs("late").has_value());
  probes.check(230, kIdle);
  EXPECT_EQ(probes.latencyUs("late"), std::optional<std::int64_t>{30});
}

TEST(ObsFlightRecorderTest, ProbeDeadlineTriggersPostMortemDump) {
  Simulator sim(TimingModel::paperDefaults(), 17);
  obs::TraceRecorder rec;
  obs::MetricsRegistry reg;
  sim.attachTrace(&rec);
  sim.attachMetrics(&reg);
  rec.setPropagation(true);
  obs::FlightRecorder::Config cfg;
  cfg.directory = ::testing::TempDir();
  cfg.prefix = "obs_test_flight";
  obs::FlightRecorder flight(cfg);
  sim.attachFlightRecorder(&flight);

  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  std::string failed_probe;
  sim.probes().setOnFailure(
      [&](const std::string& name, std::int64_t) { failed_probe = name; });
  // A watchdog that can never converge: the first probe check after its
  // deadline (1 ms of virtual time) must fail it and dump a post-mortem.
  sim.probes().arm("never", "never", sim.nowUs(), []() { return false; },
                   /*deadline_us=*/1'000);
  sim.inject("A",
             [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(2_s);

  EXPECT_EQ(sim.probes().failedCount(), 1u);
  ASSERT_EQ(sim.probes().failed().size(), 1u);
  EXPECT_EQ(sim.probes().failed()[0], "never");
  EXPECT_EQ(failed_probe, "never");
  EXPECT_EQ(sim.probes().armedCount(), 0u);
  EXPECT_EQ(flight.dumps(), 1u);

  std::ifstream in(flight.lastPath());
  ASSERT_TRUE(in.good()) << flight.lastPath();
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("\"reason\":\"probe_timeout:never\""), std::string::npos);
  EXPECT_NE(body.find("\"critical_path\":"), std::string::npos);
  EXPECT_NE(body.find("\"trace\":"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(body.find("\"probes_failed\":1"), std::string::npos);
}

TEST(ObsFlightRecorderTest, FlightAssertDumpsOnlyOnFailure) {
  obs::TraceRecorder rec;
  rec.record(obs::EventKind::mark, "before_failure", "harness");
  obs::FlightRecorder::Config cfg;
  cfg.directory = ::testing::TempDir();
  cfg.prefix = "obs_test_assert";
  cfg.max_dumps = 2;
  obs::FlightRecorder flight(cfg);
  flight.setTrace(&rec);
  obs::setFlightRecorder(&flight);

  EXPECT_TRUE(obs::flightAssert(true, "fine"));
  EXPECT_EQ(flight.dumps(), 0u);
  EXPECT_FALSE(obs::flightAssert(false, "path diverged"));
  EXPECT_EQ(flight.dumps(), 1u);
  // The reason is slugified into the deterministic filename.
  EXPECT_NE(flight.lastPath().find("obs_test_assert_0_assert_path_diverged"),
            std::string::npos);
  std::ifstream in(flight.lastPath());
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("before_failure"), std::string::npos);

  // max_dumps caps a crash-looping run.
  EXPECT_FALSE(obs::flightAssert(false, "again"));
  EXPECT_FALSE(obs::flightAssert(false, "and again"));
  EXPECT_EQ(flight.dumps(), 2u);
  obs::setFlightRecorder(nullptr);
}

TEST(ObsLogTest, TimestampsUseInjectedSimTime) {
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::info);
  log::setSimTimeSource([]() { return std::int64_t{1'234'567}; });
  log::info("obs_test", "hello");
  log::setSimTimeSource(nullptr);
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  const std::string line = sink.str();
  EXPECT_EQ(line.rfind("[+1234.567ms]", 0), 0u) << line;
  EXPECT_NE(line.find("[INFO ]"), std::string::npos);
}

TEST(ObsLogTest, WallClockTimestampByDefault) {
  std::ostringstream sink;
  log::setSink(&sink);
  log::setLevel(log::Level::info);
  log::info("obs_test", "hello");
  log::setLevel(log::Level::none);
  log::setSink(nullptr);
  const std::string line = sink.str();
  // "[HH:MM:SS.mmm] " prefix: fixed punctuation at fixed offsets.
  ASSERT_GE(line.size(), 15u);
  EXPECT_EQ(line[0], '[');
  EXPECT_EQ(line[3], ':');
  EXPECT_EQ(line[6], ':');
  EXPECT_EQ(line[9], '.');
  EXPECT_EQ(line[13], ']');
}

TEST(ObsEventLoopTest, ExecutedCounterTracksSteps) {
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 5; ++i) loop.schedule(1_ms, [&] { ++fired; });
  EXPECT_EQ(loop.executed(), 0u);
  loop.runUntilIdle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(loop.executed(), 5u);
  EXPECT_GE(loop.peakPending(), 5u);
}

}  // namespace
}  // namespace cmc
