// The sharded load runtime's contracts (docs/LOAD.md):
//
//   * determinism — same master seed ⇒ identical per-call outcomes and an
//     identical additive metrics rollup at 1 and 8 shards, clean and under
//     faults;
//   * churn hygiene — every call's teardown leaves its boxes with zero
//     slots and zero goals, and a finished call leaves no work behind, so
//     events per call and the event queue's peak stay flat as the call
//     count grows;
//   * fault isolation — per-call fault plans never bleed across calls: a
//     clean call behaves byte-identically whether or not faulty calls share
//     its shard;
//   * shard-local time — each shard's event loop owns its own virtual
//     clock, and a probe blowing its deadline dumps the flight recorder of
//     the shard that armed it, not a sibling's;
//   * conformance — traces captured under load satisfy the Fig. 5/10 wire
//     oracle (tests/conformance.hpp) on every tunnel.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "conformance.hpp"
#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "obs/ops_server.hpp"
#include "obs/slo.hpp"
#include "sim/event_loop.hpp"
#include "util/bytes.hpp"

namespace cmc::load {
namespace {

WorkloadSpec smallWorkload(std::uint64_t seed, double fault_fraction = 0.0) {
  WorkloadSpec workload;
  workload.master_seed = seed;
  workload.calls = 60;
  workload.arrivals_per_s = 120.0;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = fault_fraction;
  return workload;
}

TEST(Workload, GenerationIsDeterministicAndCoversAllTypes) {
  const WorkloadSpec workload = smallWorkload(11);
  const auto a = WorkloadGenerator(workload).generate();
  const auto b = WorkloadGenerator(workload).generate();
  ASSERT_EQ(a.size(), workload.calls);
  std::set<std::string> types;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].left, b[i].left);
    EXPECT_EQ(a[i].right, b[i].right);
    EXPECT_EQ(a[i].hold, b[i].hold);
    types.insert(a[i].type_name);
  }
  // 60 draws over 6 types: every §V pair should appear.
  EXPECT_EQ(types.size(), callTypes().size());
  // Arrivals are non-decreasing and per-call seeds are distinct.
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) {
      EXPECT_LE(a[i - 1].arrival, a[i].arrival);
    }
    seeds.insert(a[i].seed);
  }
  EXPECT_EQ(seeds.size(), a.size());
}

TEST(Workload, FaultFractionDoesNotPerturbTheCallSet) {
  const auto clean = WorkloadGenerator(smallWorkload(11, 0.0)).generate();
  const auto faulty = WorkloadGenerator(smallWorkload(11, 0.4)).generate();
  ASSERT_EQ(clean.size(), faulty.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].left, faulty[i].left);
    EXPECT_EQ(clean[i].right, faulty[i].right);
    EXPECT_EQ(clean[i].flowlinks, faulty[i].flowlinks);
    EXPECT_EQ(clean[i].arrival, faulty[i].arrival);
    EXPECT_EQ(clean[i].hold, faulty[i].hold);
    EXPECT_EQ(clean[i].seed, faulty[i].seed);
    EXPECT_FALSE(clean[i].faulty);
  }
}

void expectSameOutcomes(const ShardedRuntime& a, const ShardedRuntime& b) {
  ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
  for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
    const CallOutcome& x = a.outcomes()[i];
    const CallOutcome& y = b.outcomes()[i];
    ASSERT_EQ(x.spec.id, y.spec.id);
    EXPECT_EQ(x.converged, y.converged) << "call " << x.spec.id;
    EXPECT_EQ(x.clean_teardown, y.clean_teardown) << "call " << x.spec.id;
    EXPECT_EQ(x.setup_latency_us, y.setup_latency_us) << "call " << x.spec.id;
    EXPECT_EQ(x.faults_injected, y.faults_injected) << "call " << x.spec.id;
  }
}

TEST(ShardDeterminism, SameSeedSameResultsAtOneAndEightShards) {
  const WorkloadSpec workload = smallWorkload(42);
  LoadConfig one;
  one.shards = 1;
  ShardedRuntime a(one);
  a.run(workload);
  LoadConfig eight;
  eight.shards = 8;
  ShardedRuntime b(eight);
  b.run(workload);

  expectSameOutcomes(a, b);
  // The whole additive rollup — counters and histograms, including the
  // per-box busy counters keyed by call id — must be byte-identical.
  EXPECT_EQ(a.metricsJson(), b.metricsJson());
  EXPECT_EQ(a.signalsDelivered(), b.signalsDelivered());
}

TEST(ShardDeterminism, HoldsUnderPerCallFaultPlans) {
  const WorkloadSpec workload = smallWorkload(42, /*fault_fraction=*/0.3);
  std::size_t faulty = 0;
  for (const CallSpec& call : WorkloadGenerator(workload).generate()) {
    if (call.faulty) ++faulty;
  }
  ASSERT_GT(faulty, 0u) << "seed must draw some faulty calls";

  LoadConfig one;
  one.shards = 1;
  ShardedRuntime a(one);
  a.run(workload);
  LoadConfig eight;
  eight.shards = 8;
  ShardedRuntime b(eight);
  b.run(workload);

  expectSameOutcomes(a, b);
  EXPECT_EQ(a.metricsJson(), b.metricsJson());
  // Stabilization must have recovered every faulted call before hang-up.
  EXPECT_EQ(a.convergedCount(), workload.calls);
}

// --------------------------------------------- rollup transparency pins
//
// Recorded digests of the full metrics rollup for fixed seeds. The
// shard-equivalence tests above prove 1-shard == 8-shard; these pin the
// *absolute* bytes, so any refactor underneath the load plane (descriptor
// storage, event pooling, signal routing) that shifts a single counter or
// histogram bucket fails here instead of slipping through as a "still
// self-consistent" change. Recorded at the introduction of the hot-path
// memory model; a mismatch means behavior changed, not just performance.

std::uint64_t rollupDigest(const WorkloadSpec& workload, std::size_t shards,
                           std::size_t* bytes_out) {
  LoadConfig config;
  config.shards = shards;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  const std::string json = runtime.metricsJson();
  *bytes_out = json.size();
  return fnv1a(reinterpret_cast<const std::uint8_t*>(json.data()),
               json.size());
}

TEST(RollupPins, CleanRunMatchesRecordedDigest) {
  std::size_t bytes = 0;
  const std::uint64_t digest = rollupDigest(smallWorkload(42), 1, &bytes);
  EXPECT_EQ(bytes, 5270u);
  EXPECT_EQ(digest, 0x9e33345f4e5b379cULL);
}

TEST(RollupPins, FaultyEightShardRunMatchesRecordedDigest) {
  std::size_t bytes = 0;
  const std::uint64_t digest =
      rollupDigest(smallWorkload(42, /*fault_fraction=*/0.3), 8, &bytes);
  EXPECT_EQ(bytes, 5420u);
  EXPECT_EQ(digest, 0xb473ccab00fc03a0ULL);
}

TEST(RollupPins, FaultyTwoThousandCallRunMatchesRecordedDigest) {
  // Large enough that most calls are long finished while later ones still
  // run, so it pins the rollup across how a shard disposes of finished
  // calls. Recorded before shards retired finished calls' boxes: retiring
  // them must not move a single counter or bucket.
  WorkloadSpec workload = smallWorkload(42, /*fault_fraction=*/0.3);
  workload.calls = 2000;
  workload.arrivals_per_s = 200.0;
  std::size_t bytes = 0;
  const std::uint64_t digest = rollupDigest(workload, 1, &bytes);
  EXPECT_EQ(bytes, 159953u);
  EXPECT_EQ(digest, 0x7591b73bdd139934ULL);
}

// Events per call must not grow with the number of calls that came before:
// a finished call may not leave work behind in its shard. Event counts are
// deterministic, so this is a hard gate, not a timing heuristic.
ShardStats churnStats(std::size_t calls, double arrivals_per_s = 200.0) {
  WorkloadSpec workload = smallWorkload(7, /*fault_fraction=*/0.3);
  workload.calls = calls;
  workload.arrivals_per_s = arrivals_per_s;
  LoadConfig config;
  config.shards = 1;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  EXPECT_EQ(runtime.convergedCount(), calls);
  EXPECT_EQ(runtime.cleanTeardownCount(), calls);
  return runtime.shardStats().at(0);
}

TEST(Churn, EventsPerCallStayFlatAsCallCountGrows) {
  const double small =
      static_cast<double>(churnStats(500).events_executed) / 500.0;
  const double large =
      static_cast<double>(churnStats(2000).events_executed) / 2000.0;
  EXPECT_LE(large, 1.25 * small)
      << "events/call " << small << " at 500 calls vs " << large
      << " at 2000 calls";
}

// The event queue holds in-flight work only: arrivals are fed one at a
// time, so at a fixed arrival rate the widest the queue gets does not grow
// with how many calls the shard runs in total. A call lives ~5 s of virtual
// time (3 s setup grace, 0.5-2 s hold, 1 s teardown grace); at 50 arrivals
// per second even the 500-call run spans 10 s, so both runs reach the same
// steady state of ~260 live calls: the peak goes 1,247 -> 1,494 events.
// Queuing all three lifecycle events of every call up front would make it
// 1,915 -> 6,415.
TEST(Churn, PeakPendingTracksLiveCallsNotCallCount) {
  const auto small = static_cast<double>(churnStats(500, 50.0).peak_pending);
  const auto large = static_cast<double>(churnStats(2000, 50.0).peak_pending);
  EXPECT_LE(large, 1.25 * small)
      << "peak pending " << small << " at 500 calls vs " << large
      << " at 2000 calls";
}

TEST(Churn, TeardownLeavesNoLeakedSlotsOrGoals) {
  const WorkloadSpec workload = smallWorkload(7);
  LoadConfig config;
  config.shards = 4;
  ShardedRuntime runtime(config);
  runtime.run(workload);
  EXPECT_EQ(runtime.convergedCount(), workload.calls);
  EXPECT_EQ(runtime.cleanTeardownCount(), workload.calls);
  for (const CallOutcome& outcome : runtime.outcomes()) {
    EXPECT_TRUE(outcome.clean_teardown) << "call " << outcome.spec.id;
    EXPECT_GE(outcome.setup_latency_us, 0) << "call " << outcome.spec.id;
  }
  const auto* converged = runtime.metrics().findCounter("load.converged");
  ASSERT_NE(converged, nullptr);
  EXPECT_EQ(converged->value(), workload.calls);
}

TEST(FaultIsolation, CleanCallsAreUntouchedByFaultyNeighbors) {
  // Same seed, same call set (only the faulty flags differ); every call
  // that is clean in BOTH runs must behave identically even though in the
  // second run faulty calls share its shard. This is the no-bleed contract:
  // a per-call fault plan draws only from its own call's seed.
  const WorkloadSpec clean = smallWorkload(99, 0.0);
  const WorkloadSpec faulty = smallWorkload(99, 0.4);
  LoadConfig config;
  config.shards = 2;
  ShardedRuntime a(config);
  a.run(clean);
  ShardedRuntime b(config);
  b.run(faulty);

  const auto faulty_calls = WorkloadGenerator(faulty).generate();
  ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
  std::size_t clean_calls = 0;
  for (std::size_t i = 0; i < a.outcomes().size(); ++i) {
    if (faulty_calls[i].faulty) continue;
    ++clean_calls;
    EXPECT_EQ(a.outcomes()[i].setup_latency_us,
              b.outcomes()[i].setup_latency_us)
        << "clean call " << i << " perturbed by faulty neighbors";
    EXPECT_EQ(b.outcomes()[i].faults_injected, 0u);
  }
  ASSERT_GT(clean_calls, 0u);
}

TEST(ShardLocalTime, EventLoopClocksAreInstanceLocal) {
  // Regression for the single-loop assumption audit: runUntilIdle's horizon
  // and now() are per-instance; advancing one shard's loop must not move
  // another's clock.
  EventLoop a;
  EventLoop b;
  a.schedule(SimDuration{5'000'000}, []() {});
  EXPECT_TRUE(a.runUntilIdle(std::chrono::seconds(10)));
  EXPECT_EQ(a.now().sinceStart(), SimDuration{5'000'000});
  EXPECT_EQ(b.now().sinceStart(), SimDuration{0});
  // The horizon is relative to the instance's own now, not absolute time:
  // a had already advanced to 5s, but b's 2s event fits b's fresh budget.
  b.schedule(SimDuration{2'000'000}, []() {});
  EXPECT_TRUE(b.runUntilIdle(SimDuration{3'000'000}));
  EXPECT_EQ(b.now().sinceStart(), SimDuration{2'000'000});
}

TEST(ShardLocalTime, ProbeDeadlineDumpsTheOwningShardsFlightRecorder) {
  // Impossible per-call deadline: every call fails its setup watchdog. The
  // failure must be recorded by the shard that armed the probe — failed
  // probe names on shard k are exactly the calls assigned to shard k, and
  // shard k's own flight recorder (installed thread-locally) captured the
  // dumps.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "cmc_load_flight_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  WorkloadSpec workload = smallWorkload(5);
  workload.calls = 8;
  LoadConfig config;
  config.shards = 2;
  config.setup_deadline_us = 1;  // unmeetable
  config.flight_dir = dir.string();
  ShardedRuntime runtime(config);
  runtime.run(workload);

  EXPECT_EQ(runtime.probeFailures(), workload.calls);
  ASSERT_EQ(runtime.shardStats().size(), 2u);
  for (std::size_t shard = 0; shard < 2; ++shard) {
    const ShardStats& stats = runtime.shardStats()[shard];
    EXPECT_EQ(stats.failed_probes.size(), stats.calls);
    for (const std::string& name : stats.failed_probes) {
      // Probe names are "c<id>"; the call must belong to this shard.
      const std::uint64_t id = std::stoull(name.substr(1));
      EXPECT_EQ(id % 2, shard) << "probe " << name << " failed on shard "
                               << shard;
    }
    EXPECT_GT(stats.flight_dumps, 0u) << "shard " << shard;
  }
  // Dump files carry the owning shard's prefix.
  bool saw_shard0 = false;
  bool saw_shard1 = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    saw_shard0 = saw_shard0 || name.rfind("shard0", 0) == 0;
    saw_shard1 = saw_shard1 || name.rfind("shard1", 0) == 0;
  }
  EXPECT_TRUE(saw_shard0);
  EXPECT_TRUE(saw_shard1);
  fs::remove_all(dir);
}

TEST(Conformance, CapturedLoadTracesSatisfyTheWireOracle) {
  WorkloadSpec workload = smallWorkload(23);
  workload.calls = 40;
  LoadConfig config;
  config.shards = 4;
  config.capture_traces = true;
  config.trace_capacity = 1 << 18;
  ShardedRuntime runtime(config);
  runtime.run(workload);

  ASSERT_EQ(runtime.shardTraces().size(), 4u);
  std::size_t signals_checked = 0;
  for (std::size_t shard = 0; shard < runtime.shardTraces().size(); ++shard) {
    ASSERT_EQ(runtime.shardStats()[shard].trace_dropped, 0u)
        << "ring overflow would truncate tunnels mid-run";
    const auto violations =
        conformance::checkTrace(runtime.shardTraces()[shard]);
    for (const auto& violation : violations) {
      ADD_FAILURE() << "shard " << shard << " signal " << violation.index
                    << ": " << violation.what;
    }
    for (const auto& ev : runtime.shardTraces()[shard]) {
      if (ev.kind == obs::EventKind::signalRecv) ++signals_checked;
    }
  }
  EXPECT_GT(signals_checked, 100u);
}

// ------------------------------------------------------------ live telemetry

TEST(LiveTelemetry, SamplerOnOffRollupIsByteIdentical) {
  // The live plane is read-only: running with an ops endpoint, an
  // aggressive sampler, and SLO watchdogs must leave outcomes and the
  // final rollup byte-identical to a bare run.
  const WorkloadSpec workload = smallWorkload(42);
  LoadConfig off;
  off.shards = 4;
  ShardedRuntime bare(off);
  bare.run(workload);

  LoadConfig on;
  on.shards = 4;
  on.ops_port = 0;  // auto-pick
  on.sample_ms = 1; // hammer the registries as hard as possible
  obs::SloRule rule;
  rule.name = "teardown_ceiling";
  rule.counter = "load.call_teardowns";
  rule.max_value = 1e9;  // never breaches; evaluation still runs
  on.slos.push_back(rule);
  ShardedRuntime live(on);
  ASSERT_NE(live.telemetry(), nullptr);
  ASSERT_GT(live.opsPort(), 0);
  live.run(workload);

  expectSameOutcomes(bare, live);
  EXPECT_EQ(bare.metricsJson(), live.metricsJson());
  EXPECT_GE(live.telemetry()->ticks(), 1u);  // at least the final window
  EXPECT_TRUE(live.telemetry()->healthy());
  EXPECT_FALSE(live.telemetry()->everBreached());
}

TEST(LiveTelemetry, OpsEndpointServesMergedStateDuringAndAfterRun) {
  const WorkloadSpec workload = smallWorkload(17);
  LoadConfig config;
  config.shards = 4;
  config.ops_port = 0;
  config.sample_ms = 1;
  // Poll our own endpoint from the sampler callback — this exercises a
  // live request strictly *during* the run, against a half-built fleet.
  std::atomic<int> mid_run_polls{0};
  std::uint16_t port = 0;
  config.on_sample = [&mid_run_polls, &port](const TelemetryTick&) {
    auto c = obs::OpsClient::connect("127.0.0.1", port);
    if (c == nullptr) return;
    auto health = c->request("health");
    auto shards = c->request("shards");
    if (health && health->ok && shards && shards->ok) ++mid_run_polls;
  };
  ShardedRuntime runtime(config);
  port = runtime.opsPort();
  ASSERT_GT(port, 0);

  // Before the run: the endpoint is up and reports "starting".
  {
    auto c = obs::OpsClient::connect("127.0.0.1", port);
    ASSERT_NE(c, nullptr);
    auto health = c->request("health");
    ASSERT_TRUE(health.has_value());
    EXPECT_TRUE(health->ok);
    EXPECT_NE(health->body.find("health=starting"), std::string::npos);
  }

  runtime.run(workload);
  EXPECT_GE(mid_run_polls.load(), 1);

  // After the run: retained state, all verbs, Prometheus parses-ish.
  auto c = obs::OpsClient::connect("127.0.0.1", port);
  ASSERT_NE(c, nullptr);
  auto metrics = c->request("metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_TRUE(metrics->ok);
  EXPECT_EQ(metrics->content_type, "application/json");
  EXPECT_NE(metrics->body.find("\"load.call_arrivals\":60"), std::string::npos);
  EXPECT_NE(metrics->body.find("\"probe.call_setup_us\""), std::string::npos);

  auto prom = c->request("prom");
  ASSERT_TRUE(prom.has_value());
  EXPECT_NE(prom->body.find("cmc_load_call_arrivals_total 60"),
            std::string::npos);
  EXPECT_NE(prom->body.find("# TYPE cmc_probe_call_setup_us histogram"),
            std::string::npos);

  auto series = c->request("series", "4");
  ASSERT_TRUE(series.has_value());
  EXPECT_NE(series->body.find("\"windows\":["), std::string::npos);

  auto shards = c->request("shards");
  ASSERT_TRUE(shards.has_value());
  // All four shards report, and every call arrived and tore down.
  EXPECT_NE(shards->body.find("shard=3"), std::string::npos);

  auto health = c->request("health");
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->body.find("health=ok"), std::string::npos);
  EXPECT_NE(health->body.find("final=1"), std::string::npos);
}

TEST(LiveTelemetry, SloBreachDegradesHealthAndDumpsWithoutStoppingTheRun) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "cmc_slo_breach_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const WorkloadSpec workload = smallWorkload(42);
  LoadConfig config;
  config.shards = 4;
  config.ops_port = 0;
  config.sample_ms = 1;
  config.flight_dir = dir.string();
  obs::SloRule rule;
  rule.name = "setup_p99";
  rule.histogram = "probe.call_setup_us";
  rule.quantile = 0.99;
  rule.max_value = 1.0;  // impossible bound: every evaluated window breaches
  rule.min_count = 1;
  config.slos.push_back(rule);

  ShardedRuntime runtime(config);
  runtime.run(workload);

  // The run itself was untouched by the breach...
  EXPECT_EQ(runtime.convergedCount(), workload.calls);
  EXPECT_EQ(runtime.cleanTeardownCount(), workload.calls);
  // ...but the watchdog latched it and the post-mortem landed on disk.
  ASSERT_NE(runtime.telemetry(), nullptr);
  EXPECT_TRUE(runtime.telemetry()->everBreached());
  EXPECT_FALSE(runtime.telemetry()->healthy());
  EXPECT_GE(runtime.telemetry()->sloDumps(), 1u);
  const std::string dump = runtime.telemetry()->lastDumpPath();
  ASSERT_FALSE(dump.empty());
  std::ifstream in(dump);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("slo_breach:setup_p99"), std::string::npos);
  EXPECT_NE(buffer.str().find("\"metrics\""), std::string::npos);

  // The health verb reports the degradation.
  auto c = obs::OpsClient::connect("127.0.0.1", runtime.opsPort());
  ASSERT_NE(c, nullptr);
  auto health = c->request("health");
  ASSERT_TRUE(health.has_value());
  EXPECT_NE(health->body.find("health=degraded"), std::string::npos);
  EXPECT_NE(health->body.find("ever_breached=1"), std::string::npos);

  fs::remove_all(dir);
}

}  // namespace
}  // namespace cmc::load
