// ShardedRuntime: many independent calls, N worker shards, one rollup.
//
// The paper's control model composes per-call signaling paths that share
// nothing but box code; a media server that handles millions of users is
// "just" very many such paths in flight at once. This runtime exploits that
// independence directly: the generated call set is partitioned across N
// shards by call id, and each shard runs its own EventLoop + Simulator +
// TraceRecorder + MetricsRegistry + ConvergenceProbes on its own thread.
// There is no cross-shard synchronization on the hot path — no shared
// locks, no shared clocks, no shared Rng. Shards interact exactly once,
// at the end, when the main thread merges per-shard artifacts (in shard
// index order, so the rollup is deterministic).
//
// Determinism contract (tested by tests/load_test.cpp):
//
//   Same WorkloadSpec ⇒ same per-call outcomes and same additive metrics
//   rollup, for ANY shard count.
//
// What makes that hold:
//   * every call's randomness comes from its own seed (WorkloadGenerator),
//     never from shard-shared state;
//   * the default timing model has zero network jitter, so the simulator's
//     latency stream consumes no Rng (nonzero jitter_stddev voids the
//     cross-shard-count guarantee — each shard draws from its own stream);
//   * per-call fault plans are routed by box name (PerCallFaultRouter) with
//     a workload-wide activity horizon;
//   * observability is installed per shard thread via the thread-local
//     overrides (obs::setThreadRecorder / setThreadMetrics /
//     setThreadFlightRecorder), so shards never write into each other's
//     artifacts, and a probe blowing its deadline on shard k dumps shard
//     k's flight recorder;
//   * gauges are excluded from the rollup (MetricsRegistry::
//     mergeAdditiveFrom): instantaneous shard-local values like queue depth
//     legitimately differ with shard count.
//
// Call lifecycle inside a shard (all in the shard's virtual time):
//   arrival            spawn boxes, dial, arm "call_setup" probe
//   + setup_grace+hold final probe check, disarm, caller hangs up
//   + teardown_grace   leak audit: every box back to 0 slots / 0 goals;
//                      a clean call's boxes are then retired from the shard
// Arrivals are fed one at a time: only the next arrival is queued, and each
// arrival queues its call's hang-up and leak audit and then the next
// arrival. The event queue (ShardStats::peak_pending, the "sim.queue_depth"
// gauge) therefore holds in-flight work only, not one event per call.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load/live_telemetry.hpp"
#include "load/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/timing.hpp"
#include "util/time.hpp"

namespace cmc::load {

struct LoadConfig {
  std::size_t shards = 1;
  TimingModel timing = TimingModel::paperDefaults();
  // Virtual time granted between arrival and caller hang-up, on top of the
  // call's own hold time; generous enough for any clean path to quiesce.
  SimDuration setup_grace{3'000'000};
  // Virtual time between hang-up and the leak audit (covers teardown
  // propagation across the path).
  SimDuration teardown_grace{1'000'000};
  // Per-call watchdog: fail a call's setup probe if its rest state is not
  // reached within this many µs of arrival (0 = no watchdog).
  std::int64_t setup_deadline_us = 0;
  // Capture per-shard trace rings (needed by the conformance and property
  // suites; off for pure throughput runs).
  bool capture_traces = false;
  std::size_t trace_capacity = 1 << 15;
  // Install a per-shard flight recorder dumping into this directory on
  // probe timeouts ("" = no flight recorder). Also used by the live
  // telemetry hub for SLO-breach and on-demand dumps.
  std::string flight_dir;

  // ------------------------------------------------- live telemetry plane
  // All optional and strictly read-only with respect to the run: enabling
  // any of it cannot change outcomes or the final rollup (tested).
  //
  // <0: no ops endpoint. 0: bind 127.0.0.1 on a free port (see opsPort()).
  // >0: bind that port. The endpoint is up from construction, so pollers
  // can connect before run() and watch the whole soak.
  int ops_port = -1;
  // Sampler period (wall-clock ms) and how many windows each series keeps.
  std::int64_t sample_ms = 250;
  std::size_t series_capacity = 240;
  // SLO watchdogs evaluated against each merged window.
  std::vector<obs::SloRule> slos;
  // Invoked after every sampler tick (sampler thread, no hub lock held).
  std::function<void(const TelemetryTick&)> on_sample;
  // Keep serving the drained run's state for this long at the end of run()
  // (gives out-of-process pollers a window to take their last reading).
  std::int64_t ops_linger_ms = 0;

  // ------------------------------------------------------ hot-path profiler
  // Install a per-shard ProfileTable on every worker thread. Purely
  // additive observability: the rollup and outcomes stay byte-identical
  // with profiling on or off (tested), only the profile tables differ.
  bool profile = false;
  // Write merged profile exports (profile.json / profile.collapsed /
  // profile.speedscope.json) into this directory after the run; non-empty
  // implies `profile`.
  std::string profile_dir;
};

// What happened to one call.
struct CallOutcome {
  CallSpec spec;
  std::size_t shard = 0;
  bool converged = false;       // reached its §V rest state before hang-up
  bool clean_teardown = false;  // leak audit passed after hang-up
  std::int64_t setup_latency_us = -1;  // arrival → rest state (-1 if never)
  std::uint64_t faults_injected = 0;   // drops+dups+reorders on this call
};

struct ShardStats {
  std::size_t calls = 0;
  std::uint64_t events_executed = 0;
  std::size_t peak_pending = 0;
  std::uint64_t signals_delivered = 0;
  std::size_t probes_converged = 0;
  std::size_t probes_failed = 0;
  std::vector<std::string> failed_probes;  // call probe names, arrival order
  std::uint64_t flight_dumps = 0;
  std::uint64_t trace_dropped = 0;  // ring overflow (capture_traces runs)
  std::int64_t thread_wall_ns = 0;  // this shard thread's own lifetime
};

class ShardedRuntime {
 public:
  explicit ShardedRuntime(LoadConfig config = {});
  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  // Generate the workload's call set and run it to completion (blocking;
  // spawns config.shards worker threads). A runtime runs once; construct a
  // fresh one per experiment.
  void run(const WorkloadSpec& workload);
  // Run an explicit call set (callers that pre-filter or hand-build calls).
  // `workload` still supplies the fault shape and fraction. The fault
  // horizon is computed over `calls` — correct when they ARE the whole
  // workload.
  void run(const std::vector<CallSpec>& calls, const WorkloadSpec& workload);
  // Run a slice of a larger workload under an explicit fault horizon. A
  // distributed worker executing only its share of the calls must pass the
  // horizon of the FULL call set (load::faultHorizon over every generated
  // call), or refresh-tick lifetimes — and with them the rollup — would
  // depend on which worker drew the last faulty call.
  void run(const std::vector<CallSpec>& calls, const WorkloadSpec& workload,
           SimTime fault_horizon);

  // ---------------------------------------------------------------- results
  // Outcomes of every call, sorted by call id (shard-order independent).
  [[nodiscard]] const std::vector<CallOutcome>& outcomes() const noexcept {
    return outcomes_;
  }
  [[nodiscard]] std::size_t convergedCount() const noexcept;
  [[nodiscard]] std::size_t cleanTeardownCount() const noexcept;

  // Additive rollup of every shard's registry (counters + histograms; see
  // determinism contract above for why gauges stay per-shard). The probe
  // latency histograms are folded in as "load.call_setup_us".
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return rollup_;
  }
  [[nodiscard]] std::string metricsJson() const { return rollup_.json(); }

  // Arrival → rest-state latency across all shards (µs).
  [[nodiscard]] const obs::Histogram& setupLatency() const noexcept {
    return setup_latency_;
  }

  [[nodiscard]] const std::vector<ShardStats>& shardStats() const noexcept {
    return shard_stats_;
  }
  [[nodiscard]] std::uint64_t signalsDelivered() const noexcept;
  [[nodiscard]] std::size_t probeFailures() const noexcept;

  // Captured trace events per shard (empty unless config.capture_traces).
  [[nodiscard]] const std::vector<std::vector<obs::TraceEvent>>& shardTraces()
      const noexcept {
    return shard_traces_;
  }

  // Wall-clock seconds the worker threads ran (throughput denominator).
  [[nodiscard]] double wallSeconds() const noexcept { return wall_seconds_; }

  // Sum of every worker thread's own lifetime in nanoseconds. When shards
  // outnumber cores the threads time-slice and finish staggered, so
  // wallSeconds() * shards overcounts the window before a thread starts or
  // after it exits; this is the honest denominator for profile coverage.
  [[nodiscard]] std::int64_t threadWallNs() const noexcept;

  // Merged hot-path profile (empty unless config.profile). Per-shard tables
  // merge in shard-index order — the same rank-order discipline as the
  // metrics rollup — so the report is deterministic in structure (timings
  // are wall-clock measurements and naturally vary run to run).
  [[nodiscard]] bool profiled() const noexcept { return config_.profile; }
  [[nodiscard]] const obs::ProfileReport& profileReport() const noexcept {
    return profile_report_;
  }

  [[nodiscard]] const LoadConfig& config() const noexcept { return config_; }

  // Live telemetry hub (nullptr unless the config enabled any of it). The
  // ops port is bound at construction — before run() — so callers can hand
  // it to pollers up front.
  [[nodiscard]] LiveTelemetry* telemetry() noexcept { return live_.get(); }
  [[nodiscard]] const LiveTelemetry* telemetry() const noexcept {
    return live_.get();
  }
  [[nodiscard]] std::uint16_t opsPort() const noexcept {
    return live_ != nullptr ? live_->port() : 0;
  }

 private:
  struct ShardState;

  void runShard(ShardState& shard, const WorkloadSpec& workload,
                SimTime fault_horizon);

  LoadConfig config_;
  std::unique_ptr<LiveTelemetry> live_;
  bool ran_ = false;
  std::vector<CallOutcome> outcomes_;
  std::vector<ShardStats> shard_stats_;
  std::vector<std::vector<obs::TraceEvent>> shard_traces_;
  obs::MetricsRegistry rollup_;
  obs::Histogram setup_latency_;
  std::vector<std::unique_ptr<obs::ProfileTable>> shard_profiles_;
  obs::ProfileReport profile_report_;
  double wall_seconds_ = 0.0;
};

}  // namespace cmc::load
