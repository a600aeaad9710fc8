// Flight recorder: automatic post-mortems for failed runs.
//
// A FlightRecorder is pointed at the live observability artifacts — the
// TraceRecorder's retained event window, the MetricsRegistry, the
// ConvergenceProbes — and, when something goes wrong, dumps all of them
// plus the extracted critical path into one JSON post-mortem file. The
// triggers:
//
//   * a convergence probe blowing its deadline (ConvergenceProbes::check
//     notifies the installed recorder on every timeout);
//   * an explicit assertion (flightAssert / dump("reason")) from tests,
//     benches, or fault-injection harnesses;
//
// so a failed stabilization run leaves behind exactly the causal window
// needed to debug it. CI uploads the dump files as artifacts on failure.
//
// Like the rest of src/obs this is off by default: nothing dumps unless a
// recorder is installed with setFlightRecorder(), and the trigger sites
// cost one relaxed load. Dump filenames are deterministic
// (<prefix>_<seq>_<reason>.json) so same-seed failures produce identical
// artifacts.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "obs/snapshot.hpp"

namespace cmc::obs {

class TraceRecorder;
class ConvergenceProbes;

class FlightRecorder {
 public:
  struct Config {
    std::string directory = ".";   // where dump files land
    std::string prefix = "flight"; // filename stem
    std::size_t max_dumps = 16;    // stop writing after this many (a
                                   // crash-looping run must not fill the disk)
  };

  FlightRecorder();
  explicit FlightRecorder(Config config);

  // Wire up the sources to snapshot; any may stay null (that section is
  // omitted from the dump). Simulator::attachFlightRecorder does this.
  void setTrace(TraceRecorder* trace) noexcept;
  void setMetrics(MetricsRegistry* metrics) noexcept;
  // A fixed metrics view dumped in place of a live registry (the live
  // telemetry hub's latest merged fleet snapshot); a registry set with
  // setMetrics() takes precedence.
  void setMetrics(MetricsSnapshot snapshot);
  void setProbes(const ConvergenceProbes* probes) noexcept;
  // Optional profile section: a callback returning ProfileReport JSON,
  // invoked at dump time (a callback rather than a table pointer, so the
  // host controls merging — per-shard table or fleet-merged view — and the
  // recorder stays decoupled from the profiler). Must not re-enter the
  // recorder. Empty string = section omitted.
  void setProfileSource(std::function<std::string()> source) noexcept;

  // Write one post-mortem: reason, retained trace window, metrics
  // snapshot, probe state, and the critical path extracted from the
  // window. Returns the file path, or "" if the dump was skipped
  // (max_dumps reached) or the file could not be written.
  std::string dump(std::string_view reason);

  [[nodiscard]] std::uint64_t dumps() const noexcept;
  [[nodiscard]] std::string lastPath() const;

 private:
  mutable std::mutex mutex_;
  Config config_;
  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::optional<MetricsSnapshot> snapshot_;
  const ConvergenceProbes* probes_ = nullptr;
  std::function<std::string()> profile_source_;
  std::uint64_t dumps_ = 0;
  std::string last_path_;
};

// Process-wide recorder; nullptr (default) disables all triggers.
// flightRecorder() resolves a thread-local override first
// (setThreadFlightRecorder): in a sharded runtime every worker thread runs
// its own simulation, and a probe blowing its deadline on shard k must dump
// shard k's trace window and probes — not whichever recorder another
// thread installed process-wide. See the matching note in trace.hpp.
[[nodiscard]] FlightRecorder* flightRecorder() noexcept;
void setFlightRecorder(FlightRecorder* recorder) noexcept;
void setThreadFlightRecorder(FlightRecorder* recorder) noexcept;

// Check-and-dump helper for tests and harnesses: returns `ok`, and on
// false dumps a post-mortem tagged `what` to the installed recorder.
bool flightAssert(bool ok, std::string_view what);

}  // namespace cmc::obs
