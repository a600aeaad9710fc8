// DistDriver: the coordinator of a distributed load run.
//
// The driver binds a loopback listener (port 0 by default — tests and
// parallel CI jobs never contend for a fixed port), optionally spawns
// `workers` copies of the cmc_load_worker executable pointed back at that
// port, and runs one strictly-phased conversation per link:
//
//   gather   every rank sends HELLO (magic + version + unclaimed rank)
//   spec     driver pushes the identical WorkloadSpec to all ranks,
//            each echoes the hash it recomputed (SPEC_ACK)
//   start    all acks in → START to everyone
//   collect  PROGRESS frames stream in until each rank's ROLLUP lands
//   shutdown SHUTDOWN to every link, reap children
//
// Merging happens in rank order — rollup snapshots apply additively onto a
// fresh registry, outcome slices concatenate then sort by call id — so the
// merged artifacts are deterministic and, by the PR 5 contract, byte-
// identical to a single-process run of the same spec (tests/dist_test.cpp
// proves 1×8 ≡ 2×4 ≡ 4×2, clean and faulty).
//
// Failure is a first-class result, never a hang: every phase has a
// deadline, every link failure (died, timed out, version mismatch, hash
// mismatch, protocol violation) aborts the fleet promptly, and the
// DistResult carries per-rank attribution plus whatever rollups had
// already landed. Hostile connections — wrong magic, corrupt frames,
// absurd length headers, verbs before HELLO — are rejected or dropped
// per-link while the listener keeps serving the real workers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "load/dist/protocol.hpp"
#include "load/workload.hpp"

namespace cmc::load::dist {

struct DriverConfig {
  std::size_t workers = 2;
  std::size_t shards = 4;  // per worker
  int port = 0;            // 0 = bind an ephemeral port (see port())
  // Per-phase deadlines (wall-clock ms).
  std::int64_t hello_timeout_ms = 15'000;
  std::int64_t ack_timeout_ms = 15'000;
  std::int64_t rollup_timeout_ms = 300'000;
  // Ask workers to stream PROGRESS every this many ms (0 = off).
  std::int64_t progress_ms = 0;
  // Run shape forwarded to every worker's LoadConfig.
  std::int64_t setup_grace_us = 3'000'000;
  std::int64_t teardown_grace_us = 1'000'000;
  std::int64_t setup_deadline_us = 0;
  // Path to a cmc_load_worker binary to spawn one subprocess per rank.
  // Empty = external workers: the caller connects DistWorkers (threads or
  // processes it owns) to port() itself.
  std::string worker_binary;
  // Observed PROGRESS frames (driver link thread; keep it cheap).
  std::function<void(const Progress&)> on_progress;
};

// Per-rank attribution, failure or success.
struct WorkerReport {
  std::uint32_t rank = 0;
  bool connected = false;
  bool acked = false;
  bool rolled_up = false;
  std::string error;  // empty when the rank completed cleanly
  std::uint64_t calls = 0;
  std::uint64_t progress_frames = 0;
  double wall_seconds = 0.0;
};

struct DistResult {
  bool ok = false;
  std::string error;  // first fatal failure, with rank attribution
  // Merged artifacts (partial on failure: whatever rollups landed).
  std::vector<DistOutcome> outcomes;  // sorted by call id
  std::string rollup_json;            // merged snapshot, rollupJson()
  std::uint64_t outcome_digest = 0;   // digestOutcomes over sorted outcomes
  std::size_t converged = 0;
  std::size_t clean_teardowns = 0;
  std::uint64_t signals_delivered = 0;
  double setup_p50_us = 0.0;
  double setup_p99_us = 0.0;
  double wall_seconds = 0.0;  // driver-side, connect → merge
  std::vector<WorkerReport> workers;  // rank order
};

class DistDriver {
 public:
  explicit DistDriver(DriverConfig config);
  ~DistDriver();

  DistDriver(const DistDriver&) = delete;
  DistDriver& operator=(const DistDriver&) = delete;

  // Listener bound? (Check before run; port() is valid once true.)
  [[nodiscard]] bool ok() const noexcept;
  [[nodiscard]] std::uint16_t port() const noexcept;

  // Execute one distributed run of `workload`. Blocking; a driver runs
  // once. Never hangs: every phase is bounded by its configured deadline.
  [[nodiscard]] DistResult run(const WorkloadSpec& workload);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Locate a cmc_load_worker binary for spawn mode: $CMC_LOAD_WORKER if set,
// else next to the running executable, else in a sibling examples/
// directory (the build-tree layout). "" when none is found.
[[nodiscard]] std::string findWorkerBinary();

}  // namespace cmc::load::dist
