// Windowed metrics snapshots: the data model of the live telemetry plane.
//
// A MetricsSnapshot is an immutable copy of a MetricsRegistry taken with
// relaxed atomic reads — the registry lock is held only long enough to walk
// the name maps, and the hot paths writing the metrics are never paused.
// Snapshots are cheap enough to take on a period from a sampler thread
// while the registry's owner keeps hammering it.
//
// Two snapshots of the same registry bracket a *window*: delta() turns the
// cumulative counters and histogram buckets into per-window increments,
// from which windowed rates (counterRate) and windowed quantiles
// (HistogramSample::quantile over the bucket diff) fall out. That is what
// lets an operator watch setup p99 *per window* while a soak runs, instead
// of a run-lifetime aggregate that a transient stall barely moves.
//
// A SnapshotSeries is a bounded ring of recent windows — the time series
// the ops endpoint serves and SLO watchdogs (obs/slo.hpp) evaluate.
//
// Everything here is read-only with respect to the sampled registry, which
// is the load-bearing property: turning the sampler on cannot change a
// run's outcomes or its final metrics rollup (asserted in
// tests/load_test.cpp and the ops-smoke CI job).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"

namespace cmc::obs {

struct MetricsSnapshot {
  std::int64_t wall_ms = 0;  // capture instant, caller-defined epoch
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSample> gauges;
  std::map<std::string, HistogramSample> histograms;

  // Copy the registry's current state (relaxed reads; see file comment).
  [[nodiscard]] static MetricsSnapshot capture(const MetricsRegistry& registry,
                                               std::int64_t wall_ms = 0);

  // Sum another snapshot into this one: counters and histogram buckets add
  // (a histogram with no observations still contributes its name, as in
  // MetricsRegistry::mergeAdditiveFrom); gauge values add and maxes take
  // the max. Summing gauges is only meaningful as a fleet-wide telemetry
  // view (total armed probes across shards) — the rollup contract of
  // sharded runtimes still excludes them.
  void mergeFrom(const MetricsSnapshot& other);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramSample* histogram(
      std::string_view name) const noexcept;

  // {"wall_ms":N,"counters":...,"gauges":...,"histograms":...},
  // deterministic key order.
  [[nodiscard]] std::string json() const;
  // The same without wall_ms: byte-identical to MetricsRegistry::json() of
  // a registry holding this content (merged dist rollups, flight dumps).
  [[nodiscard]] std::string rollupJson() const;
};

// One observation window: the per-window increments between two cumulative
// snapshots of the same registry. Counters clamp at zero rather than
// underflow (a restarted source must read as a quiet window, not a 2^64
// spike); histogram diffs are bucket-wise, so windowed quantiles are as
// exact as the cumulative ones. Gauges are instantaneous and carry the
// window-end reading.
struct MetricsDelta {
  std::int64_t start_ms = 0;
  std::int64_t window_ms = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSample> gauges;
  std::map<std::string, HistogramSample> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const noexcept;
  [[nodiscard]] const HistogramSample* histogram(
      std::string_view name) const noexcept;
  // Windowed rate: counter increment / window seconds (0 if no window).
  [[nodiscard]] double counterRate(std::string_view name) const noexcept;

  [[nodiscard]] std::string json() const;
};

// The window between prev and curr (curr.wall_ms - prev.wall_ms wide).
// Names present only in curr are treated as starting from zero.
[[nodiscard]] MetricsDelta delta(const MetricsSnapshot& prev,
                                 const MetricsSnapshot& curr);

// Bounded ring of recent windows, oldest evicted first. push() computes the
// delta against the previously pushed snapshot, so the series holds both
// the cumulative snapshot and the window it closed.
class SnapshotSeries {
 public:
  explicit SnapshotSeries(std::size_t capacity = 64);

  void push(MetricsSnapshot snapshot);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t pushed() const noexcept { return pushed_; }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] const MetricsSnapshot* latest() const noexcept;
  [[nodiscard]] const MetricsDelta* latestWindow() const noexcept;
  [[nodiscard]] const MetricsDelta& window(std::size_t i) const noexcept {
    return entries_[i].window;  // 0 = oldest retained
  }

  // {"windows":[{...},...],"retained":N,"evicted":M} — newest last; at most
  // `last_n` windows (0 = all retained).
  [[nodiscard]] std::string json(std::size_t last_n = 0) const;

  void clear();

 private:
  struct Entry {
    MetricsSnapshot snapshot;
    MetricsDelta window;
  };

  std::size_t capacity_;
  std::uint64_t pushed_ = 0;
  std::deque<Entry> entries_;
};

// Wire form of one snapshot, for the distributed load plane's PROGRESS and
// ROLLUP frames (util/bytes.hpp encoding): wall_ms, then each section as a
// u32 count of (name, payload) entries in ascending name order.
//
// The decoder is strict so that cross-process rollups stay trustworthy: it
// rejects truncation anywhere (including inside a histogram's bucket
// array), a bucket count other than Histogram::kBuckets, and names that
// are out of order or duplicated within a section. Strict ascending order
// makes the encoding canonical — deserialize ∘ serialize is the identity
// on bytes, which is what lets CI byte-compare a merged remote rollup
// against a local run.
void serializeSnapshot(const MetricsSnapshot& snapshot, ByteWriter& out);
[[nodiscard]] std::optional<MetricsSnapshot> deserializeSnapshot(
    ByteReader& in);

// Prometheus text exposition (version 0.0.4) of one cumulative snapshot.
// Metric names are sanitized ('.' and other non-[a-zA-Z0-9_] become '_')
// and prefixed "cmc_"; counters gain the conventional "_total" suffix,
// gauges export value plus a "_max" high-water companion, histograms
// export cumulative le-buckets at the base-2 bounds plus _sum and _count.
[[nodiscard]] std::string prometheusText(const MetricsSnapshot& snapshot);

}  // namespace cmc::obs
