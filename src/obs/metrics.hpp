// Metrics registry: named counters, gauges, and histograms with a one-call
// JSON dump.
//
// Metrics are always safe to hammer from multiple threads (atomics all the
// way down); the registry itself hands out stable references, so hot paths
// can resolve a metric once and increment forever. Like tracing, the global
// registry is disabled by default: instrumentation sites do one relaxed
// load (`obs::metrics()`) and skip on nullptr.
//
// Histograms use base-2 exponential buckets over non-negative integer
// observations (we feed them latencies in microseconds): bucket i counts
// values in [2^(i-1), 2^i), bucket 0 counts zero. Quantiles are estimated
// by linear interpolation within the winning bucket — coarse, but stable
// and allocation-free.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace cmc::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
    // Track the high-water mark (e.g. peak queue depth).
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  void add(std::int64_t delta) noexcept {
    // A load/set pair would lose concurrent deltas; fetch_add keeps the
    // running value exact under contention, and the CAS loop raises the
    // high-water mark to the value this call produced.
    const std::int64_t now =
        value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    std::int64_t seen = max_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    // A created-but-never-set gauge holds the INT64_MIN sentinel; surface
    // the current value (0 for an untouched gauge) instead, mirroring
    // Histogram::max(), so dumps and the Prometheus exposition never emit
    // the sentinel.
    const std::int64_t v = max_.load(std::memory_order_relaxed);
    return v == std::numeric_limits<std::int64_t>::min() ? value() : v;
  }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
};

class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(std::int64_t value) noexcept;

  // Fold `other`'s observations into this histogram (bucket-wise sums plus
  // count/sum/min/max). Exact for everything but the interpolated
  // quantiles, which stay as coarse as single-registry estimates. Used by
  // sharded runtimes to roll per-shard latency histograms into one view.
  void mergeFrom(const Histogram& other) noexcept;

  // Fold pre-aggregated state (a MetricsSnapshot sample, a remote shard's
  // exported buckets) into this histogram. The no-observation sentinel
  // convention matches min()/max(): pass min > max to say "no min/max
  // information" and only count/sum/buckets are folded in.
  void accumulate(std::uint64_t count, std::int64_t sum, std::int64_t min,
                  std::int64_t max,
                  const std::array<std::uint64_t, kBuckets>& buckets) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t min() const noexcept;
  [[nodiscard]] std::int64_t max() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  // Quantile estimate in [0,1]; interpolates within the selected bucket.
  [[nodiscard]] double quantile(double q) const noexcept;
  // Raw bucket count (snapshot capture; index < kBuckets).
  [[nodiscard]] std::uint64_t bucket(std::size_t index) const noexcept {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

class MetricsRegistry {
 public:
  // Lookup-or-create; returned references stay valid for the registry's
  // lifetime, so call sites may cache them.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] const Counter* findCounter(std::string_view name) const;
  [[nodiscard]] const Gauge* findGauge(std::string_view name) const;
  [[nodiscard]] const Histogram* findHistogram(std::string_view name) const;

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  // Keys are sorted (std::map), so the dump is deterministic.
  [[nodiscard]] std::string json() const;

  // Visit every metric in name order under the registry lock. The visited
  // references are the live atomics — visitors read with relaxed loads and
  // must not call back into the registry (the lock is held). This is what
  // MetricsSnapshot::capture uses to read a hot registry without pausing
  // its writers.
  void visit(
      const std::function<void(const std::string&, const Counter&)>& counter,
      const std::function<void(const std::string&, const Gauge&)>& gauge,
      const std::function<void(const std::string&, const Histogram&)>& histogram)
      const;

  // Merge the additive metrics of `other` into this registry: counters add,
  // histograms merge bucket-wise. Gauges are instantaneous, host-local
  // readings (queue depth, armed probes); summing last-written values
  // across shards is meaningless, so they are deliberately left out — which
  // also keeps a sharded rollup invariant in the shard count.
  void mergeAdditiveFrom(const MetricsRegistry& other);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// Process-wide registry; nullptr (default) disables metric collection.
// metrics() resolves a thread-local override first (setThreadMetrics), so
// sharded hosts can give each worker thread its own registry without the
// shards trampling one another; see the matching note in trace.hpp.
[[nodiscard]] MetricsRegistry* metrics() noexcept;
void setMetrics(MetricsRegistry* registry) noexcept;
void setThreadMetrics(MetricsRegistry* registry) noexcept;

}  // namespace cmc::obs
