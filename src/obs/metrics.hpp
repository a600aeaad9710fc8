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
// observations (we feed them latencies in microseconds). HistogramSample is
// the one place that knows the bucket layout and everything derived from
// it — bucket index and bounds, mean, interpolated quantiles, merge, and the
// histogram JSON; a live Histogram is only the atomic store behind it.
#pragma once

#include <algorithm>
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

struct GaugeSample {
  std::int64_t value = 0;
  std::int64_t max = 0;
};

// Pre-aggregated histogram state: enough to merge, diff, estimate
// quantiles and render. Bucket 0 counts values <= 0, bucket i counts
// [2^(i-1), 2^i), and the last bucket also takes everything above.
struct HistogramSample {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // 0 when empty
  std::int64_t max = 0;
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] static std::size_t bucketOf(std::int64_t value) noexcept {
    if (value <= 0) return 0;
    const int bits =
        64 - __builtin_clzll(static_cast<unsigned long long>(value));
    return std::min<std::size_t>(static_cast<std::size_t>(bits),
                                 kBuckets - 1);
  }
  // Interpolation bounds of bucket i: [lo, hi), both 0 for bucket 0.
  [[nodiscard]] static double bucketLo(std::size_t i) noexcept;
  [[nodiscard]] static double bucketHi(std::size_t i) noexcept;

  [[nodiscard]] double mean() const noexcept;
  // Quantile estimate in [0,1] by linear interpolation within the winning
  // bucket — coarse, but stable and allocation-free — clamped to
  // [min, max] when those are known.
  [[nodiscard]] double quantile(double q) const noexcept;
  // Fold `other` in: counts, sums and buckets add, min/max widen. Exact
  // for everything but the interpolated quantiles.
  void mergeFrom(const HistogramSample& other) noexcept;
  // {"count":..,"sum":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..}
  void appendJson(std::string& out) const;
};

class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSample::kBuckets;

  void observe(std::int64_t value) noexcept;

  // Fold `other`'s observations into this histogram. Used by sharded
  // runtimes to roll per-shard latency histograms into one view.
  void mergeFrom(const Histogram& other) noexcept;

  // Read the live store with relaxed loads (safe while writers run).
  [[nodiscard]] HistogramSample sample() const noexcept;

  // One-off reads; all but count() go through sample().
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t min() const noexcept { return sample().min; }
  [[nodiscard]] std::int64_t max() const noexcept { return sample().max; }
  [[nodiscard]] double mean() const noexcept { return sample().mean(); }
  [[nodiscard]] double quantile(double q) const noexcept {
    return sample().quantile(q);
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::int64_t> max_{std::numeric_limits<std::int64_t>::min()};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// The body every metrics dump shares:
//   "counters":{...},"gauges":{...},"histograms":{...}
// Feed counters, then gauges, then histograms, each in name order (the
// order MetricsRegistry::visit and the snapshot maps yield); finish()
// closes the last section and emits any section that had no entries.
class MetricsJsonWriter {
 public:
  explicit MetricsJsonWriter(std::string& out) noexcept : out_(out) {}
  void counter(std::string_view name, std::uint64_t value);
  void gauge(std::string_view name, const GaugeSample& gauge);
  void histogram(std::string_view name, const HistogramSample& histogram);
  void finish();

 private:
  void enter(int section);
  void key(int section, std::string_view name);

  std::string& out_;
  int section_ = -1;
  bool first_ = true;
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

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}},
  // written in place through visit(). Keys are sorted (std::map), so the
  // dump is deterministic.
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
