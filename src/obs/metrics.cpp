#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cmc::obs {

namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};
thread_local MetricsRegistry* t_metrics = nullptr;

// Bucket index: 0 holds value 0, i holds [2^(i-1), 2^i).
std::size_t bucketOf(std::int64_t value) noexcept {
  if (value <= 0) return 0;
  const int bits = 64 - __builtin_clzll(static_cast<unsigned long long>(value));
  return std::min<std::size_t>(static_cast<std::size_t>(bits),
                               Histogram::kBuckets - 1);
}

void raiseMax(std::atomic<std::int64_t>& slot, std::int64_t value) noexcept {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void lowerMin(std::atomic<std::int64_t>& slot, std::int64_t value) noexcept {
  std::int64_t seen = slot.load(std::memory_order_relaxed);
  while (value < seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Histogram::observe(std::int64_t value) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  lowerMin(min_, value);
  raiseMax(max_, value);
  buckets_[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::mergeFrom(const Histogram& other) noexcept {
  const std::uint64_t n = other.count_.load(std::memory_order_relaxed);
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  lowerMin(min_, other.min_.load(std::memory_order_relaxed));
  raiseMax(max_, other.max_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t b = other.buckets_[i].load(std::memory_order_relaxed);
    if (b != 0) buckets_[i].fetch_add(b, std::memory_order_relaxed);
  }
}

void Histogram::accumulate(
    std::uint64_t count, std::int64_t sum, std::int64_t min, std::int64_t max,
    const std::array<std::uint64_t, kBuckets>& buckets) noexcept {
  if (count == 0) return;
  count_.fetch_add(count, std::memory_order_relaxed);
  sum_.fetch_add(sum, std::memory_order_relaxed);
  if (min <= max) {
    lowerMin(min_, min);
    raiseMax(max_, max);
  }
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] != 0) buckets_[i].fetch_add(buckets[i], std::memory_order_relaxed);
  }
}

std::int64_t Histogram::min() const noexcept {
  const std::int64_t v = min_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<std::int64_t>::max() ? 0 : v;
}

std::int64_t Histogram::max() const noexcept {
  const std::int64_t v = max_.load(std::memory_order_relaxed);
  return v == std::numeric_limits<std::int64_t>::min() ? 0 : v;
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n > 0 ? static_cast<double>(sum()) / static_cast<double>(n) : 0.0;
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n);
  double cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double frac =
          in_bucket > 0 ? (target - cumulative) / in_bucket : 0.0;
      const double estimate = lo + (hi - lo) * frac;
      return std::clamp(estimate, static_cast<double>(min()),
                        static_cast<double>(max()));
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max());
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

const Counter* MetricsRegistry::findCounter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  return it != counters_.end() ? it->second.get() : nullptr;
}

const Gauge* MetricsRegistry::findGauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  return it != gauges_.end() ? it->second.get() : nullptr;
}

const Histogram* MetricsRegistry::findHistogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  return it != histograms_.end() ? it->second.get() : nullptr;
}

std::string MetricsRegistry::json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  char buf[192];
  bool first = true;
  auto key = [&](const std::string& name) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
  };
  for (const auto& [name, c] : counters_) {
    key(name);
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(c->value()));
    out += buf;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    key(name);
    std::snprintf(buf, sizeof(buf), "{\"value\":%lld,\"max\":%lld}",
                  static_cast<long long>(g->value()),
                  static_cast<long long>(g->max()));
    out += buf;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    key(name);
    std::snprintf(
        buf, sizeof(buf),
        "{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
        "\"mean\":%.1f,\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f}",
        static_cast<unsigned long long>(h->count()),
        static_cast<long long>(h->sum()), static_cast<long long>(h->min()),
        static_cast<long long>(h->max()), h->mean(), h->quantile(0.50),
        h->quantile(0.90), h->quantile(0.99));
    out += buf;
  }
  out += "}}";
  return out;
}

void MetricsRegistry::visit(
    const std::function<void(const std::string&, const Counter&)>& counter,
    const std::function<void(const std::string&, const Gauge&)>& gauge,
    const std::function<void(const std::string&, const Histogram&)>& histogram)
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (counter) {
    for (const auto& [name, c] : counters_) counter(name, *c);
  }
  if (gauge) {
    for (const auto& [name, g] : gauges_) gauge(name, *g);
  }
  if (histogram) {
    for (const auto& [name, h] : histograms_) histogram(name, *h);
  }
}

void MetricsRegistry::mergeAdditiveFrom(const MetricsRegistry& other) {
  // Lock ordering: `other` first, snapshotless — both locks are leaf-level
  // and rollups only ever merge worker registries into one accumulator, so
  // there is no path that takes them in the opposite order.
  std::lock_guard<std::mutex> other_lock(other.mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : other.counters_) {
    auto it = counters_.find(name);
    if (it == counters_.end()) {
      it = counters_.emplace(name, std::make_unique<Counter>()).first;
    }
    it->second->add(c->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
    }
    it->second->mergeFrom(*h);
  }
}

MetricsRegistry* metrics() noexcept {
  if (t_metrics != nullptr) return t_metrics;
  return g_metrics.load(std::memory_order_relaxed);
}

void setMetrics(MetricsRegistry* registry) noexcept {
  g_metrics.store(registry, std::memory_order_release);
}

void setThreadMetrics(MetricsRegistry* registry) noexcept {
  t_metrics = registry;
}

}  // namespace cmc::obs
