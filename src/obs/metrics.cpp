#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"

namespace cmc::obs {

namespace {

std::atomic<MetricsRegistry*> g_metrics{nullptr};
thread_local MetricsRegistry* t_metrics = nullptr;

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
  buckets_[HistogramSample::bucketOf(value)].fetch_add(
      1, std::memory_order_relaxed);
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

HistogramSample Histogram::sample() const noexcept {
  HistogramSample s;
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  const std::int64_t lo = min_.load(std::memory_order_relaxed);
  const std::int64_t hi = max_.load(std::memory_order_relaxed);
  s.min = lo == std::numeric_limits<std::int64_t>::max() ? 0 : lo;
  s.max = hi == std::numeric_limits<std::int64_t>::min() ? 0 : hi;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return s;
}

double HistogramSample::bucketLo(std::size_t i) noexcept {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
}

double HistogramSample::bucketHi(std::size_t i) noexcept {
  return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
}

double HistogramSample::mean() const noexcept {
  return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                   : 0.0;
}

double HistogramSample::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      const double frac = (target - cumulative) / in_bucket;
      const double estimate = bucketLo(i) + (bucketHi(i) - bucketLo(i)) * frac;
      if (min <= max) {
        return std::clamp(estimate, static_cast<double>(min),
                          static_cast<double>(max));
      }
      return estimate;
    }
    cumulative += in_bucket;
  }
  return static_cast<double>(max);
}

void HistogramSample::mergeFrom(const HistogramSample& other) noexcept {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets[i] += other.buckets[i];
}

void HistogramSample::appendJson(std::string& out) const {
  char buf[224];
  std::snprintf(
      buf, sizeof(buf),
      "{\"count\":%llu,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
      "\"mean\":%.1f,\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f}",
      static_cast<unsigned long long>(count), static_cast<long long>(sum),
      static_cast<long long>(min), static_cast<long long>(max), mean(),
      quantile(0.50), quantile(0.90), quantile(0.99));
  out += buf;
}

void MetricsJsonWriter::enter(int section) {
  static constexpr const char* kOpen[] = {
      "\"counters\":{", "},\"gauges\":{", "},\"histograms\":{", "}"};
  while (section_ < section) {
    out_ += kOpen[++section_];
    first_ = true;
  }
}

void MetricsJsonWriter::key(int section, std::string_view name) {
  enter(section);
  if (!first_) out_ += ',';
  first_ = false;
  out_ += '"';
  appendJsonEscaped(out_, name);
  out_ += "\":";
}

void MetricsJsonWriter::counter(std::string_view name, std::uint64_t value) {
  key(0, name);
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void MetricsJsonWriter::gauge(std::string_view name, const GaugeSample& gauge) {
  key(1, name);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"value\":%lld,\"max\":%lld}",
                static_cast<long long>(gauge.value),
                static_cast<long long>(gauge.max));
  out_ += buf;
}

void MetricsJsonWriter::histogram(std::string_view name,
                                  const HistogramSample& histogram) {
  key(2, name);
  histogram.appendJson(out_);
}

void MetricsJsonWriter::finish() { enter(3); }

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
  std::string out = "{";
  MetricsJsonWriter writer(out);
  visit(
      [&](const std::string& name, const Counter& c) {
        writer.counter(name, c.value());
      },
      [&](const std::string& name, const Gauge& g) {
        writer.gauge(name, GaugeSample{g.value(), g.max()});
      },
      [&](const std::string& name, const Histogram& h) {
        writer.histogram(name, h.sample());
      });
  writer.finish();
  out += '}';
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
