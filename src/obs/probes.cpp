#include "obs/probes.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cmc::obs {

void ConvergenceProbes::arm(std::string name, std::string bucket,
                            std::int64_t now_us, Predicate quiescent,
                            std::int64_t deadline_us, Watch watch) {
  const std::uint64_t seq = next_seq_++;
  Armed probe;
  probe.name = std::move(name);
  probe.bucket = std::move(bucket);
  probe.start_us = now_us;
  probe.deadline_us = deadline_us;
  probe.quiescent = std::move(quiescent);
  probe.watch = std::move(watch);
  if (TraceRecorder* rec = recorder()) {
    rec->record(EventKind::mark, "probe_armed:" + probe.name, /*actor=*/{});
  }
  if (probe.watch.empty()) unscoped_.push_back(seq);
  for (std::uint64_t box : probe.watch) watchers_.emplace(box, seq);
  if (deadline_us > 0) deadlines_.emplace(deadline_us, seq);
  fresh_.push_back(seq);
  armed_.emplace(seq, std::move(probe));
}

std::size_t ConvergenceProbes::check(std::int64_t now_us) {
  fresh_.clear();
  collectExpired(now_us);  // every armed probe is due anyway
  due_.clear();
  for (const auto& [seq, probe] : armed_) due_.push_back(seq);
  return evaluate(now_us);
}

std::size_t ConvergenceProbes::check(std::int64_t now_us,
                                     std::uint64_t touched_box) {
  due_.insert(due_.end(), fresh_.begin(), fresh_.end());
  fresh_.clear();
  due_.insert(due_.end(), unscoped_.begin(), unscoped_.end());
  const auto [first, last] = watchers_.equal_range(touched_box);
  for (auto it = first; it != last; ++it) due_.push_back(it->second);
  collectExpired(now_us);
  return evaluate(now_us);
}

void ConvergenceProbes::collectExpired(std::int64_t now_us) {
  while (!deadlines_.empty() && deadlines_.top().first <= now_us) {
    due_.push_back(deadlines_.top().second);
    deadlines_.pop();
  }
}

std::size_t ConvergenceProbes::evaluate(std::int64_t now_us) {
  if (due_.empty()) return 0;
  // Work on a local list so a failure handler that checks again cannot
  // disturb this pass; the buffer's capacity goes back to due_ afterwards.
  std::vector<std::uint64_t> due;
  due.swap(due_);
  std::sort(due.begin(), due.end());
  due.erase(std::unique(due.begin(), due.end()), due.end());
  std::size_t fired = 0;
  for (const std::uint64_t seq : due) {
    auto it = armed_.find(seq);
    if (it == armed_.end()) continue;  // settled or disarmed
    Armed& probe = it->second;
    if (!probe.quiescent || !probe.quiescent()) {
      if (probe.deadline_us > 0 && now_us >= probe.deadline_us) {
        // Watchdog expired: this is a failed convergence. Capture the
        // post-mortem first — the retained trace window still holds the
        // stalled causal chain — then surface the failure.
        const std::string name = probe.name;
        failed_.push_back(name);
        if (TraceRecorder* rec = recorder()) {
          rec->record(EventKind::mark, "probe_failed:" + name, /*actor=*/{},
                      probe.bucket, /*id=*/0, /*v0=*/now_us - probe.start_us);
        }
        retire(it);
        if (FlightRecorder* fr = flightRecorder()) {
          fr->dump("probe_timeout:" + name);
        }
        if (on_failure_) on_failure_(name, now_us);
      }
      continue;
    }
    const std::int64_t latency = now_us - probe.start_us;
    histograms_[probe.bucket].observe(latency);
    // Mirror the observation into the metrics namespace as it happens, so a
    // live sampler sees per-window setup latency mid-run instead of waiting
    // for the end-of-run fold. Written unconditionally (sampler or not):
    // per-call latencies are deterministic, so this keeps the rollup
    // byte-identical whether or not anyone is watching.
    if (MetricsRegistry* m = metrics()) {
      m->histogram("probe." + probe.bucket + "_us").observe(latency);
    }
    results_[probe.name] = latency;
    if (TraceRecorder* rec = recorder()) {
      rec->record(EventKind::mark, "probe_converged:" + probe.name, /*actor=*/{},
                  probe.bucket, /*id=*/0, /*v0=*/latency);
    }
    ++converged_;
    ++fired;
    retire(it);
  }
  due.clear();
  if (due_.empty()) due_.swap(due);
  return fired;
}

void ConvergenceProbes::retire(std::map<std::uint64_t, Armed>::iterator it) {
  const std::uint64_t seq = it->first;
  for (std::uint64_t box : it->second.watch) {
    const auto [first, last] = watchers_.equal_range(box);
    for (auto w = first; w != last; ++w) {
      if (w->second == seq) {
        watchers_.erase(w);
        break;
      }
    }
  }
  if (it->second.watch.empty()) {
    unscoped_.erase(std::find(unscoped_.begin(), unscoped_.end(), seq));
  }
  armed_.erase(it);
}

bool ConvergenceProbes::disarm(const std::string& name) {
  for (auto it = armed_.begin(); it != armed_.end(); ++it) {
    if (it->second.name != name) continue;
    retire(it);
    return true;
  }
  return false;
}

std::optional<std::int64_t> ConvergenceProbes::latencyUs(
    const std::string& name) const {
  auto it = results_.find(name);
  if (it == results_.end()) return std::nullopt;
  return it->second;
}

const Histogram* ConvergenceProbes::histogram(const std::string& bucket) const {
  auto it = histograms_.find(bucket);
  return it != histograms_.end() ? &it->second : nullptr;
}

std::string ConvergenceProbes::json() const {
  std::string out = "{";
  char buf[192];
  bool first = true;
  for (const auto& [bucket, h] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    appendJsonEscaped(out, bucket);
    out += "\":";
    const HistogramSample s = h.sample();
    std::snprintf(
        buf, sizeof(buf),
        "{\"count\":%llu,\"min_us\":%lld,\"max_us\":%lld,\"mean_us\":%.1f,"
        "\"p50_us\":%.1f,\"p90_us\":%.1f,\"p99_us\":%.1f}",
        static_cast<unsigned long long>(s.count),
        static_cast<long long>(s.min), static_cast<long long>(s.max),
        s.mean(), s.quantile(0.50), s.quantile(0.90), s.quantile(0.99));
    out += buf;
  }
  out += '}';
  return out;
}

void ConvergenceProbes::reset() {
  armed_.clear();
  watchers_.clear();
  unscoped_.clear();
  fresh_.clear();
  deadlines_ = {};
  histograms_.clear();
  results_.clear();
  failed_.clear();
  converged_ = 0;
}

}  // namespace cmc::obs
