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
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const Ref ref{next_seq_++, slot};
  Armed& probe = slots_[slot];
  probe.seq = ref.seq;
  probe.live = true;
  probe.name = std::move(name);
  probe.bucket = std::move(bucket);
  probe.start_us = now_us;
  probe.deadline_us = deadline_us;
  probe.quiescent = std::move(quiescent);
  probe.watch = std::move(watch);
  ++armed_;
  if (TraceRecorder* rec = recorder()) {
    rec->record(EventKind::mark, "probe_armed:" + probe.name, /*actor=*/{});
  }
  if (probe.watch.empty()) unscoped_.push_back(slot);
  for (std::uint64_t box : probe.watch) watchers_.insert(box, slot);
  if (deadline_us > 0) deadlines_.push(Deadline{deadline_us, ref});
  fresh_.push_back(ref);
}

std::size_t ConvergenceProbes::check(std::int64_t now_us) {
  fresh_.clear();
  collectExpired(now_us);  // every armed probe is due anyway
  due_.clear();
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].live) due_.push_back(Ref{slots_[slot].seq, slot});
  }
  return evaluate(now_us);
}

std::size_t ConvergenceProbes::check(std::int64_t now_us,
                                     std::uint64_t touched_box) {
  due_.insert(due_.end(), fresh_.begin(), fresh_.end());
  fresh_.clear();
  for (const std::uint32_t slot : unscoped_) {
    due_.push_back(Ref{slots_[slot].seq, slot});
  }
  watchers_.forEach(touched_box, [this](std::uint32_t slot) {
    due_.push_back(Ref{slots_[slot].seq, slot});
  });
  collectExpired(now_us);
  return evaluate(now_us);
}

void ConvergenceProbes::collectExpired(std::int64_t now_us) {
  while (!deadlines_.empty() && deadlines_.top().at_us <= now_us) {
    due_.push_back(deadlines_.top().probe);
    deadlines_.pop();
  }
}

std::size_t ConvergenceProbes::evaluate(std::int64_t now_us) {
  if (due_.empty()) return 0;
  // Work on a local list so a failure handler that checks again cannot
  // disturb this pass; the buffer's capacity goes back to due_ afterwards.
  std::vector<Ref> due;
  due.swap(due_);
  const auto by_seq = [](const Ref& a, const Ref& b) { return a.seq < b.seq; };
  std::sort(due.begin(), due.end(), by_seq);
  due.erase(std::unique(due.begin(), due.end(),
                        [](const Ref& a, const Ref& b) {
                          return a.seq == b.seq;
                        }),
            due.end());
  std::size_t fired = 0;
  for (const Ref& ref : due) {
    if (!isLive(ref)) continue;  // settled or disarmed
    Armed& probe = slots_[ref.slot];
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
        retire(ref.slot);
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
      metric_name_.assign("probe.").append(probe.bucket).append("_us");
      m->histogram(metric_name_).observe(latency);
    }
    results_[probe.name] = latency;
    if (TraceRecorder* rec = recorder()) {
      rec->record(EventKind::mark, "probe_converged:" + probe.name, /*actor=*/{},
                  probe.bucket, /*id=*/0, /*v0=*/latency);
    }
    ++converged_;
    ++fired;
    retire(ref.slot);
  }
  due.clear();
  if (due_.empty()) due_.swap(due);
  return fired;
}

void ConvergenceProbes::retire(std::uint32_t slot) {
  Armed& probe = slots_[slot];
  for (std::uint64_t box : probe.watch) watchers_.erase(box, slot);
  if (probe.watch.empty()) {
    unscoped_.erase(std::find(unscoped_.begin(), unscoped_.end(), slot));
  }
  probe.live = false;
  probe.quiescent = nullptr;  // drop what the predicate captured
  --armed_;
  free_slots_.push_back(slot);
}

bool ConvergenceProbes::disarm(const std::string& name) {
  // The earliest armed probe of that name, as in arming order.
  std::optional<std::uint32_t> found;
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    const Armed& probe = slots_[slot];
    if (!probe.live || probe.name != name) continue;
    if (!found || probe.seq < slots_[*found].seq) found = slot;
  }
  if (!found) return false;
  retire(*found);
  return true;
}

void ConvergenceProbes::WatchIndex::insert(std::uint64_t box,
                                           std::uint32_t slot) {
  if ((size_ + 1) * 2 > entries_.size()) {
    // Rehash at half load into twice the room (16 entries at first).
    std::vector<Entry> old(std::max<std::size_t>(16, entries_.size() * 2));
    old.swap(entries_);
    size_ = 0;
    for (const Entry& entry : old) {
      if (entry.used) insert(entry.box, entry.slot);
    }
  }
  const std::size_t mask = entries_.size() - 1;
  std::size_t at = home(box, mask);
  while (entries_[at].used) at = (at + 1) & mask;
  entries_[at] = Entry{box, slot, true};
  ++size_;
}

void ConvergenceProbes::WatchIndex::erase(std::uint64_t box,
                                          std::uint32_t slot) {
  const std::size_t mask = entries_.size() - 1;
  std::size_t hole = home(box, mask);
  while (!(entries_[hole].box == box && entries_[hole].slot == slot)) {
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: move each later entry of the cluster into the
  // hole, unless that would put it before its home position.
  for (std::size_t at = (hole + 1) & mask; entries_[at].used;
       at = (at + 1) & mask) {
    const std::size_t want = home(entries_[at].box, mask);
    if (((at - want) & mask) >= ((at - hole) & mask)) {
      entries_[hole] = entries_[at];
      hole = at;
    }
  }
  entries_[hole] = Entry{};
  --size_;
}

void ConvergenceProbes::WatchIndex::clear() noexcept {
  std::fill(entries_.begin(), entries_.end(), Entry{});
  size_ = 0;
}

std::size_t ConvergenceProbes::WatchIndex::home(std::uint64_t box,
                                                std::size_t mask) noexcept {
  // Box ids are consecutive; spread them over the table.
  return static_cast<std::size_t>((box * 0x9e3779b97f4a7c15ULL) >> 32) & mask;
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
  slots_.clear();
  free_slots_.clear();
  armed_ = 0;
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
