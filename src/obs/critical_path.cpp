#include "obs/critical_path.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/json.hpp"

namespace cmc::obs {

CriticalPathReport criticalPath(const std::vector<TraceEvent>& events,
                                const CriticalPathOptions& opts) {
  CriticalPathReport report;

  // Index spans by id. Ring order is oldest-first; a span id appears once
  // (ids are allocated per stimulus), so emplace keeps the first sighting.
  std::map<std::uint64_t, const TraceEvent*> span_of;
  for (const TraceEvent& ev : events) {
    if (ev.kind == EventKind::boxSpan && ev.span_id != 0) {
      span_of.emplace(ev.span_id, &ev);
    }
  }
  if (span_of.empty()) return report;

  // Select the terminal span: latest completion among eligible spans, span
  // id as a deterministic tie-break.
  const TraceEvent* terminal = nullptr;
  for (const auto& [id, ev] : span_of) {
    if (opts.trace != 0 && ev->trace_id != opts.trace) continue;
    const std::int64_t end = ev->ts_us + ev->dur_us;
    if (opts.end_at_us >= 0 && end > opts.end_at_us) continue;
    if (!opts.end_actor.empty() && ev->actor != opts.end_actor) continue;
    if (terminal == nullptr) {
      terminal = ev;
      continue;
    }
    const std::int64_t best = terminal->ts_us + terminal->dur_us;
    if (end > best || (end == best && ev->span_id > terminal->span_id)) {
      terminal = ev;
    }
  }
  if (terminal == nullptr) return report;
  report.trace = terminal->trace_id;

  // Walk parent links back to the root.
  std::vector<const TraceEvent*> chain;
  const TraceEvent* cursor = terminal;
  while (true) {
    chain.push_back(cursor);
    if (cursor->parent_span == 0) break;
    auto pit = span_of.find(cursor->parent_span);
    if (pit == span_of.end()) {
      // The parent fell out of the retained window: the chain is truncated.
      report.complete = false;
      break;
    }
    cursor = pit->second;
    if (chain.size() > span_of.size()) {  // defensive: malformed links
      report.complete = false;
      break;
    }
  }
  std::reverse(chain.begin(), chain.end());

  // Transit attribution wants the arrival instant, which signalRecv events
  // record ahead of the stimulus span (arrival precedes processing when the
  // box is busy). Match each hop to the closest preceding arrival with the
  // same trace, causing span, and receiving actor.
  auto arrivalFor = [&](const TraceEvent& span) -> const TraceEvent* {
    const TraceEvent* best = nullptr;
    for (const TraceEvent& ev : events) {
      if (ev.kind != EventKind::signalRecv) continue;
      if (ev.trace_id != span.trace_id || ev.parent_span != span.parent_span)
        continue;
      if (ev.actor != span.actor || ev.ts_us > span.ts_us) continue;
      if (best == nullptr || ev.ts_us > best->ts_us) best = &ev;
    }
    return best;
  };

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const TraceEvent& span = *chain[i];
    CriticalPathHop hop;
    hop.span = span.span_id;
    hop.parent = span.parent_span;
    hop.box = span.actor;
    hop.start_us = span.ts_us;
    hop.proc_us = span.dur_us;
    if (i > 0) {
      const TraceEvent& parent = *chain[i - 1];
      const std::int64_t parent_end = parent.ts_us + parent.dur_us;
      const TraceEvent* arrival = arrivalFor(span);
      const std::int64_t arrived_us =
          arrival != nullptr ? arrival->ts_us : span.ts_us;
      hop.transit_us = arrived_us - parent_end;
      hop.queue_us = span.ts_us - arrived_us;
    }
    report.proc_total_us += hop.proc_us;
    report.transit_total_us += hop.transit_us;
    report.queue_total_us += hop.queue_us;
    report.hops.push_back(std::move(hop));
  }

  report.start_us = chain.front()->ts_us;
  report.end_us = terminal->ts_us + terminal->dur_us;
  report.total_us = report.end_us - report.start_us;
  return report;
}

std::string CriticalPathReport::json() const {
  std::string out;
  out.reserve(256 + hops.size() * 160);
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"trace\":%llu,\"start_us\":%lld,\"end_us\":%lld,"
                "\"total_us\":%lld,\"proc_total_us\":%lld,"
                "\"transit_total_us\":%lld,\"queue_total_us\":%lld,"
                "\"complete\":%s,\"hops\":[",
                static_cast<unsigned long long>(trace),
                static_cast<long long>(start_us),
                static_cast<long long>(end_us),
                static_cast<long long>(total_us),
                static_cast<long long>(proc_total_us),
                static_cast<long long>(transit_total_us),
                static_cast<long long>(queue_total_us),
                complete ? "true" : "false");
  out += buf;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const CriticalPathHop& hop = hops[i];
    if (i != 0) out += ',';
    out += "{\"box\":\"";
    appendJsonEscaped(out, hop.box);
    std::snprintf(buf, sizeof(buf),
                  "\",\"span\":%llu,\"parent\":%llu,\"start_us\":%lld,"
                  "\"proc_us\":%lld,\"transit_us\":%lld,\"queue_us\":%lld}",
                  static_cast<unsigned long long>(hop.span),
                  static_cast<unsigned long long>(hop.parent),
                  static_cast<long long>(hop.start_us),
                  static_cast<long long>(hop.proc_us),
                  static_cast<long long>(hop.transit_us),
                  static_cast<long long>(hop.queue_us));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace cmc::obs
