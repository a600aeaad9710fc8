// Observability surface of the explorer: one struct of counters and phase
// timings filled in by every explore() run, cheap enough to always collect.
// Benches print the human-readable fields and emit `json()` lines so the
// bench trajectory can be scraped by tooling.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>

namespace cmc {

struct ExploreStats {
  std::size_t threads = 1;          // worker threads used
  std::size_t states = 0;           // distinct states discovered
  std::size_t transitions = 0;      // edges recorded (terminal stutters included)
  std::size_t terminals = 0;
  std::size_t dedup_hits = 0;       // successor insertions resolved to an existing state
  std::size_t collisions = 0;       // fingerprint collisions caught by byte verification
  std::size_t bytes_retained = 0;   // canonical bytes held in the seen-set
  std::size_t frontier_depth = 0;   // BFS levels processed
  std::size_t peak_frontier = 0;    // widest BFS level
  bool truncated = false;
  double expand_seconds = 0;        // wall time of every level's phase A
  double merge_seconds = 0;         // ... of its phases B and C
  // Wall time of the whole explore() call: setup, every level, and the
  // release of the seen tables, byte arenas and level buffers. Only the
  // caller's later destruction of the result is outside it.
  double seconds = 0;

  [[nodiscard]] double statesPerSecond() const noexcept {
    return seconds > 0 ? static_cast<double>(states) / seconds : 0.0;
  }

  // Fraction of successor insertions that were duplicates of a known state.
  [[nodiscard]] double dedupRatio() const noexcept {
    const double total = static_cast<double>(dedup_hits + states);
    return total > 0 ? static_cast<double>(dedup_hits) / total : 0.0;
  }

  // One-line JSON object tagged with the emitting bench and configuration.
  [[nodiscard]] std::string json(std::string_view bench,
                                 std::string_view config) const {
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\":\"%.*s\",\"config\":\"%.*s\",\"threads\":%zu,"
        "\"states\":%zu,\"transitions\":%zu,\"terminals\":%zu,"
        "\"dedup_hits\":%zu,\"dedup_ratio\":%.4f,\"collisions\":%zu,"
        "\"bytes_retained\":%zu,\"frontier_depth\":%zu,\"peak_frontier\":%zu,"
        "\"states_per_sec\":%.0f,\"expand_seconds\":%.4f,"
        "\"merge_seconds\":%.4f,\"seconds\":%.4f,\"truncated\":%s}",
        static_cast<int>(bench.size()), bench.data(),
        static_cast<int>(config.size()), config.data(), threads, states,
        transitions, terminals, dedup_hits, dedupRatio(), collisions,
        bytes_retained, frontier_depth, peak_frontier, statesPerSecond(),
        expand_seconds, merge_seconds, seconds, truncated ? "true" : "false");
    return std::string(buf);
  }
};

}  // namespace cmc
