// Collision-safe, concurrent dedup set for explored states.
//
// The explorer used to dedup states on a bare 64-bit fingerprint: a hash
// collision silently merged two distinct protocol states, and every
// temporal verdict downstream of the merged state could be wrong. SeenSet
// closes that hole by keying on the fingerprint but verifying the *full
// canonical byte encoding* on every insert — two states may share a
// fingerprint, and both are kept, each with its own index.
//
// The price: canonical bytes are retained for the lifetime of the
// exploration (reported as `bytesRetained()`), and with the hash-map nodes
// they are the one per-state cost that grows with the whole graph. The
// PathSystem values themselves are not kept here or anywhere else for long:
// the explorer's frontier owns each discovered system only until its one
// expansion, then frees it (state_graph.cpp). `insert` borrows the caller's
// bytes and copies them only when it claims a fresh index, so the dedup
// hits that dominate a run (about two of every three inserts) allocate
// nothing.
//
// Concurrency: the table is lock-striped into shards addressed by
// fingerprint, so parallel BFS workers inserting unrelated states almost
// never contend. Index assignment is a single atomic counter bounded by
// `max_states`, which makes truncation exact: once the budget is spent no
// further index is ever handed out, by any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace cmc {

class SeenSet {
 public:
  // Returned as Outcome::index when the state budget is exhausted.
  static constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

  explicit SeenSet(std::uint32_t max_states, std::size_t shard_count = 64)
      : max_states_(max_states), shards_(shard_count) {}

  struct Outcome {
    std::uint32_t index = kNoIndex;  // index of the state; kNoIndex if out of budget
    bool inserted = false;           // this call claimed a fresh index
    bool collided = false;           // fingerprint already held different bytes
  };

  // Insert a state by (fingerprint, canonical bytes). If an entry with the
  // same fingerprint AND byte-identical encoding exists, returns its index
  // (a dedup hit). If the fingerprint exists but the bytes differ, that is
  // a genuine hash collision: the state is still inserted under its own
  // index and the collision counter advances. The bytes are copied only on
  // a fresh insert.
  Outcome insert(std::uint64_t fingerprint, const std::vector<std::uint8_t>& bytes) {
    Shard& shard = shards_[fingerprint % shards_.size()];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<Entry>& bucket = shard.map[fingerprint];
    for (const Entry& entry : bucket) {
      if (entry.bytes == bytes) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return Outcome{entry.index, false, false};
      }
    }
    const bool collided = !bucket.empty();
    std::uint32_t index = next_.load(std::memory_order_relaxed);
    do {
      if (index >= max_states_) return Outcome{kNoIndex, false, collided};
    } while (!next_.compare_exchange_weak(index, index + 1,
                                          std::memory_order_relaxed));
    bytes_retained_.fetch_add(bytes.size(), std::memory_order_relaxed);
    if (collided) collisions_.fetch_add(1, std::memory_order_relaxed);
    bucket.push_back(Entry{bytes, index});
    return Outcome{index, true, collided};
  }

  // Number of distinct states inserted so far.
  [[nodiscard]] std::uint32_t size() const noexcept {
    return next_.load(std::memory_order_relaxed);
  }
  // Dedup hits: inserts that found a byte-identical existing state.
  [[nodiscard]] std::size_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  // States inserted whose fingerprint was already taken by different bytes.
  [[nodiscard]] std::size_t collisions() const noexcept {
    return collisions_.load(std::memory_order_relaxed);
  }
  // Total canonical bytes held for collision verification.
  [[nodiscard]] std::size_t bytesRetained() const noexcept {
    return bytes_retained_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::vector<std::uint8_t> bytes;
    std::uint32_t index;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint64_t, std::vector<Entry>> map;
  };

  std::uint32_t max_states_;
  std::vector<Shard> shards_;
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> collisions_{0};
  std::atomic<std::size_t> bytes_retained_{0};
};

}  // namespace cmc
