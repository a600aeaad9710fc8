// Collision-safe dedup storage for explored states.
//
// The explorer used to dedup states on a bare 64-bit fingerprint: a hash
// collision silently merged two distinct protocol states, and every
// temporal verdict downstream of the merged state could be wrong. The seen
// set closes that hole by keying on the fingerprint but verifying the *full
// canonical byte encoding* on every lookup — two states may share a
// fingerprint, and both are kept, each with its own index.
//
// Two pieces, both single-owner and lock-free by construction:
//
//   StateArena  append-only blocks holding each state's canonical bytes
//               once, behind a small header with the state's index. A
//               fresh state costs no heap node of its own, and the whole
//               arena frees in one release per 64 KiB block. The records
//               appended since a mark can be compacted in place, keeping
//               some and reusing the room of the rest.
//   SeenSet     a flat open-addressing table of (fingerprint, record)
//               slots over such records, for one partition of the
//               fingerprint space.
//
// Neither type synchronizes. The explorer (state_graph.cpp) gives each
// worker one arena and one partition and runs its level in phases
// separated by barriers: lookups in every partition happen while no table
// is written, and each partition is written only by its owner. Records are
// never moved or freed while the arena lives, so a record pointer handed
// to another partition stays valid until its owner compacts them (the
// explorer repoints its table slots before any other worker reads them).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace cmc {

class StateArena {
 public:
  // One state's canonical bytes, stored directly after this header.
  struct Record {
    std::uint32_t size;   // canonical byte count
    std::uint32_t index;  // state index (the explorer may use it as a
                          // placeholder until the index is assigned)

    [[nodiscard]] const std::uint8_t* bytes() const noexcept {
      return reinterpret_cast<const std::uint8_t*>(this) + sizeof(Record);
    }
    [[nodiscard]] bool holds(
        std::span<const std::uint8_t> other) const noexcept {
      return size == other.size() &&
             std::memcmp(bytes(), other.data(), size) == 0;
    }
  };

  // Copies `bytes` into the arena. The record stays put until destruction,
  // unless a rewind() to an earlier mark forgets it.
  Record* append(std::span<const std::uint8_t> bytes, std::uint32_t index) {
    const std::size_t need = footprint(bytes.size());
    std::uint8_t* at;
    if (need > kBlockBytes) {
      // Larger than a block: its own allocation, the open block stays.
      at = large_
               .emplace_back(
                   std::make_unique_for_overwrite<std::uint8_t[]>(need))
               .get();
    } else {
      at = place(need);
    }
    Record* record =
        new (at) Record{static_cast<std::uint32_t>(bytes.size()), index};
    std::memcpy(at + sizeof(Record), bytes.data(), bytes.size());
    return record;
  }

  // Where the next append goes.
  struct Mark {
    std::size_t filled;  // blocks in use
    std::size_t left;    // room left in the last of them
  };
  [[nodiscard]] Mark mark() const noexcept { return {filled_, left_}; }

  // Forgets the records appended since `mark`; later appends reuse their
  // blocks. Their bytes stay readable until keep() or append() overwrite
  // them.
  void rewind(Mark mark) noexcept {
    filled_ = mark.filled;
    left_ = mark.left;
    cursor_ = filled_ == 0 ? nullptr
                           : blocks_[filled_ - 1].get() + kBlockBytes - left_;
  }

  // Re-appends `record`, one the last rewind() forgot, by moving it down to
  // where the next append goes, and returns its new place. Kept in their
  // append order, the records never move up, so none overwrites a forgotten
  // record that is still to be kept. A record larger than a block keeps its
  // own allocation and does not move.
  Record* keep(Record* record) {
    const std::size_t need = footprint(record->size);
    if (need > kBlockBytes) return record;
    std::uint8_t* at = place(need);
    std::memmove(at, record, need);
    return std::launder(reinterpret_cast<Record*>(at));
  }

 private:
  // About 150 states of the 782k reference model per block, so the open
  // block wastes little and a run frees a few thousand blocks. 1 MiB
  // blocks measured the same peak RSS and speed there.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  [[nodiscard]] static std::size_t footprint(std::size_t size) noexcept {
    return (sizeof(Record) + size + alignof(Record) - 1) &
           ~(alignof(Record) - 1);
  }

  // Room for `need` (at most kBlockBytes) bytes at the cursor, opening the
  // next block (one a rewind left, or a new one) when the open one is full.
  std::uint8_t* place(std::size_t need) {
    if (need > left_) {
      if (filled_ == blocks_.size()) {
        blocks_.push_back(
            std::make_unique_for_overwrite<std::uint8_t[]>(kBlockBytes));
      }
      cursor_ = blocks_[filled_++].get();
      left_ = kBlockBytes;
    }
    std::uint8_t* at = cursor_;
    cursor_ += need;
    left_ -= need;
    return at;
  }

  std::vector<std::unique_ptr<std::uint8_t[]>> blocks_;  // kBlockBytes each
  std::vector<std::unique_ptr<std::uint8_t[]>> large_;   // one record each
  std::size_t filled_ = 0;  // blocks_ in use; the last is the open one
  std::uint8_t* cursor_ = nullptr;
  std::size_t left_ = 0;
};

class SeenSet {
 public:
  using Record = StateArena::Record;

  SeenSet() : slots_(kInitialSlots) {}

  // The record holding byte-identical `bytes` under `fingerprint`, or null.
  [[nodiscard]] Record* find(
      std::uint64_t fingerprint,
      std::span<const std::uint8_t> bytes) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t at = fingerprint & mask;; at = (at + 1) & mask) {
      const Slot& slot = slots_[at];
      if (slot.record == nullptr) return nullptr;
      if (slot.fingerprint == fingerprint && slot.record->holds(bytes)) {
        return slot.record;
      }
    }
  }

  struct Claim {
    Record* record;  // the record now stored for these bytes
    bool inserted;   // `candidate` itself was stored: a fresh state
    bool collided;   // the fingerprint already held different bytes
  };

  // Finds `candidate`'s bytes, or stores `candidate` under `fingerprint` if
  // they are new. A fingerprint shared with different bytes is a genuine
  // hash collision: the candidate is still stored, as its own state.
  Claim insert(std::uint64_t fingerprint, Record* candidate) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::span<const std::uint8_t> bytes(candidate->bytes(),
                                              candidate->size);
    const std::size_t mask = slots_.size() - 1;
    bool collided = false;
    for (std::size_t at = fingerprint & mask;; at = (at + 1) & mask) {
      Slot& slot = slots_[at];
      if (slot.record == nullptr) {
        slot = Slot{fingerprint, candidate};
        ++size_;
        return Claim{candidate, true, collided};
      }
      if (slot.fingerprint == fingerprint) {
        if (slot.record->holds(bytes)) return Claim{slot.record, false, false};
        collided = true;
      }
    }
  }

  // Points the slot holding `from` (stored under `fingerprint`) at `to`, a
  // record with the same bytes. `from` is only compared, never read, so it
  // may already have been moved or overwritten.
  void repoint(std::uint64_t fingerprint, const Record* from,
               Record* to) noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t at = fingerprint & mask;
    while (slots_[at].record != from) at = (at + 1) & mask;
    slots_[at].record = to;
  }

  // Forgets every entry, keeping the slot capacity.
  void clear() noexcept {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t fingerprint = 0;
    Record* record = nullptr;  // null: empty
  };
  static constexpr std::size_t kInitialSlots = 1024;  // a power of two

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.record == nullptr) continue;
      std::size_t at = slot.fingerprint & mask;
      while (slots_[at].record != nullptr) at = (at + 1) & mask;
      slots_[at] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace cmc
