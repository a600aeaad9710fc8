// Convergence probes: virtual-time latency from a goal change to path
// quiescence.
//
// The paper's latency law (§VIII-C) says: after the last flowlink of a
// signaling path initializes, media setup toward the farther endpoint takes
// p*n + (p+1)*c. A probe captures exactly that interval empirically: arm it
// at the moment of the goal change with a predicate describing the target
// quiescent condition (bothFlowing along the path, media audible, both
// closed, ...); the hosting Simulator re-evaluates armed probes after every
// box stimulus completes, and the first time a predicate holds the probe
// records `now - armed_at` into a named latency histogram and disarms.
//
// Predicates run only while at least one probe is armed, so an idle probe
// set costs one `empty()` check per stimulus. A probe may name the boxes its
// predicate reads (its watch set); the host's per-stimulus check then
// evaluates only the probes watching the stimulated box, so the cost of a
// stimulus does not grow with the number of probes armed for unrelated
// paths. Arming and settling a probe allocate nothing once the probe set
// has held its most probes at once: slots, the watch index and the check
// buffers keep their capacity. Probes are owned by a single simulation
// thread; they are not
// thread-safe by design. All timestamps — arm instants and watchdog
// deadlines — are in the hosting loop's virtual time, and the deadline
// path resolves the flight recorder through obs::flightRecorder(), which
// honors the calling thread's override: in a sharded runtime a deadline
// miss therefore dumps the shard that armed the probe, never a sibling
// shard's recorder.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/small_vec.hpp"

namespace cmc::obs {

class ConvergenceProbes {
 public:
  using Predicate = std::function<bool()>;
  using FailureHandler =
      std::function<void(const std::string& name, std::int64_t now_us)>;
  // The boxes (BoxId::value()) whose state a predicate reads. Empty means
  // "any box": the probe is evaluated at every check. A call's probe
  // watches two or three boxes, which fit inline.
  using Watch = SmallVec<std::uint64_t, 4>;

  // Arm a probe. `bucket` names the histogram the latency lands in (several
  // probes — e.g. runs with different seeds — may share one bucket);
  // `name` identifies this single measurement. A positive `deadline_us`
  // turns the probe into a watchdog: if it has not converged by that
  // virtual instant, the next check() marks it failed, disarms it, and
  // triggers the installed flight recorder (obs/flight_recorder.hpp).
  // A non-empty `watch` scopes the probe to those boxes: check(now, box)
  // evaluates it only when `box` is one of them. The predicate must then
  // read nothing but the watched boxes (and state that changes only with
  // them), or a scoped check can miss the instant it starts to hold.
  void arm(std::string name, std::string bucket, std::int64_t now_us,
           Predicate quiescent, std::int64_t deadline_us = 0,
           Watch watch = {});

  // Evaluate every armed probe; satisfied ones record and disarm, expired
  // ones fail (post-mortem dump + onFailure). Returns the number of probes
  // that converged in this call.
  std::size_t check(std::int64_t now_us);
  // The same after a stimulus of box `touched_box` (BoxId::value()):
  // evaluates only the probes that stimulus can have changed — those
  // watching the box, unscoped ones, and any armed since the last check —
  // plus every probe whose deadline has passed, so watchdogs fail at the
  // same check instant as under check(now_us). Probes are evaluated in
  // arming order, as check(now_us) does.
  std::size_t check(std::int64_t now_us, std::uint64_t touched_box);

  // Drop the armed probe named `name` without recording a result either
  // way. Returns true if it was armed. Call-churn hosts disarm a call's
  // setup probe at teardown: once the call's boxes close, its quiescence
  // predicate can never hold, and an abandoned probe would be re-evaluated
  // on every later stimulus for the life of the shard.
  bool disarm(const std::string& name);

  // Called for every probe that blows its deadline, after the flight-
  // recorder dump; hosts use it to abort or log.
  void setOnFailure(FailureHandler handler) { on_failure_ = std::move(handler); }

  [[nodiscard]] bool empty() const noexcept { return armed_ == 0; }
  [[nodiscard]] std::size_t armedCount() const noexcept { return armed_; }
  [[nodiscard]] std::size_t convergedCount() const noexcept { return converged_; }
  [[nodiscard]] std::size_t failedCount() const noexcept {
    return failed_.size();
  }
  [[nodiscard]] const std::vector<std::string>& failed() const noexcept {
    return failed_;
  }

  // Latency of a named measurement, once converged.
  [[nodiscard]] std::optional<std::int64_t> latencyUs(const std::string& name) const;

  [[nodiscard]] const Histogram* histogram(const std::string& bucket) const;
  // All bucket histograms, for cross-shard aggregation (Histogram::
  // mergeFrom). Keys are bucket names; the map is stable while no probe
  // converges, so snapshot after the hosting loop has drained.
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

  // {"<bucket>":{count,...}, ...} — per-bucket latency histograms (µs).
  [[nodiscard]] std::string json() const;

  // Drop armed probes and recorded results.
  void reset();

 private:
  // One slot of the probe table; a settled probe's slot is reused by a
  // later arm, which then assigns over its strings and watch list.
  struct Armed {
    std::uint64_t seq = 0;  // arming sequence
    bool live = false;      // armed, not yet settled or disarmed
    std::string name;
    std::string bucket;
    std::int64_t start_us = 0;
    std::int64_t deadline_us = 0;  // 0 = no watchdog
    Predicate quiescent;
    Watch watch;
  };
  // A probe as the check lists name it. The sequence number tells the
  // probe apart from a later one that reuses its slot.
  struct Ref {
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Earliest deadline first; entries of probes already settled or disarmed
  // are skipped when they surface.
  struct Deadline {
    std::int64_t at_us;
    Ref probe;
    friend bool operator>(const Deadline& a, const Deadline& b) noexcept {
      return a.at_us != b.at_us ? a.at_us > b.at_us
                                : a.probe.seq > b.probe.seq;
    }
  };

  // Box -> slots of the probes watching it: a multimap in one flat
  // open-addressing table (linear probing, backward-shift erase), so
  // watching a box costs no heap node.
  class WatchIndex {
   public:
    void insert(std::uint64_t box, std::uint32_t slot);
    void erase(std::uint64_t box, std::uint32_t slot);
    // Calls f(slot) for every probe watching `box`.
    template <typename F>
    void forEach(std::uint64_t box, F&& f) const {
      if (size_ == 0) return;
      const std::size_t mask = entries_.size() - 1;
      for (std::size_t at = home(box, mask); entries_[at].used;
           at = (at + 1) & mask) {
        if (entries_[at].box == box) f(entries_[at].slot);
      }
    }
    void clear() noexcept;

   private:
    struct Entry {
      std::uint64_t box = 0;
      std::uint32_t slot = 0;
      bool used = false;
    };
    [[nodiscard]] static std::size_t home(std::uint64_t box,
                                          std::size_t mask) noexcept;
    std::vector<Entry> entries_;  // empty, or a power of two
    std::size_t size_ = 0;
  };

  [[nodiscard]] bool isLive(const Ref& ref) const noexcept {
    const Armed& probe = slots_[ref.slot];
    return probe.live && probe.seq == ref.seq;
  }
  // Evaluate the probes in due_ (any order, duplicates allowed), in arming
  // order; empties due_.
  std::size_t evaluate(std::int64_t now_us);
  // Queue every probe whose deadline is at or before `now_us`.
  void collectExpired(std::int64_t now_us);
  // Forget an armed probe and its watch entries, freeing its slot.
  void retire(std::uint32_t slot);

  // Probe slots. A deque, so a predicate or failure handler that arms a
  // probe while another is evaluated moves no slot.
  std::deque<Armed> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t armed_ = 0;
  WatchIndex watchers_;
  std::vector<std::uint32_t> unscoped_;  // slots with an empty watch set
  std::vector<Ref> fresh_;               // armed since the last check
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<>>
      deadlines_;
  std::vector<Ref> due_;  // scratch: probes one check evaluates
  std::uint64_t next_seq_ = 0;
  std::string metric_name_;  // scratch: "probe.<bucket>_us"
  std::map<std::string, Histogram> histograms_;
  std::unordered_map<std::string, std::int64_t> results_;
  std::vector<std::string> failed_;
  FailureHandler on_failure_;
  std::size_t converged_ = 0;
};

}  // namespace cmc::obs
