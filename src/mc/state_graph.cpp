#include "mc/state_graph.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>

#include "mc/seen_set.hpp"
#include "obs/profiler.hpp"

namespace cmc {

namespace {

StateBits bitsOf(const PathSystem& system, bool terminal) {
  StateBits bits{};
  bits.bothClosed = system.bothClosed();
  bits.bothFlowing = system.bothFlowing();
  bits.quiescent = system.quiescent();
  bool attached = true;
  for (std::uint32_t p = 0; p < system.partyCount(); ++p) {
    attached = attached && system.partyAttached(p);
  }
  bits.allAttached = attached;
  bool stable = true;
  auto slot_ok = [](const SlotEndpoint& slot) {
    return slot.state() == ProtocolState::closed ||
           slot.state() == ProtocolState::flowing;
  };
  stable = stable && slot_ok(system.endpointSlot(PathEnd::left));
  stable = stable && slot_ok(system.endpointSlot(PathEnd::right));
  for (std::size_t i = 0; i < system.flowlinkCount(); ++i) {
    stable = stable && slot_ok(system.flowlinkSlot(i, Side::A));
    stable = stable && slot_ok(system.flowlinkSlot(i, Side::B));
  }
  bits.slotsStable = stable;
  bits.terminal = terminal;
  bits.expanded = true;
  bits.left_state =
      static_cast<std::uint8_t>(system.endpointSlot(PathEnd::left).state());
  bits.right_state =
      static_cast<std::uint8_t>(system.endpointSlot(PathEnd::right).state());
  bits.media_left = system.mediaEnabled(PathEnd::left);
  bits.media_right = system.mediaEnabled(PathEnd::right);
  return bits;
}

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

// One successor of an expanded state as phase A leaves it: the index of a
// state known before this level, or the id of one of the worker's
// candidates.
struct Successor {
  std::uint32_t value;
  bool candidate;
};

// An expanded frontier state: its predicate bits and where its successors
// end in the worker's successor list.
struct Expanded {
  StateBits bits;
  std::uint32_t successors_end;
};

// A successor unknown to every earlier level and the first of its bytes in
// the worker's chunk. Phase B decides whether it is also the first in the
// whole level; phase C indexes the first ones.
//
// A candidate is named across workers by its code, id * workers + worker
// (a 32-bit index space holds it: a worker's candidates in one level are
// far fewer than 2^32 / workers), which its record's `index` carries from
// phase B until phase C moves the record.
struct Candidate {
  std::uint64_t fingerprint;
  StateArena::Record* own;   // its bytes, appended to the arena in phase A
  StateArena::Record* kept;  // phase C: where `own` moved, if indexed
  std::uint32_t first;   // phase B: code of the level's first such candidate
  std::uint32_t parent;  // frontier position of the state it came from
  std::uint32_t successor;  // position of its first use in `successors`
  PathAction action;
  bool collided;  // phase B: its fingerprint already held other bytes
};

using SystemPtr = std::unique_ptr<PathSystem>;

// Aligned so that the partition other workers read in phase A shares no
// cache line with another worker's writes.
struct alignas(64) Worker {
  // `system` copied into a spare PathSystem, or into a new one when none is
  // spare. Assigning over a spare reuses the capacity of its vectors.
  SystemPtr copyOf(const PathSystem& system) {
    if (spare.empty()) return std::make_unique<PathSystem>(system);
    SystemPtr copy = std::move(spare.back());
    spare.pop_back();
    *copy = system;
    return copy;
  }
  // Keeps a system this worker is done with for reuse, as long as fewer
  // are spare than one expanded state can take; frees it otherwise.
  void release(SystemPtr& system) {
    if (spare.size() < spare_limit) spare.push_back(std::move(system));
    system.reset();
  }

  // Kept for the whole run.
  SeenSet seen;  // this worker's partition of the fingerprint space
  // Bytes of every state this worker indexed, followed in phases A to C by
  // those of its candidates; phase C compacts that tail to the indexed ones.
  alignas(64) StateArena arena;

  // Reused every level, so their capacity survives from one to the next.
  ByteWriter writer;
  std::vector<PathAction> actions;  // of the state being expanded
  SystemPtr scratch;                // the successor being canonicalized
  std::vector<SystemPtr> systems;   // parallel to the candidates
  // Systems this worker released, from its expanded frontier states and
  // its candidates that lost to an earlier chunk. Only worker w touches
  // workers_[w].spare, in its own phases A and C. At most `spare_limit`
  // are kept: the most successors one state this worker expanded has had,
  // which is the most a single expansion can take from the list.
  std::vector<SystemPtr> spare;
  std::size_t spare_limit = 0;
  StateArena::Mark level_mark;  // the arena's end before this level
  SeenSet local;                // this level's candidates
  std::vector<Candidate> candidates;
  std::vector<Expanded> expanded;
  std::vector<Successor> successors;
  // Candidate ids, one list per destination partition.
  std::vector<std::vector<std::uint32_t>> outbox;
  // Phase B, as partition owner: level-first candidates per source worker.
  std::vector<std::size_t> firsts_from;

  // Phase C.
  std::uint32_t index_base = 0;  // index of this worker's first fresh state
  std::size_t index_limit = 0;   // how many it may index (the state budget)
  bool cuts = false;             // the budget runs out inside this chunk
  std::size_t transitions = 0, terminals = 0, collisions = 0, bytes = 0;
};

// Level-synchronous exploration with one code path for any worker count.
// Worker w expands the w-th contiguous chunk of the frontier and owns the
// partition of the fingerprint space that `partitionOf` maps to w. Each
// level runs in three phases separated by barriers:
//
//   A  expand  Each worker expands its chunk in order, looking successors
//              up read-only in their owning partition (nothing writes a
//              table in this phase). Unknown ones become candidates: bytes
//              appended to the worker's arena, system kept (successors
//              are built in the worker's spare systems while it has any),
//              id filed in the outbox of the owning partition. A
//              worker-local table folds repeats inside the chunk, where
//              most duplicates of a level arise. Expanded states go to the
//              spare list, up to its limit.
//   B  dedup   Each owner inserts its outboxes' candidates in (worker,
//              candidate) order, which is (frontier position, action
//              ordinal) order. The first occurrence of each state wins.
//   C  index   Fresh states get consecutive indices in that same order,
//              from per-worker offsets; each worker moves their bytes down
//              over those of its other candidates and their systems to the
//              next frontier. Then the frontier's edges are resolved and
//              each owner points its table at the moved bytes. The state
//              budget cuts at exactly the successor that a sequential walk
//              would fail on.
//
// The order is the one a single sequential BFS assigns, so indices,
// parents, edges, traces and truncation points do not depend on the
// number of workers. Worker 0 is the calling thread; the serial steps
// between phases run in the barrier's completion. No step of a level
// allocates per successor: the action list, the byte writer and the
// systems are reused, and the arena keeps only indexed states' bytes.
class Explorer {
 public:
  Explorer(const PathSystem& initial, const ExploreLimits& limits,
           ExploreResult& result);
  Explorer(const Explorer&) = delete;  // workers hold `this`
  Explorer& operator=(const Explorer&) = delete;

  void run() {
    std::vector<std::jthread> helpers;
    for (std::size_t w = 1; w < workers_.size(); ++w) {
      helpers.emplace_back([this, w] { work(w); });
    }
    work(0);
  }

 private:
  struct Step {
    Explorer* explorer;
    void operator()() const noexcept { explorer->step(); }
  };
  enum class Phase { expand, dedup, index, link };

  [[nodiscard]] std::size_t partitionOf(
      std::uint64_t fingerprint) const noexcept {
    return static_cast<std::size_t>(
        ((fingerprint >> 32) * workers_.size()) >> 32);
  }
  [[nodiscard]] std::size_t chunkStart(std::size_t w) const noexcept {
    return frontier_.size() * w / workers_.size();
  }
  [[nodiscard]] std::uint32_t codeOf(std::size_t w,
                                     std::size_t id) const noexcept {
    return static_cast<std::uint32_t>(id * workers_.size() + w);
  }
  [[nodiscard]] const Candidate& candidateOf(
      std::uint32_t code) const noexcept {
    return workers_[code % workers_.size()]
        .candidates[code / workers_.size()];
  }

  // noexcept: a worker that threw would leave the others waiting at a
  // barrier forever, so an exception (a disabled action applied, memory
  // exhausted) ends the program instead.
  void work(std::size_t w) noexcept {
    while (!done_) {
      {
        CMC_PROF_SCOPE("mc.expand");
        expand(w);
        sync_.arrive_and_wait();
      }
      CMC_PROF_SCOPE("mc.merge");
      dedup(w);
      sync_.arrive_and_wait();
      index(w);
      sync_.arrive_and_wait();
      link(w);
      sync_.arrive_and_wait();
    }
  }

  // The phases, as run by worker (and partition owner) w.
  void expand(std::size_t w);
  void dedup(std::size_t w);
  void index(std::size_t w);
  void link(std::size_t w);

  // Serial steps, run by the last worker to reach each barrier.
  void step() noexcept;
  void plan();
  void finishLevel();
  void beginLevel();

  const std::uint64_t mask_;
  const std::uint32_t max_states_;
  ExploreResult& result_;
  std::vector<Worker> workers_;
  std::barrier<Step> sync_;

  // Written only by the serial steps (and `cut_*` by the one cutting
  // worker in phase C), read by the workers after the next barrier.
  Phase phase_ = Phase::expand;
  std::vector<SystemPtr> frontier_, next_frontier_;
  std::uint32_t level_start_ = 0;  // index of frontier_[0]
  std::uint32_t next_ = 1;         // states indexed before this level
  std::size_t cut_state_ = std::numeric_limits<std::size_t>::max();
  std::size_t cut_successor_ = 0;
  bool truncated_ = false;
  bool done_ = false;
  Clock::time_point phase_start_;
};

Explorer::Explorer(const PathSystem& initial, const ExploreLimits& limits,
                   ExploreResult& result)
    : mask_(limits.fingerprint_mask),
      // At least 1 so the initial state always gets its index.
      max_states_(static_cast<std::uint32_t>(
          std::clamp<std::size_t>(limits.max_states, 1,
                                  std::numeric_limits<std::uint32_t>::max() -
                                      1))),
      result_(result),
      workers_(std::max<std::size_t>(1, limits.threads)),
      sync_(static_cast<std::ptrdiff_t>(workers_.size()), Step{this}) {
  for (Worker& worker : workers_) {
    worker.outbox.resize(workers_.size());
    worker.firsts_from.resize(workers_.size());
  }
  Worker& first = workers_[0];
  initial.canonicalize(first.writer);
  const std::uint64_t fingerprint = stateHash(first.writer.bytes()) & mask_;
  StateArena::Record* record = first.arena.append(first.writer.bytes(), 0);
  workers_[partitionOf(fingerprint)].seen.insert(fingerprint, record);
  result_.bytes_canonical = record->size;
  frontier_.push_back(std::make_unique<PathSystem>(initial));
  result_.bits.push_back(StateBits{});
  result_.edges.emplace_back();
  result_.parent.push_back(0);
  result_.parent_action.emplace_back();
  beginLevel();
}

void Explorer::expand(std::size_t w) {
  Worker& self = workers_[w];
  self.systems.clear();  // last level's: all moved on by phase C
  self.candidates.clear();
  self.expanded.clear();
  self.successors.clear();
  self.local.clear();
  self.level_mark = self.arena.mark();
  for (std::vector<std::uint32_t>& box : self.outbox) box.clear();
  const std::size_t end = chunkStart(w + 1);
  for (std::size_t pos = chunkStart(w); pos < end; ++pos) {
    CMC_PROF_SCOPE("mc.expand_state");
    SystemPtr& node = frontier_[pos];
    const PathSystem& system = *node;
    system.enabledActions(self.actions);
    self.spare_limit = std::max(self.spare_limit, self.actions.size());
    for (const PathAction& action : self.actions) {
      if (self.scratch) {
        *self.scratch = system;
      } else {
        self.scratch = self.copyOf(system);
      }
      self.scratch->apply(action);
      self.writer.clear();
      {
        CMC_PROF_SCOPE("mc.canonicalize");
        self.scratch->canonicalize(self.writer);
      }
      const std::vector<std::uint8_t>& bytes = self.writer.bytes();
      std::uint64_t fingerprint;
      {
        CMC_PROF_SCOPE("mc.fingerprint");
        fingerprint = stateHash(bytes) & mask_;
      }
      const std::size_t partition = partitionOf(fingerprint);
      if (const StateArena::Record* known =
              workers_[partition].seen.find(fingerprint, bytes)) {
        self.successors.push_back(Successor{known->index, false});
      } else if (const StateArena::Record* mine =
                     self.local.find(fingerprint, bytes)) {
        // Until phase C a candidate's record holds its id, not an index.
        self.successors.push_back(Successor{mine->index, true});
      } else {
        const auto id = static_cast<std::uint32_t>(self.candidates.size());
        StateArena::Record* record = self.arena.append(bytes, id);
        self.local.insert(fingerprint, record);
        self.outbox[partition].push_back(id);
        self.candidates.push_back(Candidate{
            fingerprint, record, nullptr, 0, static_cast<std::uint32_t>(pos),
            static_cast<std::uint32_t>(self.successors.size()), action,
            false});
        self.systems.push_back(std::move(self.scratch));
        self.successors.push_back(Successor{id, true});
      }
    }
    self.expanded.push_back(
        Expanded{bitsOf(system, self.actions.empty()),
                 static_cast<std::uint32_t>(self.successors.size())});
    self.release(node);
  }
}

void Explorer::dedup(std::size_t w) {
  CMC_PROF_SCOPE("mc.dedup");
  Worker& owner = workers_[w];
  for (std::size_t v = 0; v < workers_.size(); ++v) {
    Worker& source = workers_[v];
    std::size_t firsts = 0;
    for (const std::uint32_t id : source.outbox[w]) {
      Candidate& candidate = source.candidates[id];
      const SeenSet::Claim claim =
          owner.seen.insert(candidate.fingerprint, candidate.own);
      if (claim.inserted) {
        // Later claims on these bytes in this phase find the code here.
        candidate.own->index = codeOf(v, id);
        ++firsts;
      }
      candidate.first = claim.record->index;
      candidate.collided = claim.collided;
    }
    owner.firsts_from[v] = firsts;
  }
}

void Explorer::index(std::size_t w) {
  CMC_PROF_SCOPE("mc.index");
  Worker& self = workers_[w];
  std::uint32_t next = self.index_base;
  std::size_t fresh = 0;
  self.collisions = 0;
  self.bytes = 0;
  // The candidates' bytes move down over those of the ones not indexed.
  self.arena.rewind(self.level_mark);
  for (std::size_t id = 0; id < self.candidates.size(); ++id) {
    Candidate& candidate = self.candidates[id];
    if (candidate.first != codeOf(w, id)) {
      // An earlier chunk reached it first.
      self.release(self.systems[id]);
      continue;
    }
    if (fresh == self.index_limit) {
      if (self.cuts) {
        cut_state_ = candidate.parent;
        cut_successor_ = candidate.successor;
      }
      break;
    }
    ++fresh;
    const std::uint32_t index = next++;
    self.bytes += candidate.own->size;
    candidate.kept = self.arena.keep(candidate.own);
    candidate.kept->index = index;
    result_.parent[index] = level_start_ + candidate.parent;
    result_.parent_action[index] = candidate.action;
    next_frontier_[index - next_] = std::move(self.systems[id]);
    self.collisions += candidate.collided ? 1 : 0;
  }
}

void Explorer::link(std::size_t w) {
  Worker& self = workers_[w];
  // As partition owner: point the slots of this level's indexed states at
  // where phase C moved their bytes.
  for (const Worker& source : workers_) {
    for (const std::uint32_t id : source.outbox[w]) {
      const Candidate& candidate = source.candidates[id];
      if (candidate.kept != nullptr) {
        self.seen.repoint(candidate.fingerprint, candidate.own,
                          candidate.kept);
      }
    }
  }
  self.transitions = 0;
  self.terminals = 0;
  const std::size_t start = chunkStart(w);
  std::uint32_t begin = 0;
  for (std::size_t k = 0; k < self.expanded.size(); ++k) {
    const std::size_t pos = start + k;
    if (pos > cut_state_) break;  // past the budget: left unexpanded
    CMC_PROF_SCOPE("mc.link_state");
    const Expanded& expanded = self.expanded[k];
    const auto state = static_cast<std::uint32_t>(level_start_ + pos);
    const std::size_t end =
        pos == cut_state_ ? cut_successor_ : expanded.successors_end;
    std::vector<std::uint32_t>& targets = result_.edges[state];
    if (expanded.bits.terminal) {
      targets.push_back(state);  // stutter
    } else {
      targets.reserve(end - begin);
      for (std::size_t s = begin; s < end; ++s) {
        const Successor& successor = self.successors[s];
        targets.push_back(
            successor.candidate
                ? candidateOf(self.candidates[successor.value].first)
                      .kept->index
                : successor.value);
      }
    }
    result_.bits[state] = expanded.bits;
    self.transitions += targets.size();
    self.terminals += expanded.bits.terminal ? 1 : 0;
    begin = expanded.successors_end;
  }
}

void Explorer::step() noexcept {
  switch (phase_) {
    case Phase::expand:
      result_.stats.expand_seconds += secondsSince(phase_start_);
      phase_start_ = Clock::now();
      phase_ = Phase::dedup;
      break;
    case Phase::dedup:
      plan();
      phase_ = Phase::index;
      break;
    case Phase::index:
      phase_ = Phase::link;
      break;
    case Phase::link:
      finishLevel();
      phase_ = Phase::expand;
      break;
  }
}

// Hands out this level's indices: worker v's level-first candidates get
// the range after workers 0..v-1's, as far as the state budget reaches.
void Explorer::plan() {
  std::size_t room = max_states_ - next_;
  std::uint32_t base = next_;
  for (std::size_t v = 0; v < workers_.size(); ++v) {
    std::size_t firsts = 0;
    for (const Worker& owner : workers_) firsts += owner.firsts_from[v];
    Worker& source = workers_[v];
    source.index_base = base;
    source.index_limit = std::min(firsts, room);
    source.cuts = !truncated_ && firsts > room;
    truncated_ = truncated_ || source.cuts;
    room -= source.index_limit;
    base += static_cast<std::uint32_t>(source.index_limit);
  }
  result_.bits.resize(base);  // value-init: expanded=false until linked
  result_.edges.resize(base);
  result_.parent.resize(base, 0);
  result_.parent_action.resize(base);
  next_frontier_.clear();  // emptied: its states went to spare lists
  next_frontier_.resize(base - next_);
}

void Explorer::finishLevel() {
  for (Worker& worker : workers_) {
    result_.transitions += worker.transitions;
    result_.terminals += worker.terminals;
    result_.stats.collisions += worker.collisions;
    result_.bytes_canonical += worker.bytes;
  }
  frontier_.swap(next_frontier_);
  level_start_ = next_;
  next_ += static_cast<std::uint32_t>(frontier_.size());
  result_.stats.merge_seconds += secondsSince(phase_start_);
  result_.truncated = truncated_;
  done_ = truncated_ || frontier_.empty();
  if (!done_) beginLevel();
}

void Explorer::beginLevel() {
  ++result_.stats.frontier_depth;
  result_.stats.peak_frontier =
      std::max(result_.stats.peak_frontier, frontier_.size());
  phase_start_ = Clock::now();
}

}  // namespace

std::set<std::uint32_t> quiescentObservables(const ExploreResult& graph) {
  std::set<std::uint32_t> out;
  for (const StateBits& bits : graph.bits) {
    if (!bits.expanded) continue;  // truncated leftovers carry no valid bits
    if (bits.quiescent && bits.allAttached) out.insert(bits.observable());
  }
  return out;
}

std::string ExploreResult::actionLabel(std::uint32_t state) const {
  return state == 0 ? std::string("<init>") : parent_action[state].toString();
}

std::vector<std::string> ExploreResult::traceTo(std::uint32_t state) const {
  std::vector<std::string> trace;
  std::uint32_t current = state;
  while (current != 0) {
    trace.push_back(actionLabel(current));
    current = parent[current];
  }
  std::reverse(trace.begin(), trace.end());
  return trace;
}

ExploreResult explorePath(GoalKind left, GoalKind right, std::size_t flowlinks,
                          const ExploreLimits& limits) {
  PathSystem initial(PathSystem::makeGoal(left, PathEnd::left),
                     PathSystem::makeGoal(right, PathEnd::right), flowlinks,
                     limits.defer_attach);
  initial.setChaosBudget(limits.defer_attach ? limits.chaos_budget : 0);
  initial.setModifyBudget(limits.modify_budget);
  if (limits.fault_budget > 0) {
    // Faulty exploration (docs/FAULTS.md): the adversary may drop or
    // duplicate up to fault_budget in-flight messages, and the parties run
    // in stabilization mode so the global refresh action can repair the
    // damage. Budgets live in the canonical state, so every cycle of the
    // resulting graph is fault-free: liveness verdicts read as "after
    // injection ceases, the path self-stabilizes to its Section V spec".
    initial.setFaultBudget(limits.fault_budget);
    initial.enableStabilization(true);
  }
  return explore(initial, limits);
}

ExploreResult explore(const PathSystem& initial, const ExploreLimits& limits) {
  const auto start = Clock::now();
  ExploreResult result;
  {
    Explorer explorer(initial, limits, result);
    explorer.run();
  }  // the seen tables, arenas and level buffers are released on the clock
  result.seconds = secondsSince(start);

  ExploreStats& stats = result.stats;
  stats.threads = std::max<std::size_t>(1, limits.threads);
  stats.states = result.bits.size();
  stats.transitions = result.transitions;
  stats.terminals = result.terminals;
  // Every recorded edge that is neither a stutter nor the discovery of a
  // state (all but the initial one) found a known state.
  stats.dedup_hits = result.transitions - result.terminals - (stats.states - 1);
  stats.bytes_retained = result.bytes_canonical;
  stats.truncated = result.truncated;
  stats.seconds = result.seconds;
  return result;
}

}  // namespace cmc
