#include "mc/state_graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
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

// Per-state output of one expansion: bits plus successor indices in action
// order. Produced by workers, committed to the result single-threaded.
struct Expansion {
  std::uint32_t index = 0;
  StateBits bits{};
  bool terminal = false;
  std::vector<std::uint32_t> targets;
};

// A freshly discovered state. The record is owned by the batch of the level
// that discovered it and is what the next level's frontier points at; its
// system lives here only until that one expansion, which resets it.
struct Discovery {
  std::uint32_t index;
  std::uint32_t parent;
  PathAction action;
  std::optional<PathSystem> system;
};

struct WorkerBatch {
  std::vector<Expansion> expansions;
  std::vector<Discovery> discoveries;
};

// Buffers one worker reuses for every successor it builds, so their
// capacity survives from one successor, state and level to the next: the
// canonical-byte writer, and the successor that is copy-assigned from the
// expanded state (optional only because PathSystem has no default value).
struct WorkerScratch {
  ByteWriter writer;
  std::optional<PathSystem> successor;
};

// Expand frontier nodes until the shared cursor runs off the end (or the
// state budget dies). Claiming distinct frontier slots via the cursor means
// each node has exactly one expander, so resetting its system afterwards
// (to free the PathSystem early) is race-free; the discovery records the
// frontier points into belong to the previous level and are neither moved
// nor resized while workers run. A successor is copied out of the scratch
// buffer only when the seen-set hands it a fresh index.
void expandFrontier(const std::vector<Discovery*>& frontier,
                    std::atomic<std::size_t>& cursor, SeenSet& seen,
                    std::uint64_t fingerprint_mask,
                    std::atomic<bool>& out_of_budget, WorkerScratch& scratch,
                    WorkerBatch& out) {
  for (;;) {
    const std::size_t slot = cursor.fetch_add(1, std::memory_order_relaxed);
    if (slot >= frontier.size()) return;
    if (out_of_budget.load(std::memory_order_relaxed)) return;
    Discovery& node = *frontier[slot];
    // Profiling sites here record only on threads with an installed table:
    // the single-thread deterministic path profiles fully; parallel workers
    // (no thread-local table) record nothing and race on nothing.
    CMC_PROF_SCOPE("mc.expand_state");
    const PathSystem& system = *node.system;
    const std::vector<PathAction> actions = system.enabledActions();
    Expansion expansion;
    expansion.index = node.index;
    expansion.bits = bitsOf(system, actions.empty());
    expansion.terminal = actions.empty();
    if (expansion.terminal) {
      expansion.targets.push_back(node.index);  // stutter
    } else {
      expansion.targets.reserve(actions.size());
      for (const PathAction& action : actions) {
        scratch.successor = system;
        scratch.successor->apply(action);
        scratch.writer.clear();
        {
          CMC_PROF_SCOPE("mc.canonicalize");
          scratch.successor->canonicalize(scratch.writer);
        }
        const std::vector<std::uint8_t>& bytes = scratch.writer.bytes();
        std::uint64_t fp;
        {
          CMC_PROF_SCOPE("mc.fingerprint");
          fp = stateHash(bytes) & fingerprint_mask;
        }
        const SeenSet::Outcome got = seen.insert(fp, bytes);
        if (got.index == SeenSet::kNoIndex) {
          out_of_budget.store(true, std::memory_order_relaxed);
          break;  // keep the edges recorded so far for this state
        }
        if (got.inserted) {
          out.discoveries.push_back(
              Discovery{got.index, node.index, action, *scratch.successor});
        }
        expansion.targets.push_back(got.index);
      }
    }
    node.system.reset();
    out.expansions.push_back(std::move(expansion));
  }
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
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();
  auto elapsed = [](Clock::time_point since) {
    return std::chrono::duration<double>(Clock::now() - since).count();
  };

  ExploreResult result;
  const std::size_t thread_count = std::max<std::size_t>(1, limits.threads);
  // At least 1 so the initial state always gets its index.
  const std::uint32_t max_states = static_cast<std::uint32_t>(
      std::clamp<std::size_t>(limits.max_states, 1, SeenSet::kNoIndex - 1));

  SeenSet seen(max_states);
  // State storage: the frontier points at the discovery records of the
  // level before it, and those records are the only owners of PathSystem
  // values. Each system is reset as soon as it has been expanded, so at any
  // moment the live systems are the unexpanded part of one level plus the
  // states the current level has discovered; bits, edges and parents are
  // the per-state record, and `seen` keeps the canonical bytes. `owners`
  // holds the frontier's records, `found` collects the next level's; the
  // two swap after each merge, so their capacity is reused.
  std::vector<WorkerBatch> owners(thread_count);
  std::vector<WorkerBatch> found(thread_count);
  std::vector<WorkerScratch> scratch(thread_count);

  {
    ByteWriter w;
    initial.canonicalize(w);
    seen.insert(stateHash(w.bytes()) & limits.fingerprint_mask, w.bytes());
  }
  owners[0].discoveries.push_back(Discovery{0, 0, PathAction{}, initial});
  result.bits.push_back(StateBits{});
  result.edges.emplace_back();
  result.parent.push_back(0);
  result.parent_action.emplace_back();

  std::atomic<bool> out_of_budget{false};
  std::vector<Discovery*> frontier{&owners[0].discoveries.front()};

  while (!frontier.empty() && !out_of_budget.load(std::memory_order_relaxed)) {
    ++result.stats.frontier_depth;
    result.stats.peak_frontier =
        std::max(result.stats.peak_frontier, frontier.size());

    const auto expand_start = Clock::now();
    std::atomic<std::size_t> cursor{0};
    {
      CMC_PROF_SCOPE("mc.expand");
      if (thread_count == 1) {
        // Deterministic fallback: frontier slots in order, indices assigned
        // in FIFO discovery order — identical to the historical explorer.
        expandFrontier(frontier, cursor, seen, limits.fingerprint_mask,
                       out_of_budget, scratch[0], found[0]);
      } else {
        std::vector<std::thread> workers;
        workers.reserve(thread_count);
        for (std::size_t t = 0; t < thread_count; ++t) {
          workers.emplace_back([&, t] {
            expandFrontier(frontier, cursor, seen, limits.fingerprint_mask,
                           out_of_budget, scratch[t], found[t]);
          });
        }
        for (std::thread& worker : workers) worker.join();
      }
    }
    result.stats.expand_seconds += elapsed(expand_start);

    const auto merge_start = Clock::now();
    CMC_PROF_SCOPE("mc.merge");
    const std::uint32_t total = seen.size();
    result.bits.resize(total);  // value-init: expanded=false until committed
    result.edges.resize(total);
    result.parent.resize(total, 0);
    result.parent_action.resize(total);
    frontier.clear();
    for (WorkerBatch& batch : found) {
      for (Discovery& d : batch.discoveries) {
        result.parent[d.index] = d.parent;
        result.parent_action[d.index] = d.action;
        frontier.push_back(&d);
      }
      for (Expansion& e : batch.expansions) {
        result.bits[e.index] = e.bits;
        result.transitions += e.targets.size();
        if (e.terminal) ++result.terminals;
        result.edges[e.index] = std::move(e.targets);
      }
      batch.expansions.clear();
    }
    // Low-index-first keeps expansion near-FIFO under multiple workers (and
    // is a no-op for one worker, whose discoveries arrive already sorted).
    if (thread_count > 1) {
      std::sort(frontier.begin(), frontier.end(),
                [](const Discovery* a, const Discovery* b) {
                  return a->index < b->index;
                });
    }
    // The new frontier's records now own its systems; the old owners are
    // all expanded and become next level's empty output.
    std::swap(owners, found);
    for (WorkerBatch& batch : found) batch.discoveries.clear();
    result.stats.merge_seconds += elapsed(merge_start);
  }

  result.truncated = out_of_budget.load(std::memory_order_relaxed);
  result.bytes_canonical = seen.bytesRetained();
  result.seconds = elapsed(start_time);

  result.stats.threads = thread_count;
  result.stats.states = result.bits.size();
  result.stats.transitions = result.transitions;
  result.stats.terminals = result.terminals;
  result.stats.dedup_hits = seen.hits();
  result.stats.collisions = seen.collisions();
  result.stats.bytes_retained = seen.bytesRetained();
  result.stats.truncated = result.truncated;
  result.stats.seconds = result.seconds;
  return result;
}

}  // namespace cmc
