// Allocation-regression gates for the signal hot path and the explorer.
//
// The profiler's replacement operator new/delete charges every heap
// allocation to the innermost open profiling span, which makes allocation
// counts per site testable. The signal gate pins the hot-path allocation
// budget after the small-buffer/interning/pooled-event-loop refactor:
//
//   site                 before     now      budget
//   sim.deliver_tunnel   ~3.6/op             <= 1.0 allocs per delivered signal
//   sim.process_output   ~3.0/op             <= 1.0 allocs per output-processing run
//   sim.stimulus         1.08/op    0.52/op  <= 0.75 allocs per box stimulus
//   loop.dispatch        ~1.5/op             <= 1.5 allocs per dispatched event
//
// "Before" numbers were measured on the same workload prior to the
// refactor (std::function event handlers, vector codec lists, string
// captures in delivery lambdas); for sim.stimulus, prior to draining box
// outputs into one reused buffer (Box::drainOutputInto), when every drain
// left the box a fresh Output whose vectors allocated again. If a future change reintroduces per-signal
// heap churn — a bigger capture than the event-node inline capacity, a
// string built per delivery, a descriptor clone — this test fails before
// the throughput regression reaches a release.
//
// The explorer gate pins the cost of one explored state. Workload: one
// profiled threads=1 explore of openSlot/openSlot with no flowlink,
// chaos_budget=1 and modify_budget=1 (13,470 states, 18 levels; the
// explorer's sites record on the calling thread, which is worker 0):
//
//   site              op          before     now       budget
//   mc.expand_state   state       10.04      3.36      <= 5
//   mc.canonicalize   successor   0.0004     0.0001    <= 0.01
//   mc.link_state     state       -          1.00      <= 1
//   mc.expand         level       -          0.11      <= 1
//   mc.merge          level       -          3.39      <= 8
//   mc.dedup          level       -          0.28      <= 1
//   mc.index          level       -          0         <= 1
//
// "Before" for mc.expand_state is the explorer that built a fresh
// enabled-action list for every state and copy-constructed every successor
// new to the level (14.05 with the earlier lock-striped hash-map seen set,
// whose edge lists were allocated here too); for the other sites it is that
// hash-map explorer, which had no per-state merge site.
//
// mc.expand_state counts the allocations made inside it but outside its
// child sites. The action list is a per-worker buffer, and a new successor
// is assigned over a PathSystem the worker recycled, so neither allocates
// once the level is under way. What is left is the new systems a worker
// needs while the frontier grows (about 1.8 allocs/op here, where the
// frontier is large next to the state count) and the outboxes that
// applying an action fills inside the core layer (about 0.65 per
// successor). The seen-set entry for a state's bytes
// does not allocate (flat tables over arena blocks), and the edge list is
// allocated in mc.link_state, where it is resolved: exactly one allocation
// per state. There are 2.34 successors per state here, so the 1.64
// allocs/op of headroom is less than one more allocation per successor
// would add. The per-level sites (phase A's setup, the merge's index plan
// and result growth, phase B's table growth, phase C's indexing) allocate
// a few times per level at most; an allocation per state or candidate
// there would read in the hundreds.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/state_graph.hpp"
#include "obs/profiler.hpp"

namespace cmc {
namespace {

struct SiteBudget {
  const char* site;
  double max_allocs_per_op;
};

// One profiled single-shard run, sized to amortize warm-up growth (slab,
// metric registries, route maps) across enough signals that steady-state
// behavior dominates.
obs::ProfileReport profiledRun() {
  load::WorkloadSpec w;
  w.master_seed = 7;
  w.calls = 200;
  w.arrivals_per_s = 200.0;
  w.flowlink_fraction = 0.5;

  load::LoadConfig cfg;
  cfg.shards = 1;
  cfg.profile = true;
  load::ShardedRuntime rt(cfg);
  rt.run(w);
  return rt.profileReport();
}

// Checks every budget against the report's per-site totals (a site can
// appear under several calling contexts; its nodes are summed).
void expectWithinBudgets(const obs::ProfileReport& report,
                         std::initializer_list<SiteBudget> budgets) {
  for (const SiteBudget& budget : budgets) {
    std::uint64_t calls = 0;
    std::uint64_t allocs = 0;
    for (const auto& node : report.nodes()) {
      if (node.site == budget.site) {
        calls += node.calls;
        allocs += node.allocs;
      }
    }
    ASSERT_GT(calls, 0u) << "site " << budget.site
                         << " never hit — did the workload change?";
    const double per_op = static_cast<double>(allocs) /
                          static_cast<double>(calls);
    EXPECT_LE(per_op, budget.max_allocs_per_op)
        << "site " << budget.site << ": " << allocs << " allocs over "
        << calls << " calls = " << per_op
        << " allocs/op — allocation budget exceeded";
  }
}

TEST(AllocBudget, HotPathSitesStayWithinBudget) {
  expectWithinBudgets(profiledRun(), {{"sim.deliver_tunnel", 1.0},
                                      {"sim.process_output", 1.0},
                                      {"sim.stimulus", 0.75},
                                      {"loop.dispatch", 1.5}});
}

TEST(AllocBudget, ExplorerSitesStayWithinBudget) {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.threads = 1;  // the explorer's sites record on the calling thread
  obs::ProfileTable table("alloc_budget.mc");
  obs::setThreadProfiler(&table);
  const ExploreResult graph =
      explorePath(GoalKind::openSlot, GoalKind::openSlot, 0, limits);
  obs::setThreadProfiler(nullptr);
  ASSERT_EQ(graph.states(), 13470u);
  expectWithinBudgets(table.report(), {{"mc.expand_state", 5.0},
                                       {"mc.canonicalize", 0.01},
                                       {"mc.link_state", 1.0},
                                       {"mc.expand", 1.0},
                                       {"mc.merge", 8.0},
                                       {"mc.dedup", 1.0},
                                       {"mc.index", 1.0}});
}

TEST(AllocBudget, DeliveryVolumeIsRepresentative) {
  // Guard the gate itself: if a workload tweak quietly shrinks the number
  // of delivered signals, the budget above would be testing noise. Require
  // a minimum volume so per-op averages are meaningful.
  const obs::ProfileReport report = profiledRun();
  std::uint64_t deliveries = 0;
  for (const auto& node : report.nodes()) {
    if (node.site == "sim.deliver_tunnel") deliveries += node.calls;
  }
  EXPECT_GE(deliveries, 1000u);
}

}  // namespace
}  // namespace cmc
