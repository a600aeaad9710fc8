// Tests for the model checker: exploration determinism, temporal checking
// on known graphs, the paper's 12-model verification suite (small budgets
// here; the full-budget campaign is bench_verification_table), and negative
// checks proving the checker can find violations.
#include <gtest/gtest.h>

#include "mc/seen_set.hpp"
#include "mc/verification.hpp"

namespace cmc {
namespace {

using K = GoalKind;

ExploreLimits quick() {
  ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 0;
  limits.max_states = 500'000;
  return limits;
}

TEST(Explore, DeterministicAcrossRuns) {
  auto a = explorePath(K::openSlot, K::holdSlot, 0, quick());
  auto b = explorePath(K::openSlot, K::holdSlot, 0, quick());
  EXPECT_EQ(a.states(), b.states());
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.terminals, b.terminals);
}

TEST(Explore, NoChaosOpenOpenIsTiny) {
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::openSlot, K::openSlot, 0, limits);
  EXPECT_LT(graph.states(), 50u);
  EXPECT_GE(graph.terminals, 1u);
  EXPECT_FALSE(graph.truncated);
}

TEST(Explore, TerminalsHaveSelfLoops) {
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::closeSlot, K::closeSlot, 0, limits);
  bool found_terminal = false;
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    if (!graph.bits[s].terminal) continue;
    found_terminal = true;
    EXPECT_EQ(graph.edges[s].size(), 1u);
    EXPECT_EQ(graph.edges[s][0], s);
  }
  EXPECT_TRUE(found_terminal);
}

TEST(Explore, TruncationIsReported) {
  ExploreLimits limits = quick();
  limits.max_states = 100;
  auto graph = explorePath(K::openSlot, K::openSlot, 1, limits);
  EXPECT_TRUE(graph.truncated);
  EXPECT_EQ(graph.states(), 100u);
}

TEST(Explore, TruncatedStatesAreMarkedUnexpanded) {
  ExploreLimits limits = quick();
  limits.max_states = 100;
  auto graph = explorePath(K::openSlot, K::openSlot, 1, limits);
  ASSERT_TRUE(graph.truncated);
  std::size_t unexpanded = 0;
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    if (graph.bits[s].expanded) continue;
    ++unexpanded;
    // Unexpanded states must contribute nothing the verifiers could read:
    // no outgoing edges, and no predicate bits.
    EXPECT_TRUE(graph.edges[s].empty());
    EXPECT_FALSE(graph.bits[s].terminal);
  }
  EXPECT_GT(unexpanded, 0u);
  // The safety check and the observables projection skip unexpanded states
  // instead of reading default-constructed bits: a default StateBits is
  // quiescent=false so it would also be skipped by accident, but the
  // expanded flag makes that robust rather than lucky.
  EXPECT_FALSE(checkSafety(graph).has_value());
  EXPECT_NO_FATAL_FAILURE({ auto observables = quiescentObservables(graph); (void)observables; });
}

TEST(Explore, FullRunMarksEveryStateExpanded) {
  auto graph = explorePath(K::openSlot, K::holdSlot, 0, quick());
  ASSERT_FALSE(graph.truncated);
  for (std::uint32_t s = 0; s < graph.states(); ++s) {
    EXPECT_TRUE(graph.bits[s].expanded) << "state " << s;
  }
}

// ------------------------------------------------------- collision safety

TEST(CollisionSafety, SeenSetKeepsCollidingStatesDistinct) {
  StateArena arena;
  SeenSet seen;
  std::size_t hits = 0;
  std::size_t collisions = 0;
  std::size_t retained = 0;
  std::uint32_t next_index = 0;
  // The explorer's use of a partition: a record per encoding, stored under
  // the next index if its bytes are new.
  auto insert = [&](std::uint64_t fingerprint,
                    const std::vector<std::uint8_t>& bytes) {
    const SeenSet::Claim claim =
        seen.insert(fingerprint, arena.append(bytes, next_index));
    if (claim.inserted) {
      ++next_index;
      retained += bytes.size();
    } else {
      ++hits;
    }
    collisions += claim.collided ? 1 : 0;
    return claim;
  };
  // Two different canonical encodings forced onto the same fingerprint.
  const std::vector<std::uint8_t> a{1, 2, 3};
  const std::vector<std::uint8_t> b{4, 5, 6, 7};
  const auto first = insert(42, a);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(first.collided);
  const auto second = insert(42, b);
  EXPECT_TRUE(second.inserted);
  EXPECT_TRUE(second.collided);
  EXPECT_NE(first.record->index, second.record->index);
  EXPECT_EQ(collisions, 1u);
  // Re-inserting either encoding is a dedup hit on its own index, and a
  // lookup finds each under the shared fingerprint.
  const auto again = insert(42, a);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.record->index, first.record->index);
  EXPECT_EQ(seen.find(42, a), first.record);
  EXPECT_EQ(seen.find(42, b), second.record);
  EXPECT_EQ(seen.find(43, a), nullptr);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(retained, a.size() + b.size());
}

TEST(CollisionSafety, SeenSetEnforcesStateBudget) {
  // The budget is applied where indices are handed out: the explorer's
  // phase C. With room for two states, exactly two get an index, the next
  // fresh successor is refused, and no edge points past the budget.
  ExploreLimits limits = quick();
  limits.max_states = 2;
  const auto graph = explorePath(K::openSlot, K::openSlot, 1, limits);
  EXPECT_TRUE(graph.truncated);
  EXPECT_EQ(graph.states(), 2u);
  for (const auto& targets : graph.edges) {
    for (const std::uint32_t target : targets) EXPECT_LT(target, 2u);
  }
  EXPECT_FALSE(graph.bits[1].expanded);
}

TEST(CollisionSafety, MaskedFingerprintsDoNotMergeStates) {
  // Regression for the historical bug: dedup on the bare 64-bit fingerprint
  // merged any two states that collided. Coarsening the fingerprint to 8
  // bits forces constant collisions; byte verification must keep every
  // state distinct, so all counts match the full-fingerprint run exactly.
  ExploreLimits limits = quick();
  const auto full = explorePath(K::openSlot, K::holdSlot, 0, limits);
  EXPECT_EQ(full.stats.collisions, 0u);
  limits.fingerprint_mask = 0xFF;
  const auto masked = explorePath(K::openSlot, K::holdSlot, 0, limits);
  EXPECT_GT(masked.stats.collisions, 0u);
  EXPECT_EQ(masked.states(), full.states());
  EXPECT_EQ(masked.transitions, full.transitions);
  EXPECT_EQ(masked.terminals, full.terminals);
  EXPECT_EQ(quiescentObservables(masked), quiescentObservables(full));
}

TEST(CollisionSafety, MaskedVerdictsMatchUnmasked) {
  ExploreLimits limits = quick();
  limits.fingerprint_mask = 0xFF;
  for (const auto& config : paperVerificationSuite()) {
    if (config.flowlinks > 0) continue;  // keep this test fast
    auto outcome = verifyPath(config, limits);
    EXPECT_TRUE(outcome.ok()) << outcome.failure;
    EXPECT_GT(outcome.stats.collisions, 0u);
  }
}

// ------------------------------------------------------- explorer metrics

TEST(ExploreStatsTest, CountersAreCoherent) {
  auto graph = explorePath(K::openSlot, K::holdSlot, 0, quick());
  const ExploreStats& stats = graph.stats;
  EXPECT_EQ(stats.threads, 1u);
  EXPECT_EQ(stats.states, graph.states());
  EXPECT_EQ(stats.transitions, graph.transitions);
  EXPECT_EQ(stats.terminals, graph.terminals);
  EXPECT_EQ(stats.bytes_retained, graph.bytes_canonical);
  EXPECT_GT(stats.frontier_depth, 0u);
  EXPECT_GT(stats.peak_frontier, 0u);
  EXPECT_GE(stats.dedupRatio(), 0.0);
  EXPECT_LE(stats.dedupRatio(), 1.0);
  // Every recorded non-stutter edge either discovered a state or hit the
  // dedup set; stutters account for the terminals.
  EXPECT_EQ(stats.dedup_hits + stats.states + stats.terminals,
            stats.transitions + 1)  // +1: the initial state is not an edge
      << "edge accounting broke";
  EXPECT_FALSE(stats.truncated);
  const std::string json = stats.json("test", "openSlot/holdSlot/0");
  EXPECT_NE(json.find("\"states\":"), std::string::npos);
  EXPECT_NE(json.find("\"collisions\":"), std::string::npos);
  EXPECT_NE(json.find("\"truncated\":false"), std::string::npos);
}

TEST(Explore, TraceReconstructsFromInit) {
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::openSlot, K::holdSlot, 0, limits);
  ASSERT_GT(graph.states(), 1u);
  auto trace = graph.traceTo(static_cast<std::uint32_t>(graph.states() - 1));
  EXPECT_FALSE(trace.empty());
}

TEST(Explore, FlowlinkBlowupIsMultiplicative) {
  // The paper reports that adding one flowlink multiplies memory ~300x and
  // time ~1000x. Reproduce the shape: a large multiplicative state-space
  // growth per flowlink.
  auto flat = explorePath(K::openSlot, K::openSlot, 0, quick());
  auto linked = explorePath(K::openSlot, K::openSlot, 1, quick());
  EXPECT_GT(linked.states(), flat.states() * 10);
  EXPECT_GT(linked.transitions, flat.transitions * 10);
}

// ------------------------------------------------------ spec assignments

TEST(Specs, PaperAssignment) {
  EXPECT_EQ(specFor(K::closeSlot, K::closeSlot), PathSpec::eventuallyBothClosed);
  EXPECT_EQ(specFor(K::closeSlot, K::holdSlot), PathSpec::eventuallyBothClosed);
  EXPECT_EQ(specFor(K::holdSlot, K::closeSlot), PathSpec::eventuallyBothClosed);
  EXPECT_EQ(specFor(K::closeSlot, K::openSlot), PathSpec::neverBothFlowing);
  EXPECT_EQ(specFor(K::openSlot, K::openSlot), PathSpec::recurrentlyBothFlowing);
  EXPECT_EQ(specFor(K::openSlot, K::holdSlot), PathSpec::recurrentlyBothFlowing);
  EXPECT_EQ(specFor(K::holdSlot, K::holdSlot), PathSpec::closedOrFlowing);
}

TEST(Specs, SuiteHasTwelveModels) {
  auto suite = paperVerificationSuite();
  ASSERT_EQ(suite.size(), 12u);
  std::size_t with_link = 0;
  for (const auto& c : suite) with_link += c.flowlinks;
  EXPECT_EQ(with_link, 6u);
}

// ------------------------------------------- verification (small budgets)

class VerifySuite : public ::testing::TestWithParam<int> {};

TEST_P(VerifySuite, ModelSatisfiesSafetyAndSpec) {
  const auto suite = paperVerificationSuite();
  const auto config = suite[static_cast<std::size_t>(GetParam())];
  auto outcome = verifyPath(config, quick());
  EXPECT_TRUE(outcome.safety_ok) << outcome.failure;
  EXPECT_TRUE(outcome.spec_ok) << outcome.failure;
  EXPECT_FALSE(outcome.truncated);
  EXPECT_GT(outcome.states, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperModels, VerifySuite, ::testing::Range(0, 12));

TEST(VerifyWithPerturbations, OpenOpenSurvivesModifies) {
  ExploreLimits limits = quick();
  limits.modify_budget = 1;
  auto outcome = verifyPath({K::openSlot, K::openSlot, 0}, limits);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

TEST(VerifyWithPerturbations, HoldHoldSurvivesModifies) {
  ExploreLimits limits = quick();
  limits.modify_budget = 1;
  auto outcome = verifyPath({K::holdSlot, K::holdSlot, 0}, limits);
  EXPECT_TRUE(outcome.ok()) << outcome.failure;
}

// --------------------------------------------------------- negative tests
// The checker must be able to FIND violations; check wrong specs against
// correct systems.

TEST(NegativeChecks, OpenOpenViolatesBothClosedStability) {
  auto graph = explorePath(K::openSlot, K::openSlot, 0, quick());
  // An open/open path converges to flowing, so <>[] bothClosed must fail.
  auto violation = checkSpec(graph, PathSpec::eventuallyBothClosed);
  ASSERT_TRUE(violation.has_value());
  EXPECT_FALSE(graph.traceTo(violation->witness_state).empty());
}

TEST(NegativeChecks, OpenOpenViolatesNeverBothFlowing) {
  auto graph = explorePath(K::openSlot, K::openSlot, 0, quick());
  EXPECT_TRUE(checkSpec(graph, PathSpec::neverBothFlowing).has_value());
}

TEST(NegativeChecks, CloseCloseViolatesRecurrentFlowing) {
  auto graph = explorePath(K::closeSlot, K::closeSlot, 0, quick());
  EXPECT_TRUE(checkSpec(graph, PathSpec::recurrentlyBothFlowing).has_value());
}

TEST(NegativeChecks, CloseOpenSatisfiesDisjunctionVacuouslyFails) {
  // close/open livelocks outside bothClosed and never reaches bothFlowing:
  // the hold/hold disjunction must FAIL on it (the openslot retry cycle is
  // not bothClosed at every state and never bothFlowing).
  auto graph = explorePath(K::closeSlot, K::openSlot, 0, quick());
  EXPECT_TRUE(checkSpec(graph, PathSpec::closedOrFlowing).has_value());
}

// ----------------------------------------------------- temporal primitives

TEST(TemporalPrimitives, SelfLoopCountsAsCycle) {
  // Build a minimal graph by exploring the trivial close/close system and
  // checking that its terminal (bothClosed) self-loop satisfies <>[]
  // bothClosed but violates []<> bothFlowing.
  ExploreLimits limits = quick();
  limits.chaos_budget = 0;
  limits.defer_attach = false;
  auto graph = explorePath(K::closeSlot, K::closeSlot, 0, limits);
  EXPECT_FALSE(checkEventuallyAlways(
                   graph, [](const StateBits& b) { return b.bothClosed; })
                   .has_value());
  EXPECT_TRUE(checkAlwaysEventually(
                  graph, [](const StateBits& b) { return b.bothFlowing; })
                  .has_value());
}

TEST(TemporalPrimitives, SafetyHoldsOnAllPaperModels) {
  for (const auto& config : paperVerificationSuite()) {
    if (config.flowlinks > 0) continue;  // keep this test fast
    auto graph = explorePath(config.left, config.right, 0, quick());
    EXPECT_FALSE(checkSafety(graph).has_value())
        << toString(config.left) << "/" << toString(config.right);
  }
}

}  // namespace
}  // namespace cmc
