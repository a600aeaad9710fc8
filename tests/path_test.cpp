// Integration tests over whole signaling paths (PathSystem): the six path
// types of paper Section V, transparency of flowlinks, muting end to end,
// and goal replacement mid-flight.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/path.hpp"

namespace cmc {
namespace {

using K = GoalKind;

PathSystem makePath(K left, K right, std::size_t flowlinks) {
  return PathSystem(PathSystem::makeGoal(left, PathEnd::left),
                    PathSystem::makeGoal(right, PathEnd::right), flowlinks);
}

// ------------------------------------------------ path types, no flowlinks

TEST(PathTypes, OpenOpenConvergesToBothFlowing) {
  auto path = makePath(K::openSlot, K::openSlot, 0);
  path.run();
  EXPECT_TRUE(path.quiescent());
  EXPECT_TRUE(path.bothFlowing());
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
}

TEST(PathTypes, OpenHoldConvergesToBothFlowing) {
  auto path = makePath(K::openSlot, K::holdSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathTypes, HoldOpenConvergesToBothFlowing) {
  auto path = makePath(K::holdSlot, K::openSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathTypes, CloseCloseStaysBothClosed) {
  auto path = makePath(K::closeSlot, K::closeSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST(PathTypes, CloseHoldStaysBothClosed) {
  auto path = makePath(K::closeSlot, K::holdSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST(PathTypes, HoldHoldStaysBothClosed) {
  // Neither end originates: the path rests in bothClosed (the stability
  // disjunct of the holdSlot/holdSlot specification).
  auto path = makePath(K::holdSlot, K::holdSlot, 0);
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST(PathTypes, CloseOpenNeverFlowsAndKeepsRetrying) {
  auto path = makePath(K::closeSlot, K::openSlot, 0);
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  EXPECT_TRUE(path.bothClosed());
  // The openslot wants to retry (and would livelock if fired forever).
  EXPECT_TRUE(retryPending(path.endpointGoal(PathEnd::right)));
  // One retry round: still no flow.
  path.fireRetry(PathEnd::right);
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  EXPECT_TRUE(retryPending(path.endpointGoal(PathEnd::right)));
}

// ------------------------------------------------- path types, 1 flowlink

class PathTypesLinked : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PathTypesLinked, OpenOpenFlowsThroughFlowlinks) {
  auto path = makePath(K::openSlot, K::openSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.quiescent());
  EXPECT_TRUE(path.bothFlowing());
  for (std::size_t i = 0; i < path.flowlinkCount(); ++i) {
    EXPECT_EQ(path.flowlinkSlot(i, Side::A).state(), ProtocolState::flowing);
    EXPECT_EQ(path.flowlinkSlot(i, Side::B).state(), ProtocolState::flowing);
  }
}

TEST_P(PathTypesLinked, OpenHoldFlowsThroughFlowlinks) {
  auto path = makePath(K::openSlot, K::holdSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST_P(PathTypesLinked, CloseOpenNeverFlowsThroughFlowlinks) {
  auto path = makePath(K::closeSlot, K::openSlot, GetParam());
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  // The whole path must come back down: every interior slot dead.
  for (std::size_t i = 0; i < path.flowlinkCount(); ++i) {
    EXPECT_TRUE(isDead(path.flowlinkSlot(i, Side::A).state()));
    EXPECT_TRUE(isDead(path.flowlinkSlot(i, Side::B).state()));
  }
}

TEST_P(PathTypesLinked, CloseCloseStaysDownThroughFlowlinks) {
  auto path = makePath(K::closeSlot, K::closeSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

TEST_P(PathTypesLinked, HoldHoldRestsClosedThroughFlowlinks) {
  auto path = makePath(K::holdSlot, K::holdSlot, GetParam());
  path.run();
  EXPECT_TRUE(path.bothClosed());
}

INSTANTIATE_TEST_SUITE_P(FlowlinkCounts, PathTypesLinked,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------------------ transparency

TEST(PathTransparency, DescriptorsTravelEndToEndUnchanged) {
  auto path = makePath(K::openSlot, K::openSlot, 3);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  // The descriptor the right endpoint received is the one the left minted,
  // byte for byte, despite three intervening flowlink boxes.
  const auto& l = path.endpointSlot(PathEnd::left);
  const auto& r = path.endpointSlot(PathEnd::right);
  EXPECT_EQ(r.remoteDescriptor()->id, l.lastDescriptorSent());
  EXPECT_EQ(l.remoteDescriptor()->id, r.lastDescriptorSent());
}

TEST(PathTransparency, SelectorsCarrySenderAddressEndToEnd) {
  auto path = makePath(K::openSlot, K::openSlot, 2);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  const auto& l = path.endpointSlot(PathEnd::left);
  // The selector the left end received was minted by the right endpoint
  // and carries the right endpoint's media address (10.0.1.1).
  EXPECT_EQ(l.lastSelectorReceived()->sender,
            MediaAddress::parse("10.0.1.1", 6001));
}

// ------------------------------------------------------------------ muting

TEST(PathMuting, MuteOutStopsThatDirectionOnly) {
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  path.setMute(PathEnd::left, false, /*muteOut=*/true);
  path.run();
  EXPECT_FALSE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.bothFlowing());  // recurrence: the path re-stabilizes
}

TEST(PathMuting, MuteInStopsOppositeDirection) {
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  path.setMute(PathEnd::left, /*muteIn=*/true, false);
  path.run();
  // Left refuses to receive -> right cannot send.
  EXPECT_FALSE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathMuting, UnmuteRestoresFlow) {
  auto path = makePath(K::openSlot, K::openSlot, 2);
  path.run();
  path.setMute(PathEnd::right, true, true);
  path.run();
  EXPECT_FALSE(path.mediaEnabled(PathEnd::left));
  EXPECT_FALSE(path.mediaEnabled(PathEnd::right));
  path.setMute(PathEnd::right, false, false);
  path.run();
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathMuting, ConcurrentModifyBothDirectionsConverges) {
  // Section VI-C: describe/select in opposite directions do not constrain
  // each other; concurrent changes must still converge.
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  path.setMute(PathEnd::left, true, false);   // both sent before any delivery
  path.setMute(PathEnd::right, true, false);
  path.run();
  EXPECT_FALSE(path.mediaEnabled(PathEnd::left));
  EXPECT_FALSE(path.mediaEnabled(PathEnd::right));
  EXPECT_TRUE(path.bothFlowing());
  path.setMute(PathEnd::left, false, false);
  path.setMute(PathEnd::right, false, false);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
  EXPECT_TRUE(path.mediaEnabled(PathEnd::left));
  EXPECT_TRUE(path.mediaEnabled(PathEnd::right));
}

// --------------------------------------------------------- goal replacement

TEST(PathReplacement, HoldToOpenBringsPathUp) {
  auto path = makePath(K::holdSlot, K::holdSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothClosed());
  path.replaceGoal(PathEnd::left,
                   PathSystem::makeGoal(K::openSlot, PathEnd::left));
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathReplacement, OpenToCloseBringsPathDown) {
  auto path = makePath(K::openSlot, K::openSlot, 2);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  path.replaceGoal(PathEnd::left, CloseSlotGoal{});
  path.run();
  EXPECT_FALSE(path.bothFlowing());
  EXPECT_TRUE(isDead(path.endpointSlot(PathEnd::left).state()));
  EXPECT_TRUE(isDead(path.endpointSlot(PathEnd::right).state()) ||
              retryPending(path.endpointGoal(PathEnd::right)));
}

TEST(PathReplacement, CloseToOpenAfterRejectionRecovers) {
  auto path = makePath(K::closeSlot, K::openSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothClosed());
  path.replaceGoal(PathEnd::left,
                   PathSystem::makeGoal(K::openSlot, PathEnd::left));
  path.run();
  // The left open travels right; the right openslot accepts (it may also
  // have a retry pending from earlier rejections; both opens meeting in an
  // open/open race must still resolve).
  path.fireRetry(PathEnd::right);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathReplacement, ReopenAfterFullTeardownViaRetry) {
  // Recurrence across a whole cycle: up, torn down by closeSlot, goal
  // switched back to openSlot at the same end, path comes back up.
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  ASSERT_TRUE(path.bothFlowing());
  path.replaceGoal(PathEnd::left, CloseSlotGoal{});
  path.run();
  ASSERT_FALSE(path.bothFlowing());
  path.replaceGoal(PathEnd::left,
                   PathSystem::makeGoal(K::openSlot, PathEnd::left));
  path.run();
  path.fireRetry(PathEnd::left);
  path.fireRetry(PathEnd::right);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

// ------------------------------------------------------- race: both ends open

TEST(PathRaces, SimultaneousOpensResolveByChannelInitiator) {
  // With no flowlink, both ends open at once inside one tunnel; the
  // channel-initiator (left) wins and the right backs off to acceptor.
  auto path = makePath(K::openSlot, K::openSlot, 0);
  // Both attach before any delivery: both opens are in flight.
  EXPECT_EQ(path.channel(0).depthToward(Side::B), 1u);
  EXPECT_EQ(path.channel(0).depthToward(Side::A), 1u);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathRaces, SimultaneousOpensThroughFlowlink) {
  auto path = makePath(K::openSlot, K::openSlot, 1);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
  EXPECT_TRUE(path.quiescent());
}

// ----------------------------------------------------------- fingerprinting

TEST(PathFingerprint, EqualSystemsEqualFingerprints) {
  auto p1 = makePath(K::openSlot, K::holdSlot, 1);
  auto p2 = makePath(K::openSlot, K::holdSlot, 1);
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
  p1.run();
  p2.run();
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
}

TEST(PathFingerprint, DifferentProgressDifferentFingerprints) {
  auto p1 = makePath(K::openSlot, K::holdSlot, 1);
  auto p2 = makePath(K::openSlot, K::holdSlot, 1);
  p2.run();
  EXPECT_NE(p1.fingerprint(), p2.fingerprint());
}

TEST(PathFingerprint, CopyIsIndependent) {
  auto p1 = makePath(K::openSlot, K::openSlot, 1);
  PathSystem p2 = p1;  // value semantics
  p2.run();
  EXPECT_NE(p1.fingerprint(), p2.fingerprint());
  p1.run();
  EXPECT_EQ(p1.fingerprint(), p2.fingerprint());
}

// ------------------------------------------------------------ enabled actions

TEST(PathActions, EnabledActionsMatchQueues) {
  auto path = makePath(K::openSlot, K::openSlot, 0);
  auto actions = path.enabledActions();
  // Two opens in flight -> two deliver actions.
  ASSERT_EQ(actions.size(), 2u);
  for (const auto& a : actions) EXPECT_EQ(a.kind, PathAction::Kind::deliver);
}

TEST(PathActions, ApplyDeliverStepsSystem) {
  auto path = makePath(K::openSlot, K::holdSlot, 0);
  auto actions = path.enabledActions();
  ASSERT_EQ(actions.size(), 1u);
  path.apply(actions[0]);
  // Hold end accepted: oack + select are now in flight leftward.
  EXPECT_EQ(path.channel(0).depthToward(Side::A), 2u);
}

TEST(PathActions, DeferredAttachExposesAttachActions) {
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::openSlot, PathEnd::right), 1,
                  /*defer_attach=*/true);
  auto actions = path.enabledActions();
  std::size_t attaches = 0;
  for (const auto& a : actions) {
    if (a.kind == PathAction::Kind::attach) ++attaches;
  }
  EXPECT_EQ(attaches, 3u);  // two endpoints + one flowlink box
  for (const auto& a : actions) path.apply(a);
  path.run();
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathActions, ChaosBudgetExposesChaosActions) {
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::openSlot, PathEnd::right), 0,
                  /*defer_attach=*/true);
  path.setChaosBudget(2);
  auto actions = path.enabledActions();
  std::size_t chaos = 0;
  for (const auto& a : actions) {
    if (a.kind == PathAction::Kind::chaos) ++chaos;
  }
  EXPECT_GT(chaos, 0u);
}

TEST(PathActions, ChaosThenAttachStillConverges) {
  // A chaotic prefix must not be able to wedge the goals: whatever mess the
  // chaos phase makes, after attach the path reaches its specified state.
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::openSlot, PathEnd::right), 0,
                  /*defer_attach=*/true);
  path.setChaosBudget(4);
  // Chaos: left opens (muted variant), right closes it after attach etc.
  PathAction chaos;
  chaos.kind = PathAction::Kind::chaos;
  chaos.party = 0;
  chaos.chaosSignal = SignalKind::open;
  chaos.chaosVariant = 1;
  path.apply(chaos);
  path.run();  // right absorbs silently (unattached)
  PathAction attach0, attach1;
  attach0.kind = PathAction::Kind::attach;
  attach0.party = 0;
  attach1.kind = PathAction::Kind::attach;
  attach1.party = 1;
  path.apply(attach1);  // right attaches first: sees slot 'opened', accepts
  path.apply(attach0);  // left attaches while its own chaos open in flight
  path.run();
  while (retryPending(path.endpointGoal(PathEnd::left)) ||
         retryPending(path.endpointGoal(PathEnd::right))) {
    path.fireRetry(PathEnd::left);
    path.fireRetry(PathEnd::right);
    path.run();
  }
  EXPECT_TRUE(path.bothFlowing());
}

TEST(PathActions, ModifyBudgetExposesModifyActions) {
  auto path = makePath(K::openSlot, K::openSlot, 0);
  path.run();
  path.setModifyBudget(1);
  auto actions = path.enabledActions();
  std::size_t modifies = 0;
  for (const auto& a : actions) {
    if (a.kind == PathAction::Kind::modifyMute) ++modifies;
  }
  EXPECT_EQ(modifies, 6u);  // 3 non-current combos per endpoint
}

// ---------------------------------------------------------------- recycling
//
// The model checker keeps one action buffer per worker and assigns each
// successor over a PathSystem that last held another state. These tests
// pin the properties that relies on, over every state of openSlot/openSlot
// with no flowlink and chaos and modify budgets of 1 (the explorer's
// 13,470-state model).

std::vector<std::uint8_t> canonicalBytes(const PathSystem& system) {
  ByteWriter w;
  system.canonicalize(w);
  return w.take();
}

std::vector<PathSystem> reachableStates() {
  PathSystem initial(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                     PathSystem::makeGoal(K::openSlot, PathEnd::right), 0,
                     /*defer_attach=*/true);
  initial.setChaosBudget(1);
  initial.setModifyBudget(1);
  std::vector<PathSystem> states{initial};
  std::set<std::vector<std::uint8_t>> seen{canonicalBytes(initial)};
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (const PathAction& action : states[i].enabledActions()) {
      PathSystem next = states[i];
      next.apply(action);
      if (seen.insert(canonicalBytes(next)).second) {
        states.push_back(std::move(next));
      }
    }
  }
  return states;
}

TEST(PathRecycling, ActionsFilledIntoADirtyBufferMatchTheReturnedList) {
  const std::vector<PathSystem> states = reachableStates();
  ASSERT_EQ(states.size(), 13470u);
  std::vector<PathAction> buffer;
  std::size_t mismatches = 0;
  for (const PathSystem& state : states) {
    // Whatever the last state left, plus one stale entry.
    buffer.push_back(PathAction{});
    state.enabledActions(buffer);
    mismatches += buffer == state.enabledActions() ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(PathRecycling, AssignedOverAnotherStateBehavesLikeAFreshCopy) {
  const std::vector<PathSystem> states = reachableStates();
  ASSERT_EQ(states.size(), 13470u);
  PathSystem recycled = states.front();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < states.size(); ++i) {
    // Last held some other state, possibly one with longer queues.
    recycled = states[(i * 7919 + 1) % states.size()];
    recycled = states[i];
    PathSystem fresh(states[i]);
    bool same = canonicalBytes(recycled) == canonicalBytes(fresh) &&
                recycled.enabledActions() == fresh.enabledActions();
    // And it steps the same way.
    for (const PathAction& action : fresh.enabledActions()) {
      PathSystem a = fresh;
      PathSystem b = states.back();
      b = recycled;
      a.apply(action);
      b.apply(action);
      same = same && canonicalBytes(a) == canonicalBytes(b);
    }
    mismatches += same ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
}

// ----------------------------------------------------------------- tracing

TEST(PathTrace, TraceRecordsSignalSequence) {
  PathSystem path(PathSystem::makeGoal(K::openSlot, PathEnd::left),
                  PathSystem::makeGoal(K::holdSlot, PathEnd::right), 0,
                  /*defer_attach=*/true);
  path.enableTrace(true);
  PathAction attach0;
  attach0.kind = PathAction::Kind::attach;
  attach0.party = 0;
  path.apply(attach0);
  PathAction attach1 = attach0;
  attach1.party = 1;
  path.apply(attach1);
  path.run();
  ASSERT_GE(path.trace().size(), 3u);
  EXPECT_NE(path.trace()[0].signal.find("open"), std::string::npos);
}

}  // namespace
}  // namespace cmc
