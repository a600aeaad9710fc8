// Tests for in-band trace-context propagation: causal linkage of stimulus
// spans across boxes, root allocation at injections, duplicate deliveries
// keeping one trace id with distinct span ids, deterministic id streams,
// and the feature being invisible while disabled.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "endpoints/user_device.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace cmc {
namespace {

using namespace literals;

// Run the canonical two-phone call with `rec` attached; propagation state is
// whatever the caller set on the recorder beforehand.
void runCall(std::uint64_t seed, obs::TraceRecorder& rec,
             FaultPlan* plan = nullptr) {
  Simulator sim(TimingModel::paperDefaults(), seed);
  sim.attachTrace(&rec);
  sim.addBox<UserDeviceBox>("A", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.1", 5000));
  sim.addBox<UserDeviceBox>("B", sim.mediaNetwork(), sim.loop(),
                            MediaAddress::parse("10.0.0.2", 5000));
  if (plan != nullptr) sim.installFaultPlan(plan);
  sim.inject("A",
             [](Box& box) { static_cast<UserDeviceBox&>(box).placeCall("B"); });
  sim.runFor(2_s);
}

TEST(TraceContextTest, OffByDefaultLeavesEventsUnstamped) {
  obs::TraceRecorder rec;
  EXPECT_FALSE(rec.propagationEnabled());
  runCall(/*seed=*/5, rec);
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    EXPECT_EQ(ev.trace_id, 0u);
    EXPECT_EQ(ev.span_id, 0u);
    EXPECT_EQ(ev.parent_span, 0u);
  }
  // The export shape is bit-compatible with the pre-context format.
  EXPECT_EQ(rec.chromeTraceJson().find("\"trace\":"), std::string::npos);
}

TEST(TraceContextTest, EverySpanStampedAndLinkedUnderPropagation) {
  obs::TraceRecorder rec;
  rec.setPropagation(true);
  runCall(/*seed=*/5, rec);

  // The pointers below point into this snapshot, so it must outlive them.
  const std::vector<obs::TraceEvent> events = rec.snapshot();
  std::map<std::uint64_t, const obs::TraceEvent*> span_of;
  std::vector<const obs::TraceEvent*> spans;
  for (const obs::TraceEvent& ev : events) {
    if (ev.kind != obs::EventKind::boxSpan) continue;
    EXPECT_NE(ev.trace_id, 0u);
    EXPECT_NE(ev.span_id, 0u);
    span_of.emplace(ev.span_id, &ev);
    spans.push_back(&ev);
  }
  ASSERT_GT(spans.size(), 2u);

  bool saw_cross_actor_link = false;
  for (const obs::TraceEvent* span : spans) {
    if (span->parent_span == 0) continue;  // a root (the user injection)
    auto pit = span_of.find(span->parent_span);
    ASSERT_NE(pit, span_of.end()) << "non-root span has unresolvable parent";
    // A child belongs to its parent's trace and strictly follows it.
    EXPECT_EQ(span->trace_id, pit->second->trace_id);
    EXPECT_GE(span->ts_us, pit->second->ts_us + pit->second->dur_us);
    if (span->actor != pit->second->actor) saw_cross_actor_link = true;
  }
  EXPECT_TRUE(saw_cross_actor_link) << "no parent->child hop crossed a box";
}

TEST(TraceContextTest, WholeCallSetupSharesOneTrace) {
  obs::TraceRecorder rec;
  rec.setPropagation(true);
  runCall(/*seed=*/7, rec);
  // The only root stimulus is the placeCall injection, so every span of the
  // setup cascade carries that root's trace id.
  std::set<std::uint64_t> traces;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind == obs::EventKind::boxSpan) traces.insert(ev.trace_id);
  }
  EXPECT_EQ(traces.size(), 1u);
}

TEST(TraceContextTest, NonSpanEventsAdoptTheEnclosingStimulus) {
  obs::TraceRecorder rec;
  rec.setPropagation(true);
  runCall(/*seed=*/3, rec);
  std::set<std::uint64_t> span_ids;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind == obs::EventKind::boxSpan) span_ids.insert(ev.span_id);
  }
  std::size_t adopted = 0;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind != obs::EventKind::slotTransition &&
        ev.kind != obs::EventKind::signalSend)
      continue;
    // Slot transitions and sends happen inside a stimulus; adoption must
    // have attributed them to one of the recorded spans.
    EXPECT_NE(ev.trace_id, 0u);
    if (span_ids.count(ev.span_id) != 0) ++adopted;
  }
  EXPECT_GT(adopted, 0u);
  // Arrivals are recorded before the receiving span exists: they carry the
  // causing (sender) span so the analyzer can attribute transit time.
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind != obs::EventKind::signalRecv) continue;
    EXPECT_NE(ev.trace_id, 0u);
    EXPECT_NE(ev.parent_span, 0u);
    EXPECT_EQ(span_ids.count(ev.parent_span), 1u);
  }
}

TEST(TraceContextTest, DuplicateDeliveriesShareTraceWithDistinctSpans) {
  FaultSpec spec;
  spec.duplicate_rate = 1.0;  // every signal delivered twice
  FaultPlan plan(/*seed=*/23, spec);
  obs::TraceRecorder rec;
  rec.setPropagation(true);
  runCall(/*seed=*/5, rec, &plan);
  ASSERT_GT(plan.counters().duplicated, 0u);

  // Each duplicated delivery restimulates the receiver with the same cause:
  // sibling spans share (trace, parent) but never a span id.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::set<std::uint64_t>>
      siblings;
  std::set<std::uint64_t> all_spans;
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.kind != obs::EventKind::boxSpan) continue;
    EXPECT_TRUE(all_spans.insert(ev.span_id).second)
        << "span id reused across stimuli";
    if (ev.parent_span != 0) {
      siblings[{ev.trace_id, ev.parent_span}].insert(ev.span_id);
    }
  }
  bool saw_duplicate_pair = false;
  for (const auto& [cause, ids] : siblings) {
    if (ids.size() >= 2) saw_duplicate_pair = true;
  }
  EXPECT_TRUE(saw_duplicate_pair)
      << "expected at least one cause with two sibling deliveries";
}

TEST(TraceContextTest, SameSeedRunsExportByteIdenticalCausalTraces) {
  obs::TraceRecorder first;
  obs::TraceRecorder second;
  first.setPropagation(true);
  second.setPropagation(true);
  runCall(/*seed=*/11, first);
  runCall(/*seed=*/11, second);
  ASSERT_GT(first.recorded(), 0u);
  const std::string json = first.chromeTraceJson();
  EXPECT_EQ(json, second.chromeTraceJson());
  // Propagation adds causal args and flow arrows to the export.
  EXPECT_NE(json.find("\"trace\":"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(TraceContextTest, ContextScopeRestoresOnExit) {
  const obs::TraceContext outer{1, 2};
  const obs::TraceContext inner{3, 4};
  EXPECT_TRUE(obs::currentContext().empty());
  {
    obs::ContextScope a(outer);
    EXPECT_EQ(obs::currentContext(), outer);
    {
      obs::ContextScope b(inner);
      EXPECT_EQ(obs::currentContext(), inner);
    }
    EXPECT_EQ(obs::currentContext(), outer);
  }
  EXPECT_TRUE(obs::currentContext().empty());
}

}  // namespace
}  // namespace cmc
