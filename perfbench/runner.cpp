// Measurement half of the benchmark (run.py is the other half: it builds
// this binary, picks the workload's inputs, gates the facts printed here
// and formats the result).
//
//   cmc_perfbench mc   --flowlinks N --threads N --seconds S --trace 0|1
//   cmc_perfbench load --seed N --calls N --fault-fraction F
//                      --seconds S --trace 0|1
//
// Every timing is taken here, from outside the library, around calls into
// its public entry points: explorePath / checkSafety / checkSpec for the
// model checker; WorkloadGenerator / ShardedRuntime::run / metricsJson /
// DescriptorTable::size for the load path. The counters those calls
// already return (ExploreStats, ShardStats) are read, never recomputed.
// With --trace 1 the per-layer run installs the existing hot-path profiler
// (obs::setThreadProfiler, LoadConfig::profile); the library gains no
// tracing for the benchmark's sake.
//
// Output: one JSON object on the last stdout line with "provenance",
// "facts" (what run.py gates on) and "metrics" (name -> value).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "codec/descriptor_intern.hpp"
#include "load/sharded_runtime.hpp"
#include "load/workload.hpp"
#include "mc/temporal.hpp"
#include "mc/verification.hpp"
#include "obs/profiler.hpp"

#ifndef CMC_BENCH_BUILD_TYPE
#define CMC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using Clock = std::chrono::steady_clock;
// The model-checking workloads verify the ROADMAP reference path type,
// openSlot at both ends; only the flowlink count varies.
constexpr cmc::GoalKind kLeft = cmc::GoalKind::openSlot;
constexpr cmc::GoalKind kRight = cmc::GoalKind::openSlot;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Process high-water mark. Read after the first repeat of a workload, so
// it is the peak of one pass and not of however many repeats fit the run.
double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The benchmark's own digest, so it does not depend on any hash the
// library might later change: FNV-1a 64 over little-endian fields.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

// Flat JSON object builder; values are numbers, booleans or plain strings.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
    }
    return raw(key, quoted + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + v;
    return *this;
  }
  JsonObject& list(const std::string& key, const std::vector<double>& v) {
    std::string items;
    for (double x : v) items += (items.empty() ? "" : ",") + number(x);
    return raw(key, "[" + items + "]");
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

JsonObject provenance() {
  JsonObject p;
  p.num("hardware_concurrency", std::thread::hardware_concurrency());
  p.str("build_type", CMC_BENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
  p.flag("optimized", true);
#else
  p.flag("optimized", false);
#endif
#ifdef __clang__
  p.str("compiler", std::string("clang ") + __clang_version__);
#else
  p.str("compiler", std::string("gcc ") + __VERSION__);
#endif
  std::string sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  sanitizer = "thread";
#endif
#endif
  p.str("sanitizer", sanitizer);
  return p;
}

// Per-site rollup of a profile: a site can sit under several calling
// contexts, so its nodes are summed.
struct SiteCost {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t allocs = 0;
  [[nodiscard]] double nsPerOp() const { return per(total_ns); }
  [[nodiscard]] double selfNsPerOp() const { return per(self_ns); }
  [[nodiscard]] double allocsPerOp() const {
    return per(static_cast<double>(allocs));
  }

 private:
  [[nodiscard]] double per(double v) const {
    return calls > 0 ? v / static_cast<double>(calls) : 0.0;
  }
};

class SiteCosts {
 public:
  explicit SiteCosts(const cmc::obs::ProfileReport& report) {
    for (const auto& node : report.nodes()) {
      if (node.is_value || node.depth == 0) continue;
      SiteCost& s = sites_[node.site];
      s.calls += node.calls;
      s.total_ns += node.total_ns;
      s.self_ns += node.self_ns;
      s.allocs += node.allocs;
    }
  }
  // A site the run never visited costs nothing.
  [[nodiscard]] SiteCost operator()(const std::string& site) const {
    const auto it = sites_.find(site);
    return it == sites_.end() ? SiteCost{} : it->second;
  }

 private:
  std::map<std::string, SiteCost> sites_;
};

// Per-site costs from a profile, for every site whichever workload ran: the
// explorer drives the slot FSM and flowlinks too, so the protocol and core
// sites read from a model-checking run as well. A site the run never
// visited reads 0.
void addSiteMetrics(const cmc::obs::ProfileReport& report,
                    std::map<std::string, double>& m) {
  const SiteCosts site(report);
  m["mc.expand_state.self_ns"] = site("mc.expand_state").selfNsPerOp();
  m["mc.expand_state.allocs"] = site("mc.expand_state").allocsPerOp();
  m["mc.canonicalize.ns"] = site("mc.canonicalize").nsPerOp();
  m["mc.canonicalize.allocs"] = site("mc.canonicalize").allocsPerOp();
  m["mc.fingerprint.ns"] = site("mc.fingerprint").nsPerOp();
  m["mc.merge.ns"] = site("mc.merge").nsPerOp();
  m["protocol.slot_deliver.ns"] = site("slot.deliver").nsPerOp();
  m["core.flowlink_on_event.ns"] = site("flowlink.on_event").nsPerOp();
  m["core.flowlink_on_event.allocs"] = site("flowlink.on_event").allocsPerOp();
  m["sim.loop_dispatch.self_ns"] = site("loop.dispatch").selfNsPerOp();
  m["sim.loop_dispatch.allocs"] = site("loop.dispatch").allocsPerOp();
  m["sim.deliver_tunnel.self_ns"] = site("sim.deliver_tunnel").selfNsPerOp();
  m["sim.stimulus.self_ns"] = site("sim.stimulus").selfNsPerOp();
  m["sim.stimulus.allocs"] = site("sim.stimulus").allocsPerOp();
  m["sim.output_admin.self_ns"] = site("sim.output_admin").selfNsPerOp();
  m["sim.output_admin.allocs"] = site("sim.output_admin").allocsPerOp();
  m["sim.process_output.self_ns"] = site("sim.process_output").selfNsPerOp();
  m["load.schedule_s"] =
      static_cast<double>(site("shard.schedule").total_ns) / 1e9;
  const double run_ns = static_cast<double>(site("shard.run").total_ns);
  m["load.drain_self_share"] =
      run_ns > 0 ? static_cast<double>(site("shard.drain").self_ns) / run_ns
                 : 0.0;
}

// Counters that only one path produces; a workload on the other path did
// no work there, so they read 0 for it.
constexpr const char* kMcCounters[] = {
    "mc.explore_s",      "mc.expand_s",       "mc.merge_s",
    "mc.other_s",        "mc.check_spec_s",   "mc.check_safety_s",
    "mc.dedup_ratio",    "mc.peak_frontier",  "mc.levels"};
constexpr const char* kLoadCounters[] = {
    "sim.events_per_call", "sim.peak_pending",      "sim.signals_per_call",
    "sim.ns_per_event",    "load.generate_s",       "load.faults_per_call",
    "obs.rollup_entries",  "obs.rollup_bytes",      "obs.metrics_json_s"};

struct Args {
  std::string mode;
  std::size_t flowlinks = 1;
  std::size_t threads = 2;
  std::uint64_t seed = 7;
  std::size_t calls = 0;
  double fault_fraction = 0.0;
  double seconds = 10.0;
  bool trace = false;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s mc|load [--flag value]...\n", argv[0]);
    std::exit(2);
  }
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--flowlinks") a.flowlinks = std::stoul(v);
    else if (flag == "--threads") a.threads = std::stoul(v);
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--calls") a.calls = std::stoul(v);
    else if (flag == "--fault-fraction") a.fault_fraction = std::stod(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if ((argc - 2) % 2 != 0) {
    std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
    std::exit(2);
  }
  if (a.mode != "mc" && a.mode != "load") {
    std::fprintf(stderr, "unknown mode %s (mc|load)\n", a.mode.c_str());
    std::exit(2);
  }
  return a;
}

// Set-up is short, so one sample would be noise: it is timed in a burst of
// repeats before every measured repeat of the workload, and the median over
// all bursts spans the same window as the run's other metrics.
template <typename F>
class SetupSampler {
 public:
  SetupSampler(F step, std::size_t min_reps, double budget_s)
      : step_(std::move(step)), min_reps_(min_reps), budget_s_(budget_s) {}

  void burst() {
    const auto start = Clock::now();
    for (std::size_t n = 0; n < min_reps_ || since(start) < budget_s_; ++n) {
      const auto t0 = Clock::now();
      step_();
      samples_.push_back(since(t0));
    }
  }
  [[nodiscard]] double median() const { return ::median(samples_); }

 private:
  F step_;
  std::size_t min_reps_;
  double budget_s_;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------- model
struct McFacts {
  std::size_t states = 0, transitions = 0, terminals = 0;
  bool safety_ok = false, spec_ok = false, truncated = true;
  bool consistent = true;  // every repeat gave the same graph and verdicts
  std::size_t bytes_canonical = 0;
  std::size_t runs = 0;     // explorations
  std::size_t checked = 0;  // explorations whose verdicts were checked
};

cmc::ExploreLimits mcLimits(std::size_t threads) {
  cmc::ExploreLimits limits;
  limits.chaos_budget = 1;
  limits.modify_budget = 1;
  limits.threads = threads;
  return limits;
}

// Verdicts are checked on some explorations only; the others just have to
// reproduce the graph.
void recordGraph(McFacts& f, const cmc::ExploreResult& g) {
  if (f.runs > 0) {
    f.consistent = f.consistent && f.states == g.states() &&
                   f.transitions == g.transitions &&
                   f.terminals == g.terminals && f.truncated == g.truncated;
  }
  f.states = g.states();
  f.transitions = g.transitions;
  f.terminals = g.terminals;
  f.truncated = g.truncated;
  f.bytes_canonical = g.bytes_canonical;
  ++f.runs;
}

void recordVerdicts(McFacts& f, bool safety_ok, bool spec_ok) {
  if (f.checked > 0) {
    f.consistent =
        f.consistent && f.safety_ok == safety_ok && f.spec_ok == spec_ok;
  }
  f.safety_ok = safety_ok;
  f.spec_ok = spec_ok;
  ++f.checked;
}

std::string mcFactsJson(const McFacts& f) {
  const int failed_checks =
      (f.safety_ok ? 0 : 1) + (f.spec_ok ? 0 : 1) + (f.truncated ? 1 : 0);
  return JsonObject()
      .num("states", f.states)
      .num("transitions", f.transitions)
      .num("terminals", f.terminals)
      .flag("safety_ok", f.safety_ok)
      .flag("spec_ok", f.spec_ok)
      .flag("truncated", f.truncated)
      .flag("consistent", f.consistent)
      .num("attempted", 3.0 * static_cast<double>(f.checked))
      .num("failed", failed_checks * static_cast<double>(f.checked))
      .text();
}

int runMc(const Args& a) {
  const cmc::PathSpec spec = cmc::specFor(kLeft, kRight);
  SetupSampler setup(
      [&] {
        cmc::PathSystem initial(cmc::PathSystem::makeGoal(kLeft, cmc::PathEnd::left),
                                cmc::PathSystem::makeGoal(kRight, cmc::PathEnd::right),
                                a.flowlinks, /*defer_attach=*/true);
        initial.setChaosBudget(1);
        initial.setModifyBudget(1);
        volatile std::uint64_t fp = initial.fingerprint();
        (void)fp;
      },
      200, 0.05);
  setup.burst();

  McFacts facts;
  JsonObject metrics, samples;
  if (!a.trace) {
    std::vector<double> verify_s, states_per_s;
    double peak_rss_mb = 0;
    const auto start = Clock::now();
    while (facts.runs == 0 || since(start) < a.seconds) {
      if (facts.runs > 0) setup.burst();
      const auto t0 = Clock::now();
      const cmc::ExploreResult g =
          cmc::explorePath(kLeft, kRight, a.flowlinks, mcLimits(a.threads));
      const double explore_s = since(t0);
      const bool safety_ok = !cmc::checkSafety(g).has_value();
      const bool spec_ok = !cmc::checkSpec(g, spec).has_value();
      verify_s.push_back(since(t0));
      states_per_s.push_back(static_cast<double>(g.states()) / explore_s);
      recordGraph(facts, g);
      recordVerdicts(facts, safety_ok, spec_ok);
      if (facts.runs == 1) peak_rss_mb = peakRssMb();
    }
    metrics.num("setup_s", setup.median())
        .num("verify_s", median(verify_s))
        .num("throughput_per_s", median(states_per_s))
        .num("bytes_per_unit", static_cast<double>(facts.bytes_canonical) /
                                   static_cast<double>(facts.states))
        .num("peak_rss_mb", peak_rss_mb);
    samples.list("verify_s", verify_s).list("throughput_per_s", states_per_s);
  } else {
    std::map<std::string, double> m;
    {
      // Untraced, at the workload's thread count: the explorer's own
      // phase counters and the two checks.
      const cmc::ExploreResult g =
          cmc::explorePath(kLeft, kRight, a.flowlinks, mcLimits(a.threads));
      auto t0 = Clock::now();
      const bool safety_ok = !cmc::checkSafety(g).has_value();
      m["mc.check_safety_s"] = since(t0);
      t0 = Clock::now();
      const bool spec_ok = !cmc::checkSpec(g, spec).has_value();
      m["mc.check_spec_s"] = since(t0);
      const cmc::ExploreStats& s = g.stats;
      m["mc.explore_s"] = s.seconds;
      m["mc.expand_s"] = s.expand_seconds;
      m["mc.merge_s"] = s.merge_seconds;
      m["mc.other_s"] = s.seconds - s.expand_seconds - s.merge_seconds;
      m["mc.dedup_ratio"] = s.dedupRatio();
      m["mc.peak_frontier"] = static_cast<double>(s.peak_frontier);
      m["mc.levels"] = static_cast<double>(s.frontier_depth);
      recordGraph(facts, g);
      recordVerdicts(facts, safety_ok, spec_ok);
    }
    // Per-site costs: the profiler records only on the thread that
    // installed it, so the traced explore runs at threads=1, against an
    // untraced threads=1 explore for the overhead.
    auto t0 = Clock::now();
    {
      const cmc::ExploreResult g =
          cmc::explorePath(kLeft, kRight, a.flowlinks, mcLimits(1));
      recordGraph(facts, g);
    }
    const double untraced_s = since(t0);
    cmc::obs::ProfileTable table("perfbench.mc");
    cmc::obs::setThreadProfiler(&table);
    t0 = Clock::now();
    {
      const cmc::ExploreResult g =
          cmc::explorePath(kLeft, kRight, a.flowlinks, mcLimits(1));
      recordGraph(facts, g);
    }
    const double traced_s = since(t0);
    cmc::obs::setThreadProfiler(nullptr);
    addSiteMetrics(table.report(), m);
    for (const char* name : kLoadCounters) m[name] = 0.0;
    m["codec.interned_descriptors"] =
        static_cast<double>(cmc::DescriptorTable::instance().size());
    m["obs.trace_overhead"] = traced_s / untraced_s - 1.0;
    for (const auto& [name, value] : m) metrics.num(name, value);
  }
  std::printf("%s\n", JsonObject()
                          .raw("provenance", provenance().text())
                          .raw("facts", mcFactsJson(facts))
                          .raw("metrics", metrics.text())
                          .raw("samples", samples.text())
                          .text()
                          .c_str());
  return 0;
}

// ----------------------------------------------------------------- load
struct LoadRun {
  double run_s = 0;   // ShardedRuntime::run
  double json_s = 0;  // metricsJson
  std::size_t calls = 0, ok_calls = 0;
  std::uint64_t faults = 0;
  std::string digest;
  std::string rollup;
};

LoadRun runLoad(const std::vector<cmc::load::CallSpec>& calls,
                const cmc::load::WorkloadSpec& workload, cmc::SimTime horizon,
                cmc::load::LoadConfig config,
                std::unique_ptr<cmc::load::ShardedRuntime>* keep = nullptr) {
  config.shards = 1;
  auto runtime = std::make_unique<cmc::load::ShardedRuntime>(config);
  LoadRun r;
  auto t0 = Clock::now();
  runtime->run(calls, workload, horizon);
  r.run_s = since(t0);
  t0 = Clock::now();
  r.rollup = runtime->metricsJson();
  r.json_s = since(t0);
  Digest d;
  for (const cmc::load::CallOutcome& o : runtime->outcomes()) {
    d.add(o.spec.id);
    d.add(o.converged ? 1 : 0);
    d.add(o.clean_teardown ? 1 : 0);
    d.add(static_cast<std::uint64_t>(o.setup_latency_us));
    d.add(o.faults_injected);
    if (o.converged && o.clean_teardown) ++r.ok_calls;
    r.faults += o.faults_injected;
  }
  r.calls = runtime->outcomes().size();
  r.digest = d.hex();
  if (keep != nullptr) *keep = std::move(runtime);
  return r;
}

int runLoadMode(const Args& a) {
  cmc::load::WorkloadSpec workload;
  workload.master_seed = a.seed;
  workload.calls = a.calls;
  workload.arrivals_per_s = 200.0;
  workload.flowlink_fraction = 0.5;
  workload.fault_fraction = a.fault_fraction;

  std::vector<cmc::load::CallSpec> calls;
  cmc::SimTime horizon;
  SetupSampler setup(
      [&] {
        calls = cmc::load::WorkloadGenerator(workload).generate();
        horizon = cmc::load::faultHorizon(calls, workload);
      },
      5, 0.05);
  setup.burst();

  std::vector<LoadRun> runs;
  JsonObject metrics, samples;
  if (!a.trace) {
    std::vector<double> verify_s, calls_per_s;
    double peak_rss_mb = 0;
    const auto start = Clock::now();
    while (runs.empty() || since(start) < a.seconds) {
      if (!runs.empty()) setup.burst();
      runs.push_back(runLoad(calls, workload, horizon, {}));
      verify_s.push_back(runs.back().run_s + runs.back().json_s);
      calls_per_s.push_back(static_cast<double>(a.calls) / runs.back().run_s);
      if (runs.size() == 1) peak_rss_mb = peakRssMb();
    }
    metrics.num("setup_s", setup.median())
        .num("verify_s", median(verify_s))
        .num("throughput_per_s", median(calls_per_s))
        .num("bytes_per_unit", static_cast<double>(runs[0].rollup.size()) /
                                   static_cast<double>(a.calls))
        .num("peak_rss_mb", peak_rss_mb);
    samples.list("verify_s", verify_s).list("throughput_per_s", calls_per_s);
  } else {
    std::map<std::string, double> m;
    std::unique_ptr<cmc::load::ShardedRuntime> runtime;
    runs.push_back(runLoad(calls, workload, horizon, {}, &runtime));
    const LoadRun plain = runs.back();
    const cmc::load::ShardStats& shard = runtime->shardStats().at(0);
    const double n = static_cast<double>(a.calls);
    m["sim.events_per_call"] = static_cast<double>(shard.events_executed) / n;
    m["sim.peak_pending"] = static_cast<double>(shard.peak_pending);
    m["sim.signals_per_call"] = static_cast<double>(shard.signals_delivered) / n;
    m["sim.ns_per_event"] =
        plain.run_s * 1e9 / static_cast<double>(shard.events_executed);
    m["load.generate_s"] = setup.median();
    m["load.faults_per_call"] = static_cast<double>(plain.faults) / n;
    double entries = 0;
    runtime->metrics().visit([&](const std::string&, const auto&) { ++entries; },
                             [&](const std::string&, const auto&) { ++entries; },
                             [&](const std::string&, const auto&) { ++entries; });
    m["obs.rollup_entries"] = entries;
    m["obs.rollup_bytes"] = static_cast<double>(plain.rollup.size());
    m["obs.metrics_json_s"] = plain.json_s;
    m["codec.interned_descriptors"] =
        static_cast<double>(cmc::DescriptorTable::instance().size());
    runtime.reset();

    cmc::load::LoadConfig traced_config;
    traced_config.profile = true;
    runs.push_back(runLoad(calls, workload, horizon, traced_config, &runtime));
    addSiteMetrics(runtime->profileReport(), m);
    for (const char* name : kMcCounters) m[name] = 0.0;
    m["obs.trace_overhead"] = runs.back().run_s / plain.run_s - 1.0;
    for (const auto& [name, value] : m) metrics.num(name, value);
  }

  // Facts run.py gates on. Every repeat (traced ones included: profiling
  // is additive-only) must reproduce the same per-call outcomes.
  std::size_t attempted = 0, failed = 0;
  bool consistent = true;
  for (const LoadRun& r : runs) {
    attempted += a.calls;
    failed += a.calls - r.ok_calls;
    consistent = consistent && r.calls == a.calls &&
                 r.digest == runs[0].digest && r.rollup == runs[0].rollup;
  }
  std::printf("%s\n",
              JsonObject()
                  .raw("provenance", provenance().text())
                  .raw("facts", JsonObject()
                                    .num("calls", a.calls)
                                    .num("ok_calls", runs[0].ok_calls)
                                    .str("digest", runs[0].digest)
                                    .flag("consistent", consistent)
                                    .num("attempted", attempted)
                                    .num("failed", failed)
                                    .text())
                  .raw("metrics", metrics.text())
                  .raw("samples", samples.text())
                  .text()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  return args.mode == "mc" ? runMc(args) : runLoadMode(args);
}
