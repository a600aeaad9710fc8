#!/usr/bin/env python3
"""Self-test of the benchmark runner on tiny inputs.

    python3 perfbench/selftest.py

Runs a 0-flowlink openSlot/openSlot model and 200-call clean and faulty load
workloads through run.py's own code path, with --trace 0 and 1. Checks that
every metric BENCHMARK.json names is printed with its unit, that the last
line parses with exactly the keys correct, attempted, failed and metrics,
and that the gates reject wrong outputs and unoptimized or sanitizer
builds. Exits non-zero on the first failure.
"""

import json
import math
import sys

import run

TINY = {
    "mc_tiny": {**run.WORKLOADS["mc_ref"], "flowlinks": 0},
    "load_tiny_clean": {**run.WORKLOADS["load_clean"], "calls": 200},
    "load_tiny_faulty": {**run.WORKLOADS["load_faulty"], "calls": 200},
}
# Names the human-readable report must carry, besides the BENCHMARK.json ones.
READABLE_E2E = {
    "mc": ["setup_s", "verify_s", "states_per_s", "bytes_per_state",
           "peak_rss_mb", "fail_ratio"],
    "load": ["setup_s", "verify_s", "calls_per_s", "rollup_bytes_per_call",
             "peak_rss_mb", "fail_ratio"],
}


def expect(ok, what):
    if not ok:
        sys.exit(f"self-test FAILED: {what}")


def check_report(name, spec, trace, bench, lines, status):
    expect(status == 0, f"{name} trace={trace} exited {status}")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: last line keys {sorted(result)}")
    expect(result["correct"] is True, f"{name}: not correct")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{name}: attempted {result['attempted']}")
    expect(isinstance(result["failed"], int), f"{name}: failed not an int")
    specs = run.metric_specs(bench, trace)
    expect(set(result["metrics"]) == {m["name"] for m in specs},
           f"{name}: metric names differ from BENCHMARK.json")
    text = "\n".join(lines[:-1])
    for m in specs:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
               and math.isfinite(got["value"]),
               f"{name}: metric {m['name']} = {got}")
        if trace:
            expect(f"{m['name']} " in text and f" {m['unit']}" in text,
                   f"{name}: {m['name']} not printed with its unit")
        else:
            expect(got["value"] > 0, f"{name}: end-to-end {m['name']} is 0")
    for label in READABLE_E2E[spec["mode"]] if not trace else []:
        line = next((l for l in lines if l.split()[:1] == [label]), None)
        expect(line is not None and len(line.split()) >= 3,
               f"{name}: {label} not printed with a unit")
    record = next(l for l in lines if l.startswith("RESULT "))
    provenance = json.loads(record[len("RESULT "):])["provenance"]
    for key in ("nproc", "hardware_concurrency", "build_type", "compiler",
                "sanitizer", "commit", "seed", "workload"):
        expect(key in provenance, f"{name}: provenance lacks {key}")


def check_gates():
    mc = TINY["mc_tiny"]
    good_mc = {**run.EXPECTED_GRAPHS[0], "safety_ok": True,
               "spec_ok": True, "truncated": False, "consistent": True}
    expect(run.gate(mc, 7, good_mc) == [], "good mc facts rejected")
    for bad in ({"states": 13469}, {"spec_ok": False}, {"truncated": True},
                {"consistent": False}):
        expect(run.gate(mc, 7, {**good_mc, **bad}), f"mc gate passed {bad}")

    load = TINY["load_tiny_faulty"]
    pinned = run.EXPECTED_DIGESTS[(200, 0.3)]
    good_load = {"ok_calls": 200, "digest": pinned, "consistent": True}
    expect(run.gate(load, run.DEFAULT_SEED, good_load) == [],
           "good load facts rejected")
    expect(run.gate(load, run.DEFAULT_SEED, {**good_load, "ok_calls": 199}),
           "load gate passed an unconverged call")
    expect(run.gate(load, run.DEFAULT_SEED, {**good_load, "digest": "0" * 16}),
           "load gate passed a wrong digest on the pinned seed")
    expect(run.gate(load, 11, {**good_load, "digest": "0" * 16}) == [],
           "load gate pinned a digest on a held-out seed")

    expect(run.provenance_refusal({"optimized": True, "sanitizer": "none"})
           is None, "optimized build refused")
    expect(run.provenance_refusal({"optimized": False, "sanitizer": "none"}),
           "unoptimized build accepted")
    expect(run.provenance_refusal({"optimized": True, "sanitizer": "thread"}),
           "sanitizer build accepted")


def main():
    check_gates()
    bench = run.load_benchmark()
    expect(run.build(), "build failed")
    for name, spec in TINY.items():
        for trace in (0, 1):
            lines = []
            status = run.run_workload(name, spec, run.DEFAULT_SEED, 0.5, trace,
                                      bench, out=lines.append)
            check_report(name, spec, trace, bench, lines, status)
    print("self-test: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
