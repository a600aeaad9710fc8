#!/usr/bin/env python3
"""The repository's benchmark: the model checker and the call-load path.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root. It builds perfbench/ (with the library
sources under src/) into .bench_build/perfbench, runs the C++ runner on the
workload, gates the runner's facts, prints every metric by name with its
unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a separate, profiled run). Without --workload, or with
--workload all, every workload runs in turn. The exit status is non-zero
when the build fails, a correctness gate fails, or end-to-end numbers would
come from an unoptimized or sanitizer build. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "cmc_perfbench"
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 7

# Workload identity. The load workloads take their call set from --seed; the
# model-checking workload has no random input, so its seed is only recorded.
WORKLOADS = {
    "mc_ref": {"mode": "mc", "flowlinks": 1, "threads": 2},
    "load_clean": {"mode": "load", "calls": 40000, "fault_fraction": 0.0},
    "load_faulty": {"mode": "load", "calls": 5000, "fault_fraction": 0.3},
}

# Pinned outputs. The model is openSlot/openSlot, keyed by flowlink count;
# its graph is the same at any thread count. A load digest covers the
# per-call outcomes (id, converged, clean teardown, virtual setup latency,
# faults injected) and is pinned for DEFAULT_SEED only.
EXPECTED_GRAPHS = {
    1: {"states": 782915, "transitions": 2320246, "terminals": 128},
    0: {"states": 13470, "transitions": 31607, "terminals": 64},
}
EXPECTED_DIGESTS = {
    (40000, 0.0): "f353b894f94650a8",
    (5000, 0.3): "f3e38340982cf9a1",
    (200, 0.0): "b720710b0c514efa",  # self-test sizes
    (200, 0.3): "b119a510be8514c3",
}

# The names the paper-level questions use, per kind of workload, for the
# BENCHMARK.json metrics that are shared across workloads.
READABLE = {
    "mc": {"throughput_per_s": "states_per_s",
           "bytes_per_unit": "bytes_per_state"},
    "load": {"throughput_per_s": "calls_per_s",
             "bytes_per_unit": "rollup_bytes_per_call"},
}


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def metric_specs(bench, trace):
    return bench["per_layer" if trace else "end_to_end"]


def build():
    """Configure once, then build incrementally; logs go to stderr on error."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "cmc_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            sys.stderr.write(f"perfbench: build step failed: {' '.join(cmd)}\n")
            return False
    return True


def runner_args(spec, seed, seconds, trace):
    args = [str(RUNNER), spec["mode"], "--seconds", str(seconds),
            "--trace", str(trace)]
    if spec["mode"] == "mc":
        threads = min(spec["threads"], len(os.sched_getaffinity(0)))
        args += ["--flowlinks", str(spec["flowlinks"]),
                 "--threads", str(threads)]
    else:
        args += ["--seed", str(seed), "--calls", str(spec["calls"]),
                 "--fault-fraction", str(spec["fault_fraction"])]
    return args


def source_provenance():
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def provenance_refusal(provenance):
    """Why end-to-end numbers from this build must not be reported, or None."""
    if not provenance.get("optimized"):
        return "unoptimized build"
    if provenance.get("sanitizer", "none") != "none":
        return f"{provenance['sanitizer']} sanitizer build"
    return None


def gate(spec, seed, facts):
    """Correctness gates over the runner's facts; returns failure messages."""
    failures = []
    if not facts.get("consistent"):
        failures.append("repeats of the workload disagree")
    if spec["mode"] == "mc":
        for field, want in EXPECTED_GRAPHS[spec["flowlinks"]].items():
            if facts[field] != want:
                failures.append(f"{field} = {facts[field]}, expected {want}")
        for check in ("safety_ok", "spec_ok"):
            if not facts[check]:
                failures.append(f"{check} is false")
        if facts["truncated"]:
            failures.append("exploration truncated")
    else:
        if facts["ok_calls"] != spec["calls"]:
            failures.append(f"{spec['calls'] - facts['ok_calls']} of "
                            f"{spec['calls']} calls not converged and cleanly "
                            "torn down")
        pinned = EXPECTED_DIGESTS.get((spec["calls"], spec["fault_fraction"]))
        if seed == DEFAULT_SEED and facts["digest"] != pinned:
            failures.append(f"outcome digest {facts['digest']} != pinned "
                            f"{pinned} for seed {seed}")
    return failures


def run_workload(name, spec, seed, seconds, trace, bench, out=print):
    """Run one workload; prints its report through `out`, returns exit code."""
    try:
        proc = subprocess.run(runner_args(spec, seed, seconds, trace),
                              cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: runner failed on {name} "
                         f"(exit {proc.returncode})\n")
        return 1
    report = json.loads(lines[-1])
    provenance = dict(report["provenance"])
    if not trace and (why := provenance_refusal(provenance)):
        sys.stderr.write(f"perfbench: refusing end-to-end numbers from an "
                         f"{why}\n")
        return 2

    facts = report["facts"]
    failures = gate(spec, seed, facts)
    provenance.update(source_provenance())
    provenance["nproc"] = len(os.sched_getaffinity(0))
    provenance["seed"] = seed
    provenance["workload"] = {"name": name, **spec}
    metrics = {}
    for m in metric_specs(bench, trace):
        value = report["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"metric {m['name']} missing or not a number")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted, failed = int(facts["attempted"]), int(facts["failed"])
    out(f"perfbench {name} seed={seed} trace={trace} "
        f"({json.dumps(spec, sort_keys=True)})")
    readable = READABLE[spec["mode"]] if not trace else {}
    for mname, m in metrics.items():
        label = readable.get(mname, mname)
        alias = f"  (= {mname})" if label != mname else ""
        out(f"  {label:<32} {m['value']:>16.6g} {m['unit']}{alias}")
    out(f"  {'fail_ratio':<32} {failed / attempted:>16.6g} ratio"
        f"  ({failed} of {attempted} {'calls' if spec['mode'] == 'load' else 'checks'})")
    for failure in failures:
        out(f"  GATE FAILED: {failure}")
    out("RESULT " + json.dumps({"provenance": provenance, "facts": facts,
                                "samples": report.get("samples", {}),
                                "metrics": metrics}, sort_keys=True))
    out(json.dumps({"correct": not failures, "attempted": attempted,
                    "failed": failed,
                    "metrics": metrics}))
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not build():
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, run_workload(name, WORKLOADS[name], args.seed,
                                          seconds, args.trace, bench))
    return status


if __name__ == "__main__":
    sys.exit(main())
