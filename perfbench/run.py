#!/usr/bin/env python3
"""RDAL benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/rdal_bench.exe with
dune, then runs repetitions of the workload (one process each, all with
the same seed) until S seconds have passed, checks that the outputs of
every repetition are correct and that the deterministic counters agree
across repetitions (and, with --trace 1, between traced and untraced
repetitions), and prints a report followed, as the last line, by one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics. Wall-clock metrics are
expressed at reference speed: each set-up, and each stretch of a run,
is divided by the time of the fixed reference chunks run next to it
and multiplied by REF_CHUNK_S (see README.md). Exit code 1 on a build
failure, a crashed repetition, a failed output check or a determinism
mismatch.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "rdal_bench.exe")

# Seconds one reference chunk is taken to last: a wall time is reported
# as its raw seconds times REF_CHUNK_S over the seconds of the chunks
# run next to it. About what the chunk takes on a 2-core Xeon VM.
REF_CHUNK_S = 2e-3

WORKLOADS = ("capacity", "wide", "failover", "explore")

# a repetition must finish well inside the benchmark's time limit
REP_TIMEOUT_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an RDAL checkout (no dune-project or lib/ here)")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/rdal_bench.exe"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def rep(workload, seed, traced):
    cmd = [EXE, "--workload", workload, "--seed", str(seed)] + (["--trace"] if traced else [])
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("repetition timed out: " + " ".join(cmd))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("repetition failed: " + " ".join(cmd))
    return json.loads(r.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values)


def scaled_setup_s(reps):
    """Median set-up time over every set-up of every repetition, each
    scaled by the chunk run just before it."""
    return median(s * REF_CHUNK_S / c
                  for r in reps for s, c in zip(r["setup_s"], r["setup_cal"]))


def scaled_segments(r):
    """A repetition's run time cut into segments at reference speed: a
    segment is scaled by the mean of the chunks on either side of it
    (the first and last by their one neighbour)."""
    out = []
    for run in r["runs"]:
        segs, cal = run["segments"][::-1], run["chunks"][::-1]
        for i, s in enumerate(segs):
            before = cal[i - 1] if i > 0 else cal[0]
            after = cal[i] if i < len(cal) else cal[-1]
            out.append(s * REF_CHUNK_S * 2 / (before + after))
    return out


def scaled_run_s(reps):
    """Run time at reference speed: every repetition of a run has the same
    seed, so the same chunk points, and the k-th segments of all of them
    did the same work; the run time is the sum over k of their median."""
    per_rep = [scaled_segments(r) for r in reps]
    if len({len(segs) for segs in per_rep}) != 1:
        fail("repetitions of one seed ran different numbers of segments")
    return sum(median(col) for col in zip(*per_rep))


def chunk_median(r):
    return median(c for run in r["runs"] for c in run["chunks"])


def det_mismatches(reps, drop=()):
    """Names of det counters that differ between repetitions."""
    first = {k: v for k, v in reps[0]["det"].items() if k not in drop}
    bad = set()
    for r in reps[1:]:
        other = {k: v for k, v in r["det"].items() if k not in drop}
        for k in set(first) | set(other):
            if first.get(k) != other.get(k):
                bad.add(k)
    return sorted(bad)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()

    # Repetitions until the time is up: untraced ones only, or, traced,
    # alternately untraced and traced (the untraced ones give the
    # counters the traced ones must equal, and the tracing overhead).
    start = time.monotonic()
    plain, traced = [], []
    while True:
        plain.append(rep(args.workload, args.seed, False))
        if args.trace:
            traced.append(rep(args.workload, args.seed, True))
        if time.monotonic() - start >= args.seconds:
            break
    reps = plain + traced

    failures = sorted({f for r in reps for f in r["failures"]})
    # minor words are per domain: explore judges on two
    drop = ("run.minor_words",) if args.workload == "explore" else ()
    mismatched = det_mismatches(reps, drop)
    for name in mismatched:
        failures.append("deterministic counter %s differs between repetitions" % name)
    correct = all(r["correct"] for r in reps) and not mismatched

    report = dict(plain[-1]["report"])
    e2e = {
        "setup_s": (scaled_setup_s(plain), "s", sum(len(r["setup_s"]) for r in plain)),
        "ops_per_s": (plain[-1]["ops"] / scaled_run_s(plain), "1/s", len(plain)),
        "live_heap_mb": (median(r["report"]["live_heap_mb"][0] for r in plain), "MB", len(plain)),
    }
    rate = "schedules_per_s" if args.workload == "explore" else "tasks_per_s"

    print("workload %s  seed %d  %d repetitions%s" % (
        args.workload, args.seed, len(plain), " + %d traced" % len(traced) if traced else ""))
    for name, (v, unit, n) in e2e.items():
        alias = "  (%s)" % rate if name == "ops_per_s" else ""
        print("  %-28s %14.6g %-6s samples %d%s" % (name, v, unit, n, alias))
    for name, (v, unit, n) in report.items():
        if name not in e2e:
            print("  %-28s %14.6g %-6s samples %d" % (name, v, unit, n))
    print("  raw run_s (median)           %14.6g s" % median(r["run_s"] for r in plain))
    print("  raw setup_s (median)         %14.6g s" % median(median(r["setup_s"]) for r in plain))
    print("  reference chunk (median)     %14.6g s" % median(chunk_median(r) for r in plain))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print("  operations attempted %d, failed %d" % (attempted, failed))
    for f in failures:
        print("  CHECK FAILED: " + f)

    metrics = {}
    if args.trace:
        layer = {name: median(r["layer"][name] for r in traced) for name in traced[-1]["layer"]}
        raw = median(r["run_s"] for r in plain)
        layer["run.raw_s"] = raw
        layer["trace.overhead_s"] = median(r["run_s"] for r in traced) - raw
        for m in spec["per_layer"]:
            if m["name"] not in layer:
                fail("per-layer metric %s not produced" % m["name"])
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        for name, why in traced[-1]["unmeasured"].items():
            print("  not measured here: %-30s %s" % (name, why))
        print("  spans written to perfbench/out/%s-%d.spans.jsonl" % (args.workload, args.seed))
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": e2e[m["name"]][0], "unit": m["unit"]}

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
