#!/usr/bin/env python3
"""Run one benchmark workload cold and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stitch --seed 0 --seconds 15 --trace 0

The script builds perfbench/bench.exe with dune, then starts one fresh
bench.exe process per operation, so every operation pays its preparation
(see README.md). An untraced run (--trace 0) repeats operations until
--seconds have passed, at least twice (three times on grade, four on
prove), and reports the end-to-end metrics as medians. A traced run
(--trace 1) runs one untraced and one traced operation and reports the
per-layer metrics of the traced one.

Every operation's output is checked: the program's own invariants (inside
bench.exe), the committed expected output under perfbench/expected/ where
the inputs are the committed ones, and identical work counters across the
cold processes of one run. The last line of stdout is the result object;
the line before it records the host and the per-operation samples.
The metric names and units come from BENCHMARK.json at the checkout root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")

WORKLOADS = ("stitch", "sweep", "grade", "prove")
DEFAULT_SEED = 0  # bench.ml's default_seed: the committed outputs
SEED_FREE = ("sweep", "prove")  # fixed inputs: every seed has the committed outputs
# Operations per run, at least: the counter check needs two. A burst of
# load on the shared host slows single operations by 10-30%; the median of
# three or more drops such an operation, where the mean of two cannot.
# grade and prove, whose wall times moved most with the host's speed, take
# three and four; prove's four make its run about as long as stitch's two.
MIN_OPS = {"stitch": 2, "sweep": 2, "grade": 3, "prove": 4}

# Workloads whose traced run sets the domain-pool width to nproc. grade's
# fine-grained fault-simulation fan-out then runs and the pool layer is
# measured; its untraced runs keep tvs's default width, because at width
# nproc every domain competes with the shared host's other load, and its
# wall time moved by up to 1.75x within one set of runs.
TRACED_AT_NPROC = ("grade",)
RUN_LIMIT = 170.0  # seconds; a run must end within 180


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check_layout():
    for rel in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"{rel} not found: run from the root of a complete tvs checkout")


def metric_units():
    """The end-to-end and per-layer metrics of BENCHMARK.json: name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    # The shared dune cache lives outside the checkout: keep every write inside it.
    cmd = ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache", "disabled", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        fail("build failed")


def nproc():
    return len(os.sched_getaffinity(0))


def git_revision():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if (top.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def operation(workload, seed, trace, deadline, jobs=None):
    """One cold bench.exe process; returns its record, or one with an error."""
    cmd = [EXE, workload, "--seed", str(seed)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"error": "timed out", "elapsed": time.monotonic() - started}
    record = None
    if done.returncode == 0:
        try:
            record = json.loads(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            record = None
    if record is None:
        sys.stderr.write(done.stderr)
        return {"error": f"exit {done.returncode}", "elapsed": time.monotonic() - started}
    record["elapsed"] = time.monotonic() - started
    return record


def expected_path(workload, kind):
    return os.path.join(EXPECTED, f"{workload}.{kind}")


def read_expected(workload, kind):
    try:
        with open(expected_path(workload, kind), encoding="utf-8") as f:
            return f.read()
    except OSError:
        return None


def check(workload, seed, records):
    """Per-operation failure lists: invariants, committed output, counters."""
    committed = seed == DEFAULT_SEED or workload in SEED_FREE
    expected = read_expected(workload, "txt") if committed else None
    if committed and expected is None:
        fail(f"missing {expected_path(workload, 'txt')}")
    reference = next((r["counters"] for r in records if "error" not in r), None)
    checked = []
    for r in records:
        if "error" in r:
            checked.append([r["error"]])
            continue
        problems = list(r["failures"])
        if committed and r["output"] != expected:
            problems.append(f"output differs from expected/{workload}.txt")
        if r["counters"] != reference:
            problems.append("work counters differ between two cold runs of one commit")
        checked.append(problems)
    return checked


def counter_drift(workload, seed, counters):
    """Counters that moved against the committed record, where it applies."""
    if seed != DEFAULT_SEED and workload not in SEED_FREE:
        return None
    text = read_expected(workload, "counters.json")
    if text is None:
        return None
    recorded = json.loads(text)
    names = sorted(set(recorded) | set(counters))
    return {n: [recorded.get(n), counters.get(n)]
            for n in names if recorded.get(n) != counters.get(n)}


def median(values):
    return statistics.median(values) if values else 0.0


def setup_samples(records, key):
    return [v for r in records if "error" not in r for v in r["setup"][key]]


def main():
    ap = argparse.ArgumentParser(description="tvs benchmark: one workload, run cold")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    check_layout()
    end_to_end, per_layer = metric_units()
    build()

    start = time.monotonic()
    deadline = start + RUN_LIMIT
    records = []
    if args.trace:
        jobs = nproc() if args.workload in TRACED_AT_NPROC else None
        records.append(operation(args.workload, args.seed, False, deadline, jobs))
        records.append(operation(args.workload, args.seed, True, deadline, jobs))
    else:
        while (len(records) < MIN_OPS[args.workload]
               or time.monotonic() - start < args.seconds):
            longest = max((r["elapsed"] for r in records), default=0.0)
            if records and time.monotonic() + longest > deadline:
                break
            records.append(operation(args.workload, args.seed, False, deadline))

    problems = check(args.workload, args.seed, records)
    attempted = sum(r.get("ops", 1) for r in records)
    failed = sum(r.get("ops", 1) for r, p in zip(records, problems) if p)
    good = [r for r in records if "error" not in r]
    if not good:
        fail("no operation completed: " + "; ".join(p[0] for p in problems))

    if args.trace:
        untraced, traced = records
        layers = dict(traced.get("layers", {})) if "error" not in traced else {}
        for key in ("synth_s", "collapse_s", "podem_ctx_s"):
            layers["setup." + key] = median(setup_samples(good, key))
        if "error" not in untraced and "error" not in traced:
            layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        layers["fail_ratio"] = failed / attempted
        for key in per_layer:
            if key.startswith("podem."):  # only stitch's PODEM probe measures these
                layers.setdefault(key, 0.0)
        missing = [k for k in per_layer if k not in layers]
        if missing:
            fail("traced run lacks " + ", ".join(missing))
        metrics = {k: {"value": layers[k], "unit": u} for k, u in per_layer.items()}
    else:
        values = {
            "setup_s": median(setup_samples(good, "setup_s")),
            "wall_s": median([r["wall_s"] for r in good]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in end_to_end.items()}

    report = {
        "host": {"nproc": nproc(), "jobs": good[0]["jobs"],
                 "ocaml": good[0]["ocaml"], "git": git_revision()},
        "workload": args.workload,
        "seed": args.seed,
        "operations": [
            {"traced": bool(args.trace and i == 1), "wall_s": r.get("wall_s"),
             "setup_s": r.get("setup", {}).get("setup_s"), "peak_rss_mb": r.get("peak_rss_mb"),
             "problems": p}
            for i, (r, p) in enumerate(zip(records, problems))
        ],
        "counters": good[0]["counters"],
        "counter_drift": counter_drift(args.workload, args.seed, good[0]["counters"]),
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
