#!/usr/bin/env python3
"""Build and run the DISTINCT benchmark for one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Rust package of its own (perfbench/Cargo.toml) built
against the repository's crates. Two builds are kept side by side under
the cargo target directory (CARGO_TARGET_DIR, default .bench_build): the
plain one, and the traced one with the counting allocator installed.

--trace 0 runs the plain build and prints the end-to-end metrics that
BENCHMARK.json lists. --trace 1 runs the plain build and then the traced
build with the same arguments, and prints the per-layer metrics, plus
trace.overhead_pct (traced total_s against the plain one) and the update
latencies of the plain run. A per-layer metric the workload does not
exercise reads 0.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A build failure, a crash, or a
metric missing from the run exits non-zero without printing it; a run
whose output checks failed prints it and exits 1.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "distinct-perfbench"
# Per-layer metrics taken from the plain run: latencies the user sees.
FROM_PLAIN = ("update_ms_p50", "update_ms_p90", "update_ms_p90_beyond", "update_ms_samples")
# Every run after the build ends within this many seconds, both binaries
# of a traced run together.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir, traced):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--target-dir", target_dir]
    if traced:
        cmd += ["--features", "trace"]
    # Cargo's progress goes to stderr; keep stdout for the result line.
    proc = subprocess.run(cmd, stdout=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(target_dir, "release", BINARY)


def run(binary, args, traced, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail(f"out of time: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def pick(spec, sources, optional):
    """The listed metrics, each from the first source that has it."""
    out = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        found = next((s[name] for s in sources if name in s), None)
        if found is None:
            if not optional:
                fail(f"the run did not measure {name}")
            found = {"value": 0.0, "unit": unit}
        value = found["value"]
        if found["unit"] != unit:
            fail(f"{name} is in {found['unit']}, BENCHMARK.json says {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name} is not a finite number: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"run from the repository root: cannot read BENCHMARK.json ({e})")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Both builds, whatever --trace says: the first run in a checkout pays
    # for compiling both, and every later run finds them up to date. A
    # from-scratch build takes about half a minute on two cores, and a
    # traced laptop_updates run, near two minutes on its own, could not
    # also build and still end within the three minutes a run may take.
    plain_bin = build(target, traced=False)
    traced_bin = build(os.path.join(target, "trace"), traced=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    plain = run(plain_bin, args, traced=False, deadline=deadline)
    runs = [plain]
    if args.trace == 0:
        metrics = pick(spec["end_to_end"], [plain["metrics"]], optional=False)
    else:
        traced = run(traced_bin, args, traced=True, deadline=deadline)
        runs.append(traced)
        pm, tm = plain["metrics"], traced["metrics"]
        overhead = 100.0 * (tm["total_s"]["value"] / pm["total_s"]["value"] - 1.0)
        extra = {"trace.overhead_pct": {"value": overhead, "unit": "%"}}
        plain_only = {k: v for k, v in pm.items() if k in FROM_PLAIN}
        metrics = pick(spec["per_layer"], [extra, plain_only, tm], optional=True)
        # The decomposed calls must reproduce the entry points' answers.
        traced["attempted"] += 1
        if tm["pairwise_f1"]["value"] != pm["pairwise_f1"]["value"]:
            print("run.py: traced answers differ from the plain run", file=sys.stderr)
            traced["failed"] += 1
            traced["correct"] = False

    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
