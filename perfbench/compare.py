#!/usr/bin/env python3
"""Paired A/B compare of two pqd builds on the benchmark's workloads.

    python3 perfbench/compare.py --a SIDE --b SIDE [--workloads W,W]
        [--pairs 10] [--seed 1000]

A SIDE is a source tree (a directory with Cargo.toml and crates/, built
with `cargo build --release` into its own target directory under
.bench_build/ab/) or a pqd executable. Both sides run with this
checkout's benchmark code and settings, each run as long as
BENCHMARK.json's run_seconds. For each workload the pairs are
interleaved and alternate which side goes first; pair i uses seed
SEED+i on both sides. For every end-to-end metric the report gives each
side's median and quartiles, the share of pairs B wins, and a verdict
(gain, no change, regression or unresolved; see stats.verdict).
Exits 1 if any run fails its answer checks.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def resolve(side, label):
    """The pqd executable for a side, building a source tree if needed."""
    side = os.path.abspath(side)
    if os.path.isfile(side) and os.access(side, os.X_OK):
        return side
    if not os.path.isfile(os.path.join(side, "Cargo.toml")):
        sys.exit(f"compare: {side} is neither a pqd executable nor a source tree")
    target = os.path.join(ROOT, ".bench_build", "ab", label)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--offline", "--release", "-p", "pq-engine", "--bin", "pqd"],
        cwd=side,
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"compare: building pqd in {side} failed")
    return os.path.join(target, "release", "pqd")


def run_once(pqd, workload, seed, seconds):
    """One end-to-end run; returns its metrics {name: value}, or None."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--pqd", pqd],
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--a", required=True, help="baseline: source tree or pqd executable")
    parser.add_argument("--b", required=True, help="change: source tree or pqd executable")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    args = parser.parse_args()
    if args.pairs < 10:
        print("compare: note: the verdict rule expects at least 10 pairs", file=sys.stderr)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    sides = {"A": resolve(args.a, "a"), "B": resolve(args.b, "b")}
    print(f"# A = {args.a}\n# B = {args.b}\n# pairs={args.pairs} seconds={seconds} seed={args.seed}")

    failures = 0
    for workload in workloads:
        pairs = {m["name"]: [] for m in declared["end_to_end"]}
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            runs = {side: run_once(sides[side], workload, args.seed + i, seconds) for side in order}
            if runs["A"] is None or runs["B"] is None:
                failures += 1
                print(f"# {workload} pair {i} seed={args.seed + i}: a run failed")
                continue
            for name in pairs:
                pairs[name].append((runs["A"][name], runs["B"][name]))
            values = {side: " ".join(f"{n}={v:.6g}" for n, v in runs[side].items()) for side in runs}
            print(f"# {workload} pair {i} seed={args.seed + i} first={order[0]} A: {values['A']} | B: {values['B']}")
        print(f"\n## {workload}")
        print(f"{'metric':24s} {'A q1/med/q3':>30s} {'B q1/med/q3':>30s} {'B wins':>7s}  verdict")
        for m in declared["end_to_end"]:
            data = pairs[m["name"]]
            if not data:
                print(f"{m['name']:24s} no complete pairs")
                continue
            a = stats.quartiles([x for x, _ in data])
            b = stats.quartiles([y for _, y in data])
            share = stats.win_share(data, m["better"])
            verdict = stats.verdict(data, m["better"], m["bound"])
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            print(f"{m['name']:24s} {fmt.format(*a):>30s} {fmt.format(*b):>30s} {share:7.0%}  {verdict}")
    if failures:
        print(f"\n# {failures} pair(s) dropped: a run failed (see stderr)")
        sys.exit(1)


if __name__ == "__main__":
    main()
