#!/usr/bin/env python3
"""Run one workload of the pqd benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        [--pqd PATH]

Builds pqd and the benchmark binary from the checkout this file sits in
(into $CARGO_TARGET_DIR, default .bench_build), then:

* --trace 0: the end-to-end run. One client connection drives pqd in a
  closed loop, checks every answer, and the end-to-end metrics are printed;
* --trace 1: a short end-to-end pass for the client-side per-layer metrics,
  then the in-process traced run for the others.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every answer
was right. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# pqd instances per end-to-end run, each measured for a share of the time.
SETUPS = 5
# Further set-ups per end-to-end run that are shut down at once; setup_s is
# the median over all SETUPS + SETUP_ONLY of them.
SETUP_ONLY = 10
# trace.coverage outside this band means the replay no longer follows
# Session::run's path, and fails the traced run.
COVERAGE_BAND = (0.9, 1.1)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def cargo(args, cwd):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(["cargo", *args], cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"cargo {' '.join(args)} failed in {cwd}")


def build(repo):
    """Build pqd from `repo` and the benchmark binary; return their paths."""
    if not os.path.isfile(os.path.join(repo, "Cargo.toml")) or not os.path.isdir(os.path.join(repo, "crates")):
        fail(f"{repo} holds no cargo workspace with crates/ to build pqd from")
    cargo(["build", "--offline", "--release", "-p", "pq-engine", "--bin", "pqd"], repo)
    cargo(["build", "--offline", "--release", "--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT)
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "pqd"), os.path.join(release, "perfbench")


def source_id():
    """The git commit, or, outside a git checkout, a hash of the sources."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "crates")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".rs", ".toml")):
                with open(os.path.join(base, name), "rb") as f:
                    digest.update(name.encode() + f.read())
    return "tree-" + digest.hexdigest()[:12]


def perfbench(binary, command, args, work):
    """Run `perfbench COMMAND`; return its JSON, or exit on failure."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    done = subprocess.run([binary, command, *args, "--work", work], capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"perfbench {command} failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_metric(values):
    pct, value = stats.tail(values)
    return value, f"p{pct:.1f}" if pct is not None else "max"


def end_to_end(raw):
    """The end-to-end metrics of one run, plus the figures only one
    workload has (printed, and reported per layer)."""
    ms = raw["query_ms"]
    ops = len(ms) + len(raw["insert_ms"])
    per_instance = stats.split(ms, raw["instance_queries"])
    q_tail, q_pcts = stats.median_tail(per_instance)
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "ops_per_s": (ops / raw["measured_s"], "1/s"),
        "query_p50_ms": (statistics.median(ms), "ms"),
        "query_tail_ms": (q_tail, "ms"),
        "server_cpu_ms_per_op": (1e3 * raw["server_cpu_s"] / ops, "ms"),
        "peak_rss_mib": (statistics.median(raw["peak_rss_mib"]), "MiB"),
    }
    pcts = "/".join(f"p{p:.1f}" if p is not None else "max" for p in q_pcts)
    counts = "/".join(str(len(part)) for part in per_instance)
    notes = [f"query samples={len(ms)} ({counts} per instance) tail=median of per-instance {pcts}"]
    extra = {
        "pqd.first_byte_ms": (statistics.median(raw["first_byte_ms"]), "ms"),
        "pqd.drain_ms": (statistics.median(raw["drain_ms"]), "ms"),
    }
    if raw["insert_ms"]:
        i_tail, i_label = tail_metric(raw["insert_ms"])
        extra["pqd.insert_p50_ms"] = (statistics.median(raw["insert_ms"]), "ms")
        extra["pqd.insert_tail_ms"] = (i_tail, "ms")
        extra["wal.storage_bytes_per_user_byte"] = (raw["storage_bytes"] / max(raw["user_bytes"], 1), "ratio")
        checkpoints = "+".join(f"{c:g}" for c in raw["checkpoints"])
        notes.append(f"insert samples={len(raw['insert_ms'])} tail=insert_{i_label} checkpoints={checkpoints}")
    if raw["wire_bytes"]:
        extra["net.wire_bytes_per_query"] = (statistics.median(raw["wire_bytes"]), "B")
        notes.append(f"cluster retries={raw['cluster_retries']:g}")
    return metrics, extra, notes


def checks(raw):
    """Workload-level checks beyond each answer."""
    problems = []
    if raw["workload"] == "ingest_mix" and min(raw["checkpoints"]) < 2:
        problems.append(f"a pqd instance completed fewer than 2 checkpoints: {raw['checkpoints']}")
    if raw["workload"] == "cluster_triangle" and len(raw["wire_bytes"]) != len(raw["query_ms"]):
        problems.append("a cluster RUN reported no bytes_on_wire")
    return problems


def reason_unmeasured(workload, metric):
    """Why the traced run has no samples of a per-layer metric."""
    layer = metric.split(".")[0]
    if layer == "pqd":
        return "no INSERTs on this workload"
    if layer in ("delta", "wal"):
        return "no writes on this workload"
    if layer in ("skew", "multiround"):
        return "no skew-aware or multi-round plan on this workload"
    if layer == "net":
        return "simulator backend on this workload"
    if workload == "skew_strategies":
        return "runs inside run_plan, which has no public per-stage seam for these strategies"
    if workload == "cluster_triangle" and layer == "mpc":
        return "fragments travel over TCP inside WorkerPool::execute (see net.round_ms)"
    if workload == "cluster_triangle":
        return "local joins run in the worker processes"
    return "not exercised on this workload"


def show(name, value, unit):
    print(f"{name:34s} {value:14.4f} {unit}")


def declared_metrics():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail(f"{path} is missing")
    with open(path) as f:
        declared = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in declared[kind]} for kind in ("end_to_end", "per_layer")}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pqd", help="use this pqd binary instead of building the checkout's")
    args = parser.parse_args()

    declared = declared_metrics()
    pqd, binary = build(ROOT)
    if args.pqd:
        pqd = os.path.abspath(args.pqd)
    work = os.path.join(target_dir(), "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--pqd", pqd]
    probe = json.loads(subprocess.run([binary, "probe"], capture_output=True, text=True, check=True).stdout)

    started = time.monotonic()
    if args.trace == 0:
        raw = perfbench(
            binary,
            "e2e",
            [*common, "--seconds", str(args.seconds), "--setups", str(SETUPS), "--setup-only", str(SETUP_ONLY)],
            work,
        )
    else:
        # Half the time for the client-side figures, half for the trace.
        half = str(args.seconds / 2)
        raw = perfbench(binary, "e2e", [*common, "--seconds", half, "--setups", "1"], work)
        traced = perfbench(binary, "trace", [*common, "--seconds", half], work)
    shutil.rmtree(work, ignore_errors=True)

    metrics, extra, notes = end_to_end(raw)
    problems = raw["errors"] + checks(raw)
    if args.trace == 1:
        problems += traced["errors"]
        layer = {name: value for name, (value, _) in extra.items()}
        layer.update(traced["metrics"])
        coverage = traced["trace_coverage"]
        layer["trace.coverage"] = coverage
        if not COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]:
            problems.append(f"trace.coverage {coverage:.3f} is outside {COVERAGE_BAND}: the replay has drifted from Session::run")
        kind = "per_layer"
    else:
        layer = {name: value for name, (value, _) in metrics.items()}
        kind = "end_to_end"
    for name in declared[kind]:
        if name not in layer:
            notes.append(f"unmeasured {name}: {reason_unmeasured(args.workload, name)} (reported as 0)")
    report = {name: layer.get(name, 0.0) for name in declared[kind]}

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} commit={source_id()} "
        f"nproc={probe['nproc']} host.parallel_capacity={probe['parallel_capacity']:.3f} "
        f"pqd_flags='{raw['pqd_flags']}' elapsed_s={time.monotonic() - started:.1f}"
    )
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in {**metrics, **extra}.items():
        show(name, value, unit)
    failed_ratio = raw["failed"] / max(raw["attempted"], 1)
    show("failed_ratio", failed_ratio, "ratio")
    show("host.parallel_capacity", probe["parallel_capacity"], "ratio")
    if args.trace == 1:
        for name, unit in declared["per_layer"].items():
            if name not in extra:
                show(name, report[name], unit)
    for problem in problems:
        print(f"# FAILED: {problem}")

    correct = not problems and raw["wrong"] == 0 and raw["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": declared[kind][name]} for name, value in report.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
