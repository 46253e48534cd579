#!/usr/bin/env python3
"""Benchmark of the entangle-tl verifier, driven through its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 25 --trace 0

The workload runs in its own child process (perfbench/child.py), so its peak
RSS is its own; BLAS and OpenMP threads are pinned in that child.  Set-up
time is measured in fresh interpreters.  Details of the run go to
``.perfbench_out/`` and to the lines printed before the last one; the last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run.  The exit code is 0 only when the run
completed; failed checks still exit 0 and show as ``correct: false``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS/OpenMP threads in every child.  At most nproc; one thread keeps the
# figures steady on a small shared machine.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up is timed in fresh interpreters, half before the workload and half
# after it, so each run's median samples the machine at both ends of the run.
SETUP_SPAWNS = 12
CHILD_GRACE_S = 120

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import entangle_tl.cli as cli
cli.build_parser()
t1 = time.perf_counter()
if not cli.__file__.startswith(sys.argv[1]):
    sys.exit("entangle_tl imported from " + cli.__file__)
print(repr(t1 - t0))
"""

ENV_CODE = """
import json, sys, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": numpy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "python": sys.version.split()[0]}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ENTANGLE_TL_SEED", None)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_child(argv, timeout) -> str:
    """Run a child Python to completion and return its stdout; raise on a
    non-zero exit.  subprocess.run kills and reaps the child on timeout."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def setup_seconds(spawns: int) -> list[float]:
    return [float(run_child(["-c", SETUP_CODE, SRC + os.sep], 60).strip().splitlines()[-1])
            for _ in range(spawns)]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "entangle_tl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="entangle-tl verifier benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "entangle_tl", "cli.py")):
        print(f"error: no program to measure: {SRC}/entangle_tl/cli.py is missing", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setups = setup_seconds(SETUP_SPAWNS // 2)
        child_out = run_child(
            [os.path.join(HERE, "child.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--src", SRC],
            args.seconds + CHILD_GRACE_S)
        child = json.loads(child_out.strip().splitlines()[-1])
        setups += setup_seconds(SETUP_SPAWNS - SETUP_SPAWNS // 2)
        environment = json.loads(run_child(["-c", ENV_CODE], 60).strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    environment.update({
        "blas_threads": THREADS, "nproc": os.cpu_count(), "platform": platform.platform(),
        "seed": args.seed, "git_commit": git_commit(), "source_sha256": source_digest(),
    })
    attempted, failed = child["attempted"], len(child["failures"])
    passes = child["pass_s"]
    if args.trace == 0:
        residual = child["max_residual"]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(passes), "s"),
            "peak_rss_mb": metric(child["peak_rss_mb"], "MiB"),
            "max_residual_neglog10": metric(
                -math.log10(max(residual or 0.0, sys.float_info.min)), "digits"),
        }
    else:
        metrics = child["layer_metrics"]
    details = {
        "workload": args.workload, "environment": environment,
        "sample_counts": {"setup_s": len(setups), "wall_s": len(passes)}, "samples": {
            "setup_s": setups, "pass_s": passes, "traced_pass_s": child.get("traced_pass_s"),
            "command_s": child["command_s"]},
        "fail_ratio": failed / attempted, "failures": child["failures"][:20],
        "skipped": child["skipped"], "commands": child["commands"],
        "max_residual": child["max_residual"], "spans": child.get("spans"),
        "span_file": child.get("span_file"),
        "self_test_calls": child.get("self_test_calls"),
    }
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1)
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
