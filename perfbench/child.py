"""Runs one workload in-process and prints its measurements as one JSON line.

Closed loop with one client: each ``entangle_tl.cli.main(argv)`` call starts
after the previous one returns, with stdout and stderr captured and checked.
Whole passes over the workload's command list repeat until the next pass
would end after ``--seconds``; at least one pass always runs.

With ``--trace 1`` untraced and traced passes alternate, so the traced
per-layer numbers and the tracing overhead come from the same process.

Started by run.py with the checkout's ``src`` on PYTHONPATH and BLAS threads
pinned; run it directly only for debugging.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402
from workloads import Checker, build, guard, load_manifest, max_finite  # noqa: E402

MIB = 2 ** 20

# Per-layer metrics reported by a traced run, as (span name, fields).
LAYER_METRICS = (
    ("diagram.evaluate", ("calls", "self_s", "out_mb", "max_out_mb")),
    ("diagram.brute_force_evaluate", ("calls", "self_s", "out_mb", "max_out_mb")),
    ("diagram.compose", ("calls", "self_s")),
    ("tlalgebra.flow_apply", ("calls", "self_s")),
    ("tlalgebra.flow_closed_form", ("self_s",)),
    ("tlalgebra.check_tl_axioms", ("self_s",)),
    ("tlalgebra.check_tl_decorated", ("self_s",)),
    ("tlalgebra.check_brauer_mixed", ("self_s",)),
    ("braid.embed", ("calls", "self_s", "out_mb", "max_out_mb")),
    ("braid.check_braid_relation", ("self_s",)),
    ("braid.check_virtual_relations", ("self_s",)),
    ("teleport.simulate", ("self_s", "trials_per_s")),
    ("teleport.tight_teleportation_check", ("self_s",)),
    ("teleport.dense_coding_table", ("self_s",)),
    ("teleport.measurement_form", ("calls", "self_s")),
    ("maxent.weyl_basis", ("calls", "self_s")),
    ("linalg.max_residual", ("calls", "self_s")),
    ("linalg.kron", ("calls", "self_s", "out_mb")),
    ("linalg.kron_all", ("calls", "self_s", "out_mb")),   # where braid.embed's time goes
    ("linalg.as_vector", ("calls", "self_s")),            # validation in the simulate loop
    ("linalg.as_matrix", ("calls", "self_s")),
    ("report.VerificationReport.add", ("calls", "self_s")),
    ("cli.run_suite", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("render.render", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "out_mb": "MiB", "max_out_mb": "MiB", "trials_per_s": "1/s"}

# `verify flow --d 2` runs 10 random octuples through both evaluators plus
# two special cases through the default one.
SELF_TEST_ARGV = ("verify", "flow", "--d", "2")
SELF_TEST_CALLS = {"tlalgebra.flow_apply": 22, "diagram.evaluate": 12, "diagram.brute_force_evaluate": 10}


def run_command(cli, argv) -> tuple[int, str, float]:
    """One CLI call with its output captured; returns (code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


class PassRunner:
    """Runs passes over the command list, checks every output and keeps the
    failures and residuals."""

    def __init__(self, cli, cmds, checker: Checker):
        self.cli, self.cmds, self.checker = cli, cmds, checker
        self.attempted = 0
        self.failures: list[dict] = []
        self.residuals: list[float] = []
        self.command_s: dict[str, list[float]] = {c.label: [] for c in cmds}

    def run_pass(self, on_command=None) -> float:
        total = 0.0
        for cmd in self.cmds:
            if on_command is not None:
                on_command(cmd)
            code, out, elapsed = run_command(self.cli, cmd.argv)
            total += elapsed
            self.command_s[cmd.label].append(elapsed)
            self.attempted += 1
            ok, residuals, reason = self.checker.check(cmd, code, out)
            self.residuals.extend(residuals)
            if not ok:
                self.failures.append({"label": cmd.label, "reason": reason})
        return total


def tracer_self_test(cli, tracer: Tracer) -> dict:
    """Calls traced by `verify flow --d 2`; raises if any differ from the
    count the suite makes."""
    tracer.command_id = -2
    code, _, _ = run_command(cli, SELF_TEST_ARGV)
    counts = tracer.counts(-2)
    got = {name: counts.get(name, 0) for name in SELF_TEST_CALLS}
    if code != 0 or got != SELF_TEST_CALLS:
        raise RuntimeError(f"tracer self-test failed: exit {code}, calls {got}, want {SELF_TEST_CALLS}")
    return got


def layer_metrics(tracer: Tracer, command_ids, passes: int, trials: int) -> dict:
    summary = tracer.summary(command_ids)
    metrics = {}
    for span, fields in LAYER_METRICS:
        row = summary.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                 "out_bytes": 0.0, "max_out_bytes": 0.0})
        for field in fields:
            if field == "calls":
                value = row["calls"] / passes
            elif field == "self_s":
                value = row["self_s"] / passes
            elif field == "out_mb":
                value = row["out_bytes"] / passes / MIB
            elif field == "max_out_mb":
                value = row["max_out_bytes"] / MIB
            else:  # trials_per_s
                value = trials / row["total_s"] if row["total_s"] > 0 else 0.0
            metrics[f"{span}.{field}"] = {"value": value, "unit": UNITS[field]}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True, help="the checkout's src directory")
    args = ap.parse_args(argv)

    import entangle_tl.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"error: entangle_tl imported from {cli.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    cmds, refs = build(args.workload, args.seed, args.workdir)
    cmds, skipped = guard(cmds)
    if not cmds:
        print("error: every command of the workload is over the memory budget", file=sys.stderr)
        return 2
    runner = PassRunner(cli, cmds, Checker(load_manifest(), refs))
    deadline = time.perf_counter() + args.seconds
    untraced: list[float] = []
    result = {"skipped": skipped}

    if args.trace == 0:
        while True:
            untraced.append(runner.run_pass())
            if time.perf_counter() + untraced[-1] > deadline:
                break
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        tracer = Tracer()
        traced: list[float] = []
        traced_ids: list[int] = []
        pass_trials = sum(c.trials for c in cmds)

        def tag(cmd):
            tracer.command_id += 1
            traced_ids.append(tracer.command_id)

        tracer.install()
        try:
            result["self_test_calls"] = tracer_self_test(cli, tracer)
            tracer.command_id = -1
            while True:
                tracer.uninstall()
                untraced.append(runner.run_pass())
                tracer.install()
                traced.append(runner.run_pass(on_command=tag))
                if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
                    break
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced_ids, len(traced), pass_trials * len(traced))
        metrics["trace_overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
        result["layer_metrics"] = metrics
        result["traced_pass_s"] = traced
        result["spans"] = len(tracer)
        span_path = os.path.join(args.workdir, "spans.npz")
        tracer.save(span_path)
        result["span_file"] = span_path

    result.update({
        "attempted": runner.attempted,
        "failures": runner.failures,
        "pass_s": untraced,
        "command_s": runner.command_s,
        "max_residual": max_finite(runner.residuals),
        "commands": [c.label for c in cmds],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
