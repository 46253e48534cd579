"""Tests of the benchmark itself: the tracer sees every call, the checks
count bad output as failed, and the memory guard skips oversized commands.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import entangle_tl.cli as cli
from entangle_tl import braid, diagram, maxent, teleport, tlalgebra
from child import SELF_TEST_CALLS, PassRunner, run_command, tracer_self_test
from tracer import Tracer
from workloads import (Checker, Command, _verify, build, flow_closed_form, guard, load_manifest,
                       random_ket, random_unitary, write_flow_spec)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_counts_every_flow_call(tracer):
    assert tracer_self_test(cli, tracer) == SELF_TEST_CALLS


def test_tracer_rebinds_aliases_and_defaults(tracer):
    for owner, attr in ((tlalgebra, "embed"), (teleport, "kron"), (teleport, "weyl_basis"),
                        (teleport, "omega_n"), (cli, "run_suite")):
        assert hasattr(getattr(owner, attr), "__wrapped__"), f"{owner.__name__}.{attr}"
    assert tlalgebra.flow_apply.__wrapped__.__defaults__[0] is diagram.evaluate
    tracer.uninstall()
    assert tlalgebra.embed is braid.embed and not hasattr(braid.embed, "__wrapped__")
    assert tlalgebra.flow_apply.__defaults__[0] is diagram.evaluate
    assert teleport.weyl_basis is maxent.weyl_basis


def test_tracer_self_time_excludes_children(tracer):
    tracer.command_id = 0
    run_command(cli, ("verify", "flow", "--d", "2"))
    summary = tracer.summary([0])
    main = summary["cli.main"]
    assert main["calls"] == 1
    assert 0 <= main["self_s"] < main["total_s"]
    assert summary["diagram.evaluate"]["max_out_bytes"] == 16 * 2 ** 10


@pytest.fixture(scope="module")
def checker():
    return Checker(load_manifest(), {})


def test_verify_output_passes_and_a_doctored_report_fails(checker):
    cmd = _verify("all", 2, 5)
    code, out, _ = run_command(cli, cmd.argv)
    ok, residuals, reason = checker.check(cmd, code, out)
    assert ok, reason
    assert residuals and max(residuals) < 1e-10

    report = json.loads(out)
    report["checks"].pop(3)
    ok, _, reason = checker.check(cmd, 0, json.dumps(report))
    assert not ok and "manifest" in reason

    report = json.loads(out)
    report["overall_pass"] = False
    assert not checker.check(cmd, 0, json.dumps(report))[0]
    assert not checker.check(cmd, 1, out)[0]


def test_non_unitary_flow_spec_counts_as_failed(tmp_path):
    rng = np.random.default_rng(3)
    ops = [random_unitary(rng, 2) for _ in range(8)]
    ops[4] = ops[4] * 1.5
    phi = random_ket(rng, 2)
    path = str(tmp_path / "spec.json")
    write_flow_spec(path, ops, phi, 2)
    cmd = Command("flow", "flow --spec bad", ("flow", "--spec", path, "--format", "json"), d=2)
    code, out, _ = run_command(cli, cmd.argv)
    assert code == 2
    ok, _, reason = Checker({}, {"flow_expected": flow_closed_form(ops, phi, 2)}).check(cmd, code, out)
    assert not ok and reason == "exit code 2"


def test_plain_numpy_closed_form_matches_the_program():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        ops = [random_unitary(rng, d) for _ in range(8)]
        phi = random_ket(rng, d)
        want = tlalgebra.flow_closed_form(ops, phi, d)
        assert np.max(np.abs(flow_closed_form(ops, phi, d) - want)) <= 1e-12 * np.max(np.abs(want))


def test_sweep_flow_and_render_outputs_are_checked(tmp_path):
    cmds, refs = build("loops", 4, str(tmp_path))
    checker = Checker(load_manifest(), refs)
    flow, render_text, render_json = cmds[-3:]
    code, out, _ = run_command(cli, flow.argv)
    assert checker.check(flow, code, out)[0]
    data = json.loads(out)
    data["output"][0][0] += 1e-6
    assert not checker.check(flow, 0, json.dumps(data))[0]

    code, out, _ = run_command(cli, render_json.argv)
    assert checker.check(render_json, code, out)[0]
    assert not checker.check(render_json, 0, out.replace(" ", "", 1))[0]

    code, out, _ = run_command(cli, render_text.argv)
    assert checker.check(render_text, code, out)[0]
    assert not checker.check(render_text, 0, out + " ")[0]


def test_simulate_rules():
    cmd = Command("simulate", "simulate --d 2", ("simulate",), d=2, trials=10)
    checker = Checker({}, {})

    def out(hist, fid=1.0):
        return json.dumps({"histogram": hist, "min_fidelity": fid, "trials": 10})

    assert checker.check(cmd, 0, out([1, 2, 3, 4]))[0]
    assert not checker.check(cmd, 0, out([1, 2, 3, 5]))[0]        # sums to 11
    assert not checker.check(cmd, 0, out([4, 3, 3]))[0]           # 3 outcomes, not d^2
    assert not checker.check(cmd, 0, out([1, 2, 3, 4], 1 - 1e-9))[0]
    assert not checker.check(cmd, 0, out([2, 1, 3, 4]))[0]        # differs from the first pass


def test_memory_guard_skips_without_starting():
    big_flow, big_tl, small = _verify("flow", 8, 0), _verify("tl", 3, 0, n=9), _verify("flow", 2, 0)
    kept, skipped = guard([big_flow, big_tl, small])
    assert kept == [small]
    assert [s["label"] for s in skipped] == ["verify flow --d 8", "verify tl --d 3 --n 9"]
    assert skipped[0]["estimated_bytes"] == 16 * 8 ** 10

    class SpyCli:
        calls = []

        @staticmethod
        def main(argv):
            SpyCli.calls.append(tuple(argv))
            return cli.main(argv)

    runner = PassRunner(SpyCli, kept, Checker(load_manifest(), {}))
    runner.run_pass()
    assert SpyCli.calls == [small.argv]


def test_run_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "loops", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
