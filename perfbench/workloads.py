"""Workloads of the verifier benchmark, the inputs each one makes from its
seed, the memory guard, and the checks applied to every command's output.

Every command is argv for ``entangle_tl.cli.main``.  A command's label is
its argv without the seed and without generated file paths; labels key the
check-name manifest recorded in ``manifest.json``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST_PATH = os.path.join(HERE, "manifest.json")

# Largest dense complex128 array a command may build, estimated before it is
# started.  The flow at d=5 estimates 149 MiB and peaks near 490 MiB RSS;
# d=6 would estimate 923 MiB and is skipped, as is anything larger.
MEMORY_BUDGET_BYTES = 256 * 2 ** 20
BYTES_PER_ENTRY = 16

MIN_FIDELITY = 1 - 1e-12
# The flow output is compared with the plain-numpy closed form relative to
# the size of the expected vector, which shrinks like d^-4.
FLOW_REL_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    kind: str            # verify | simulate | flow | render
    label: str
    argv: tuple
    d: int = 2
    n: int = 3
    trials: int = 0


# Two workloads, not four. On a shared 2-core machine interpreter-bound
# figures drift with the host's load, and 27 s runs of the protocol and
# sweep commands each spread 17-29 % from seed to seed. Merged into one
# workload and run for 55 s, which the run budget allows for only two
# workloads, they spread 11-29 %.
WORKLOADS = {  # name: why it was chosen
    "dense": "Dense d^5 x d^5 flow evaluation (d=4,5) and d^n x d^n TL/Brauer/braid embeds and "
             "products: the BLAS-bound kernels ROADMAP items 2 and 3 replace; loops bypasses both.",
    "loops": "simulate at 1e5 trials, d^2-branch teleport loops at d=8, and verify all at d=2,3 "
             "with flow --spec and render: interpreter-bound loops and per-call overhead; catches "
             "small-size slowdowns.",
}


# ---------------------------------------------------------------------------
# commands and inputs


def _verify(suite: str, d: int, seed: int, n: int | None = None) -> Command:
    size = ["--d", str(d)] + (["--n", str(n)] if n is not None else [])
    label = " ".join(["verify", suite] + size)
    argv = ("verify", suite, *size, "--seed", str(seed), "--format", "json")
    return Command("verify", label, argv, d=d, n=n if n is not None else 3)


def _simulate(d: int, psi: str, psi_label: str, trials: int, seed: int) -> Command:
    label = f"simulate --d {d} --psi {psi_label} --trials {trials}"
    # --psi=... keeps argparse from reading a leading minus sign as an option
    argv = ("simulate", "--d", str(d), f"--psi={psi}", "--trials", str(trials),
            "--seed", str(seed), "--format", "json")
    return Command("simulate", label, argv, d=d, trials=trials)


def random_unitary(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_ket(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def flow_closed_form(ops, phi, d: int) -> np.ndarray:
    """(1/d^6) tr(U2^dag U5) tr(U4^dag U7)
    (U8^T U7^dag U6^T U5^* U4 U3^dag U2^T U1^dag) |phi>, in plain numpy."""
    u1, u2, u3, u4, u5, u6, u7, u8 = (np.asarray(u) for u in ops)
    vec = np.asarray(phi)
    for m in (u1.conj().T, u2.T, u3.conj().T, u4, u5.conj(), u6.T, u7.conj().T, u8.T):
        vec = m @ vec
    t1 = np.trace(u2.conj().T @ u5)
    t2 = np.trace(u4.conj().T @ u7)
    return t1 * t2 / d ** 6 * vec


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def write_flow_spec(path: str, ops, phi, d: int) -> None:
    spec = {"d": d, "operators": [[_pairs(row) for row in u] for u in ops], "phi": _pairs(phi)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)


def read_flow_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    ops = [np.array([[complex(*c) for c in row] for row in u]) for u in spec["operators"]]
    phi = np.array([complex(*c) for c in spec["phi"]])
    return ops, phi, spec["d"]


def build(name: str, seed: int, workdir: str) -> tuple[list[Command], dict]:
    """The workload's command list and the reference data its checks need.
    Everything random comes from ``seed``; files are written to ``workdir``."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    rng = np.random.default_rng(seed)

    def s() -> int:
        return int(rng.integers(2 ** 31 - 1))

    refs: dict = {}
    if name == "dense":
        cmds = [_verify("flow", 4, s()), _verify("flow", 5, s()),
                _verify("tl", 3, s(), n=6), _verify("brauer", 3, s(), n=6),
                _verify("tl", 2, s(), n=8), _verify("brauer", 2, s(), n=8),
                _verify("braid", 6, s()), _verify("virtual", 6, s())]
        return cmds, refs

    from entangle_tl import diagram, tlalgebra

    psi8 = ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in random_ket(rng, 8))
    d = 3
    spec_path = os.path.join(workdir, "flow_spec_d3.json")
    write_flow_spec(spec_path, [random_unitary(rng, d) for _ in range(8)], random_ket(rng, d), d)
    ops, phi, _ = read_flow_spec(spec_path)
    refs["flow_expected"] = flow_closed_form(ops, phi, d)
    diagram_path = os.path.join(workdir, "flow_diagram.json")
    text = diagram.dumps(tlalgebra.flow_diagram())
    with open(diagram_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    refs["diagram_text"] = text
    cmds = [_simulate(2, "0.6,0.8", "0.6,0.8", 100_000, s()),
            _simulate(8, psi8, "seeded", 100_000, s()),
            _verify("tight", 8, s()), _verify("dense", 8, s()), _verify("teleport", 8, s()),
            _verify("all", 2, s()), _verify("all", 3, s()),
            Command("flow", "flow --spec d3 --format json",
                    ("flow", "--spec", spec_path, "--seed", str(s()), "--format", "json"), d=d),
            Command("render", "render --format text", ("render", "--diagram", diagram_path)),
            Command("render", "render --format json",
                    ("render", "--diagram", diagram_path, "--format", "json"))]
    return cmds, refs


# ---------------------------------------------------------------------------
# memory guard

_SUITE_ENTRIES = {
    # largest dense array each suite builds, as a number of complex entries
    "bell": lambda d, n: 2 ** 8,
    "braid": lambda d, n: max(2 ** 8, d ** 8),       # embeds on 4 strands
    "virtual": lambda d, n: d ** 8,
    "maxent": lambda d, n: d ** 4,
    "teleport": lambda d, n: max(2 ** 6, d ** 6),    # measurement projector on 3 qudits
    "tight": lambda d, n: d ** 4,
    "dense": lambda d, n: d ** 4,
    "tl": lambda d, n: max(d ** (2 * n), d ** 6),    # embeds on n strands
    "brauer": lambda d, n: d ** (2 * n),
    "flow": lambda d, n: d ** 10,                    # d^5 x d^5 flow matrix
}


def estimated_bytes(cmd: Command) -> int:
    """Size of the largest dense array the command will build."""
    if cmd.kind == "verify":
        suite = cmd.argv[1]
        suites = list(_SUITE_ENTRIES) if suite == "all" else [suite]
        return BYTES_PER_ENTRY * max(_SUITE_ENTRIES[s](cmd.d, cmd.n) for s in suites)
    if cmd.kind == "flow":
        return BYTES_PER_ENTRY * cmd.d ** 10
    if cmd.kind == "simulate":
        return BYTES_PER_ENTRY * cmd.d ** 3
    return 0


def guard(cmds: list[Command], budget: int = MEMORY_BUDGET_BYTES) -> tuple[list[Command], list[dict]]:
    """Split commands into those within the budget and skipped records."""
    kept, skipped = [], []
    for cmd in cmds:
        size = estimated_bytes(cmd)
        if size > budget:
            skipped.append({"label": cmd.label, "estimated_bytes": size, "budget_bytes": budget})
        else:
            kept.append(cmd)
    return kept, skipped


# ---------------------------------------------------------------------------
# output checks


def load_manifest() -> dict:
    with open(MANIFEST_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Judges each command's output.  ``check`` returns (ok, residuals,
    reason); it remembers outputs that must repeat across passes."""

    def __init__(self, manifest: dict, refs: dict):
        self.manifest = manifest
        self.refs = refs
        self.first_output: dict[str, str] = {}

    def check(self, cmd: Command, code: int, out: str) -> tuple[bool, list[float], str]:
        if code != 0:
            return False, [], f"exit code {code}"
        try:
            return getattr(self, "_" + cmd.kind)(cmd, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return False, [], f"unreadable output: {exc!r}"

    def _verify(self, cmd, out):
        report = json.loads(out)
        checks = report["checks"]
        residuals = [float(c["max_residual"]) for c in checks]
        if report["overall_pass"] is not True:
            return False, residuals, "overall_pass is false"
        names = sorted(c["identity_name"] for c in checks)
        expected = self.manifest.get(cmd.label)
        if names != expected:
            return False, residuals, "check names differ from the manifest"
        return True, residuals, ""

    def _flow(self, cmd, out):
        data = json.loads(out)
        got = np.array([complex(*c) for c in data["output"]])
        want = self.refs["flow_expected"]
        if got.shape != want.shape:
            return False, [], "flow output has the wrong length"
        diff = float(np.max(np.abs(got - want)))
        if not diff <= FLOW_REL_TOL * float(np.max(np.abs(want))):
            return False, [diff], f"flow output differs from the closed form by {diff:.3e}"
        return True, [float(data["residual"])], ""

    def _simulate(self, cmd, out):
        data = json.loads(out)
        hist = data["histogram"]
        if len(hist) != cmd.d ** 2 or sum(hist) != cmd.trials or min(hist) < 0:
            return False, [], "histogram does not cover d^2 outcomes summing to trials"
        if not data["min_fidelity"] >= MIN_FIDELITY:
            return False, [], f"min_fidelity {data['min_fidelity']!r} below {MIN_FIDELITY}"
        return self._repeats(cmd, out)

    def _render(self, cmd, out):
        if "--format" in cmd.argv:
            if out != self.refs["diagram_text"] + "\n":
                return False, [], "json render does not round-trip the input"
            return True, [], ""
        if not out.strip():
            return False, [], "empty render"
        return self._repeats(cmd, out)

    def _repeats(self, cmd, out):
        first = self.first_output.setdefault(cmd.label, out)
        if out != first:
            return False, [], "output differs from the first pass at the same seed"
        return True, [], ""


def max_finite(values) -> float | None:
    finite = [v for v in values if math.isfinite(v)]
    return max(finite) if finite else None
