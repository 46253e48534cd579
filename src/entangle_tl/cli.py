"""Command-line harness: verification suites, the protocol simulator, the
eight-projector flow evaluator, and diagram rendering/serialization.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
The default seed is 0, overridable by the ENTANGLE_TL_SEED environment
variable; an explicit --seed always wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import braid, diagram, maxent, qubit, render, teleport, tlalgebra
from . import linalg
from .report import VerificationReport


@dataclass
class RunConfig:
    dimension: int = 2
    strands: int = 3
    tolerance: float = linalg.DEFAULT_TOL
    seed: int = 0


def _merge(name: str, reports: list[VerificationReport]) -> VerificationReport:
    merged = VerificationReport(name)
    for r in reports:
        for c in r.checks:
            prefix = f"{r.suite_name}: " if r.suite_name != name else ""
            merged.checks.append(type(c)(prefix + c.identity_name, c.max_residual, c.passed))
        if name != "all":  # `verify all` lists checks only, without the dense-coding table
            merged.details.extend(r.details)
    merged.checks.sort(key=lambda c: c.identity_name)
    return merged


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _random_unitary(rng, d):
    q, _ = np.linalg.qr(_random_matrix(rng, d))
    return q


def _random_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# One entry per suite: (cfg, rng) -> its reports.  `verify all` runs them in
# this order with one shared rng, so each entry must draw from it in a fixed
# order.


def _bell(cfg, rng):
    tol = cfg.tolerance
    return [qubit.check_local_unitary_relations(tol), qubit.check_bell_matrix_identities(tol),
            qubit.check_permutation_expansion(tol)]


def _braid(cfg, rng):
    d, tol = cfg.dimension, cfg.tolerance
    b = qubit.bell_matrix()
    reports = [braid.check_braid_closed_form(b, tol),
               braid.check_virtual_mixed(b, qubit.permutation_qubit(), tol)]
    if d != 2:
        reports.append(braid.check_braid_relation(braid.Swap(d), tol))
    return reports


def _virtual(cfg, rng):
    d, tol = cfg.dimension, cfg.tolerance
    return [braid.check_virtual_relations(braid.Swap(d), tol),
            braid.check_teleport_swapping(d, tol)]


def _maxent(cfg, rng):
    d, tol = cfg.dimension, cfg.tolerance
    m, mp = _random_matrix(rng, d), _random_matrix(rng, d)
    n1, n2, u, v = (_random_unitary(rng, d) for _ in range(4))
    return [maxent.completeness_check(d, tol=tol),
            maxent.slide_identity_check(m, d, tol),
            maxent.trace_identities_check(m, mp, n1, n2, d, tol),
            maxent.transfer_composition(u, v, d, tol),
            maxent.transfer_composition(u, u, d, tol)]


def _teleport(cfg, rng):
    d, tol = cfg.dimension, cfg.tolerance
    a, b = _random_ket(rng, 2)
    psi = _random_ket(rng, d)
    basis = maxent.weyl_basis(d)
    return [teleport.teleport_equation_qubit_check(a, b, tol),
            teleport.bell_matrix_form_check(tol),
            teleport.virtual_form_check(tol),
            teleport.qudit_resolution_check(d, psi, basis, tol),
            teleport.branch_weights_check(d, psi, basis, tol)]


def _tight(cfg, rng):
    d = cfg.dimension
    rho = np.outer(_random_ket(rng, d), _random_ket(rng, d).conj())
    obs = np.outer(_random_ket(rng, d), _random_ket(rng, d).conj())
    return [teleport.tight_teleportation_check(d, rho, obs, tol=cfg.tolerance)]


def _dense(cfg, rng):
    return [teleport.dense_coding_check(cfg.dimension, tol=cfg.tolerance)]


def _tl(cfg, rng):
    n, d, tol = cfg.strands, cfg.dimension, cfg.tolerance
    return [tlalgebra.check_tl_axioms(n, d, tol)] + tlalgebra.check_tl_decorated(3, d, tol=tol)


def _brauer(cfg, rng):
    return [tlalgebra.check_brauer_mixed(cfg.strands, cfg.dimension, cfg.tolerance)]


def _flow(cfg, rng):
    return [tlalgebra.check_flow(cfg.dimension, seed=cfg.seed, tol=cfg.tolerance)]


REGISTRY = {"bell": _bell, "braid": _braid, "virtual": _virtual, "maxent": _maxent,
            "teleport": _teleport, "tight": _tight, "dense": _dense, "tl": _tl,
            "brauer": _brauer, "flow": _flow}
SUITES = (*REGISTRY, "all")


def run_suite(suite: str, cfg: RunConfig) -> VerificationReport:
    rng = np.random.default_rng(cfg.seed)
    names = REGISTRY if suite == "all" else (suite,)
    return _merge(suite, [r for name in names for r in REGISTRY[name](cfg, rng)])


# ---------------------------------------------------------------------------
# argument handling


def _parse_psi(text: str, d: int) -> np.ndarray:
    """'uniform', 'basisK' or comma-separated amplitudes, held to linalg.as_state."""
    if text == "uniform":
        return np.ones(d, dtype=np.complex128) / np.sqrt(d)
    if text.startswith("basis"):
        try:
            k = int(text[len("basis"):])
        except ValueError:
            raise ValueError(f"a basis state is basisK with an integer K, got {text!r}") from None
        return linalg.basis_ket(d, k)
    return linalg.as_state([complex(p.strip().replace("i", "j")) for p in text.split(",")], d, "psi")


def _parse_pairs(entry, ndim: int, message: str) -> np.ndarray:
    """A JSON array of [re, im] pairs nested ndim deep, as complex entries;
    anything else (a number, a ragged or a malformed array) is a ValueError."""
    try:
        pairs = np.array(entry, dtype=np.float64)
    except (TypeError, ValueError):
        pairs = np.empty(0)
    if pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise ValueError(message)
    return pairs.view(np.complex128)[..., 0]


def _parse_operator(entry, d: int) -> np.ndarray:
    if isinstance(entry, str):
        name = entry.strip().lower()
        if name in ("identity", "i", "1"):
            return np.eye(d, dtype=np.complex128)
        if name in ("sigma1", "sigma2", "sigma3") and d == 2:
            return qubit.pauli(int(name[-1]))
        if name.startswith("weyl:"):
            try:
                a, b = (int(x) for x in name[len("weyl:"):].split(","))
            except ValueError:
                raise ValueError(f"a Weyl operator is weyl:a,b with integers a and b, got {entry!r}") from None
            return np.linalg.matrix_power(maxent.shift(d), a) @ np.linalg.matrix_power(maxent.clock(d), b)
        raise ValueError(f"unknown operator name {entry!r}")
    return linalg.as_operator(_parse_pairs(entry, 2, "an operator is a name or a matrix of [re, im] pairs"),
                              d, "operator")


def _emit(report: VerificationReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        sys.stdout.writelines(line + "\n" for line in report.lines())  # as printed, never held whole
    return 0 if report.overall_pass else 1


def cmd_verify(args) -> int:
    # one check for every suite, before any runs: `all` refuses a bad --n at once,
    # and the suites that never read it do not ignore it
    tlalgebra.within_strand_range(args.n)
    cfg = RunConfig(dimension=args.d, strands=args.n, tolerance=args.tol, seed=args.seed)
    return _emit(run_suite(args.suite, cfg), args.format)


def cmd_simulate(args) -> int:
    psi = _parse_psi(args.psi, args.d)
    result = teleport.simulate(args.d, psi, trials=args.trials, seed=args.seed)
    if args.format == "json":
        print(result.to_json())
    else:
        print(f"d={result.d} trials={result.trials} seed={result.seed}")
        print("outcome histogram:", result.histogram)
        print(f"min fidelity: {result.min_fidelity:.15f}")
    return 0


def _read_json(path: str):
    """The JSON document in the file at path, or a ValueError naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except ValueError as exc:  # not UTF-8, or an integer too long to convert
        raise ValueError(f"{path}: {exc}") from None


def cmd_flow(args) -> int:
    data = _read_json(args.spec)
    try:
        if not isinstance(data, dict):
            raise ValueError("the spec must be a JSON object")
        if not isinstance(data.get("operators", []), list):
            raise ValueError("operators must be a list")
        d = data.get("d", args.d)
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise ValueError(f"d must be a positive integer, got {json.dumps(d)}")
        linalg.within_limit(d * d, f"output of {d}^2")  # the closed flow's matrix, before any operator
        if "operators" not in data:
            raise ValueError("the spec has no operators: it needs a list of eight")
        ops = [_parse_operator(entry, d) for entry in data["operators"]]
        phi = (_parse_psi(data["phi"], d) if isinstance(data.get("phi"), str)
               else _parse_pairs(data["phi"], 1, "phi is a psi string or a list of [re, im] pairs")
               if "phi" in data else linalg.basis_ket(d, 0))
        out = tlalgebra.flow_apply(ops, phi, d)
        expected = tlalgebra.flow_closed_form(ops, phi, d)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{args.spec}: {exc}") from None
    residual = linalg.max_residual(out, expected)
    if args.format == "json":
        print(json.dumps({
            "d": d,
            "output": [[float(z.real), float(z.imag)] for z in out],
            "closed_form": [[float(z.real), float(z.imag)] for z in expected],
            "residual": residual,
        }, sort_keys=True))
    else:
        print("flow output vector:")
        for z in out:
            print(f"  {z.real:+.12f} {z.imag:+.12f}i")
        print(f"closed-form residual: {residual:.3e}")
    return 0 if residual <= args.tol else 1


def cmd_render(args) -> int:
    data = _read_json(args.diagram)
    try:
        diag = diagram.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{args.diagram}: {exc}") from None
    print(diagram.dumps(diag) if args.format == "json" else render.render(diag))
    return 0


def _positive_float(text: str) -> float:
    """--tol: nan would fail every check and inf pass every one, and a
    bound of zero or below is no tolerance."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _positive_int(text: str, least: int = 1, kind: str = "positive") -> int:
    """--d: a zero or negative dimension has no states to check; --seed takes
    least 0, as numpy's generators take no negative seed."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _env_seed() -> int:
    """The default seed, ENTANGLE_TL_SEED or 0, read afresh on every main()."""
    text = os.environ.get("ENTANGLE_TL_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"ENTANGLE_TL_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise ValueError(f"ENTANGLE_TL_SEED must be a non-negative integer, got {text!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: main() fills in an absent --seed."""
    parser = argparse.ArgumentParser(
        prog="entangle-tl",
        description="Verify teleportation / braid / Temperley-Lieb identities numerically.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=False, with_tol=True):
        p.add_argument("--d", type=_positive_int, default=2, help="local dimension (default 2)")
        if with_n:
            p.add_argument("--n", type=int, default=3,
                           help=f"strand count, 3..{tlalgebra.MAX_STRANDS} (default 3)")
        if with_tol:
            p.add_argument("--tol", type=_positive_float, default=linalg.DEFAULT_TOL)
        p.add_argument("--seed", type=lambda text: _positive_int(text, 0, "non-negative"))
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    common(p_verify, with_n=True)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="Monte Carlo teleportation protocol")
    common(p_sim, with_tol=False)
    p_sim.add_argument("--trials", type=int, default=1024)
    p_sim.add_argument("--psi", default="uniform",
                       help="comma-separated amplitudes, 'uniform', or 'basisK'")
    p_sim.set_defaults(func=cmd_simulate)

    p_flow = sub.add_parser("flow", help="evaluate the eight-projector flow")
    common(p_flow)
    p_flow.add_argument("--spec", required=True, help="JSON file with d and operators")
    p_flow.set_defaults(func=cmd_flow)

    p_render = sub.add_parser("render", help="ASCII-render a serialized diagram")
    p_render.add_argument("--diagram", required=True, help="diagram JSON file")
    p_render.add_argument("--format", choices=("text", "json"), default="text")
    p_render.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    try:
        seed = _env_seed()  # before parsing: a bad value exits 2 even beside --seed
        args = build_parser().parse_args(argv)
        args.seed = seed if vars(args).get("seed") is None else args.seed
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
