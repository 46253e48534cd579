"""Temperley-Lieb / Brauer axiom checks and the eight-projector
quantum-information-flow evaluation.

The TL idempotents are decorated diagrams and dense matrices E_i = 1 x ...
x omega x ... x 1 built from the maximally entangled projector; virtual
crossings are swaps on strand pairs.  Each of the 4 TL and 8 mixed Brauer
relations is formed once per calculus on the <= 4 strands it touches: there n
adds only names, never more or larger matrices or diagrams.  check_tl_decorated
evaluates one decorated diagram per position for a stack of basis elements at
a time, a (k, d^n, d^n) stack within linalg.BLOCK_ENTRIES entries.  The loop
parameter is d.  The flow diagram is its eight decorated projectors composed.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from . import diagram as dg
from .braid import Swap, embed, relation_residual
from .linalg import DEFAULT_TOL, identity
from .maxent import WeylBasis, clock, omega_projector, resolve_basis
from .report import VerificationReport

# Largest n of the TL and Brauer checks: each relation is formed once on <= 4
# strands in both calculi, but it is reported under O(n^2) names.
MAX_STRANDS = 64


def e_matrix(i: int, n: int, d: int) -> np.ndarray:
    """Dense TL idempotent: the omega projector on strands (i, i+1) of n."""
    return embed(omega_projector(d), i, n)


def v_matrix(i: int, n: int, d: int) -> np.ndarray:
    """Dense virtual crossing: the swap on strands (i, i+1) of n."""
    return embed(Swap(d), i, n)


def _cup(label: str) -> dg.DecoratedDiagram:
    return dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration(label, "plain"))


def _cap(label: str) -> dg.DecoratedDiagram:
    return dg.decorate(dg.cap_diagram(), 0, 0, dg.Decoration(label, "dagger"))


@functools.cache
def decorated_e_gen(i: int, n: int, op_label: str) -> dg.DecoratedDiagram:
    """e_gen with the local unitary on the emitted pair and its adjoint on
    the absorbed pair: evaluates to omega_n (x) identities."""
    return dg.place(dg.tensor(_cap(op_label), _cup(op_label)), i, n)


def _positions(n: int) -> tuple[list, list]:
    """The adjacent pairs (i, i+1) and the far pairs (i, j > i+1) of n strands."""
    return [(i, i + 1) for i in range(1, n - 1)], [(i, j) for i in range(1, n) for j in range(i + 2, n)]


def _tl_relations(n: int, d: int) -> list:
    """Each TL relation lhs = scale rhs with a position on n strands, once, as
    (lhs, rhs, scale, names): words list places on the strands it touches (the
    rightmost acts first), names every position's name ({x} the letter)."""
    up, far = _positions(n)
    relations = [
        ([1, 1], [1], 1, [f"{{x}}_{i}^2 = {{x}}_{i}" for i in range(1, n)]),
        ([1, 2, 1], [1], 1 / d ** 2, [f"{{x}}_{i}{{x}}_{j}{{x}}_{i} = d^-2 {{x}}_{i}" for i, j in up]),
        ([2, 1, 2], [2], 1 / d ** 2, [f"{{x}}_{j}{{x}}_{i}{{x}}_{j} = d^-2 {{x}}_{j}" for i, j in up]),
        ([1, 3], [3, 1], 1, [f"{{x}}_{i}{{x}}_{j} = {{x}}_{j}{{x}}_{i}" for i, j in far]),
    ]
    return [relation for relation in relations if relation[3]]


def _check_dense_relations(reports: list, w: np.ndarray, x: str, suffix: str,
                           n: int, d: int, tol: float) -> None:
    """X_i hermitian and each TL relation into reports[k], for X_i = w[k] on
    strands (i, i+1): one stacked pass over the (k, d^2, d^2) stack w."""
    hermitian = linalg.max_residual(w, w.conj().swapaxes(-1, -2), axis=(-2, -1))
    checks = [(f"{x}_{i} hermitian{suffix}", hermitian) for i in range(1, n)]
    for lhs, rhs, scale, names in _tl_relations(n, d):
        residual = relation_residual([(w, k) for k in lhs], [(w, k) for k in rhs], scale)
        checks += [(name.format(x=x) + suffix, residual) for name in names]
    for k, report in enumerate(reports):
        for name, residuals in checks:
            report.add(name, residuals[k], tol)


def check_tl_axioms(n: int, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """E_i^2 = E_i, E_i^dag = E_i, E_i E_{i+-1} E_i = d^-2 E_i and far
    commutativity, on dense matrices and as diagrams (structure plus exact
    scalar bookkeeping), each relation once on the strands it touches."""
    if not 3 <= n <= MAX_STRANDS:
        raise ValueError(f"adjacent TL relations need 3 <= n <= {MAX_STRANDS}, got {n}")
    report = VerificationReport(f"tl-axioms n={n} d={d}")
    _check_dense_relations([report], omega_projector(d)[None], "E", " (dense)", n, d, tol)
    gen = dg.e_gen(1, 2)  # formed once on the strands it touches, like each relation
    self_adjoint = dg.adjoint_diagram(gen) == gen
    for i in range(1, n):
        report.add_bool(f"E_{i} self-adjoint (diagram)", self_adjoint)
    for lhs, rhs, scale, names in _tl_relations(n, d):
        m = max(lhs + rhs) + 1
        # the rightmost generator acts first, so it goes on top
        left, right = (functools.reduce(dg.compose, [dg.e_gen(k, m) for k in reversed(word)])
                       for word in (lhs, rhs))
        if len(rhs) == 2:  # far commutativity: both sides are one diagram
            ok, why = left == right, ""
        else:
            ratio = dg.structural_ratio(left, right, d)
            ok = ratio is not None and abs(ratio - scale) <= tol
            why = ": loop cancels cup/cap powers" if len(lhs) == 2 else ": half-power drop -4"
        for name in names:
            report.add_bool(name.format(x="E") + f" (diagram{why})", ok)
    return report


def check_tl_decorated(n: int, d: int, basis: WeylBasis | None = None,
                       tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """The decorated idempotents Et = (U_k x 1) E (U_k x 1)^dag satisfy the
    same axioms: one report per basis element k, each chunk of the basis
    checked in one stacked pass."""
    if n < 3:
        raise ValueError("adjacent TL relations need n >= 3")
    unitaries = resolve_basis(d, basis).unitaries
    step = max(1, linalg.BLOCK_ENTRIES // d ** (2 * n))
    reports = [VerificationReport(f"tl-decorated n={n} d={d} basis={k}") for k in range(1, d * d + 1)]
    for lo in range(0, d * d, step):
        u = unitaries[lo:lo + step]
        left = np.kron(u, identity(d))
        wn = left @ omega_projector(d) @ left.conj().swapaxes(-1, -2)
        _check_dense_relations(reports[lo:lo + step], wn, "Et", "", n, d, tol)
        for i in range(1, n):
            # one expression, so no evaluated stack outlives its comparison
            residuals = linalg.max_residual(dg.evaluate(decorated_e_gen(i, n, "u"), d, {"u": u}),
                                            embed(wn, i, n), axis=(-2, -1))
            for report, residual in zip(reports[lo:lo + step], residuals):
                report.add(f"decorated diagram evaluates to Et_{i}", residual, tol)
    return reports


def check_brauer_mixed(n: int, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Mixed relations between the TL idempotents and the swap crossings:
    E_i v_i = v_i E_i = E_i, far commutativity, and the loop-parameter
    relations v_{i+-1} v_i E_{i+-1} = d E_i E_{i+-1} = E_i v_{i+-1} v_i."""
    if not 3 <= n <= MAX_STRANDS:
        raise ValueError(f"mixed adjacent relations need 3 <= n <= {MAX_STRANDS}, got {n}")
    report = VerificationReport(f"brauer-mixed n={n} d={d}")
    w, p = omega_projector(d), Swap(d)
    E1, E2, E3, v1, v2, v3 = (w, 1), (w, 2), (w, 3), (p, 1), (p, 2), (p, 3)
    up, far = _positions(n)
    relations = [  # each once on the strands it touches
        ([E1, v1], [E1], 1, [f"E_{i} v_{i} = E_{i}" for i in range(1, n)]),
        ([v1, E1], [E1], 1, [f"v_{i} E_{i} = E_{i}" for i in range(1, n)]),
        ([E1, v3], [v3, E1], 1, [f"E_{i} v_{j} = v_{j} E_{i}" for i, j in far]),
        ([E3, v1], [v1, E3], 1, [f"E_{j} v_{i} = v_{i} E_{j}" for i, j in far]),
        ([v2, v1, E2], [E1, E2], d, [f"v_{j} v_{i} E_{j} = d E_{i} E_{j}" for i, j in up]),
        ([E1, v2, v1], [E1, E2], d, [f"E_{i} v_{j} v_{i} = d E_{i} E_{j}" for i, j in up]),
        ([v1, v2, E1], [E2, E1], d, [f"v_{i} v_{j} E_{i} = d E_{j} E_{i}" for i, j in up]),
        ([E2, v1, v2], [E2, E1], d, [f"E_{j} v_{i} v_{j} = d E_{j} E_{i}" for i, j in up]),
    ]
    for lhs, rhs, scale, names in relations:
        if names:  # no far pair on 3 strands
            residual = relation_residual(lhs, rhs, scale)
            for name in names:
                report.add(name, residual, tol)
    return report


# ---------------------------------------------------------------------------
# the eight-projector information flow


FLOW_LABELS = tuple(f"u{i}" for i in range(1, 9))

# The flow's projectors top to bottom, each as (label, 1-based strand i of its pair).
FLOW_LAYERS = (("u8", 4), ("u6", 2), ("u7", 3), ("u4", 3), ("u5", 2), ("u2", 2), ("u3", 3), ("u1", 1))


def flow_diagram() -> dg.DecoratedDiagram:
    """The five-strand eight-projector flow diagram: the decorated projectors
    of FLOW_LAYERS composed, each on top of the ones below it.

    Each projector is a cap decorated by U^dag over a cup decorated by U.
    The input zigzags through one arc of each in label order; the leftover
    arcs of projectors 2 and 5, and of 4 and 7, close into the loops (U5^T,
    U2^*) and (U7^T, U4^*), of traces tr(U2^dag U5) and tr(U4^dag U7); the
    remaining four arcs reach the boundary.  Each of the sixteen arcs carries
    d^(-1/2).  Building from the bottom up keeps tr(U2^dag U5) the first loop.
    """
    layers = [decorated_e_gen(i, 5, label) for label, i in FLOW_LAYERS]
    return functools.reduce(lambda below, above: dg.compose(above, below), reversed(layers))


@functools.cache
def closed_flow_diagram() -> dg.DecoratedDiagram:
    """flow_diagram() with its four boundary projectors resolved: cups
    decorated by U6 and U8 feed the absorbed arcs on top, caps decorated by
    U1^dag and U3^dag close the emitted arcs below.

    The result is the (1, 1) diagram of the closed form: one strand carrying
    U8^T U7^dag U6^T U5^* U4 U3^dag U2^T U1^dag, flow_diagram()'s loops of
    traces tr(U2^dag U5) and tr(U4^dag U7), four unitarity loops
    tr(U^* U^T) = d and the scalar d^-10.
    Built once: every diagram type is frozen, so callers share it safely.
    """
    one = dg.identity_diagram(1)
    feed = dg.tensor(dg.tensor(one, _cup("u6")), _cup("u8"))
    close = dg.tensor(dg.tensor(_cap("u1"), _cap("u3")), one)
    return dg.compose(dg.compose(feed, flow_diagram()), close)


def _check_flow_ops(ops, d: int) -> list[np.ndarray]:
    """The eight operators as d x d matrices or equal-shape stacks of them, checked
    unitary by one linalg.as_operators; the first bad operator is named."""
    if len(ops) != 8:
        raise ValueError("the flow takes exactly eight operators")
    return linalg.as_operators(ops, d, [f"operator {k}" for k in range(1, 9)], stacked=True, unitary=True)


def flow_closed_form(ops, phi, d: int) -> np.ndarray:
    """(1/d^6) tr(U2^dag U5) tr(U4^dag U7)
    (U8^T U7^dag U6^T U5^* U4 U3^dag U2^T U1^dag) |phi>, one output per
    stacked octuple when the operators are (..., d, d) stacks and phi (..., d)."""
    u = _check_flow_ops(ops, d)
    phi = linalg.as_ket(phi, d, "phi", stacked=True)
    t = [m.swapaxes(-1, -2) for m in u]
    chain = t[7] @ t[6].conj() @ t[5] @ u[4].conj() @ u[3] @ t[2].conj() @ t[1] @ t[0].conj()
    t1 = np.trace(t[1].conj() @ u[4], axis1=-2, axis2=-1)
    t2 = np.trace(t[3].conj() @ u[6], axis1=-2, axis2=-1)
    return (t1 * t2 / d ** 6)[..., None] * (chain @ phi[..., None])[..., 0]


def flow_apply(ops, phi, d: int, evaluator=dg.evaluate) -> np.ndarray:
    """The flow's output for the input |phi>: the d x d matrix of
    closed_flow_diagram(), from one evaluator call, applied to |phi>."""
    u = _check_flow_ops(ops, d)
    phi = linalg.as_ket(phi, d, "phi")
    return evaluator(closed_flow_diagram(), d, dict(zip(FLOW_LABELS, u))) @ phi


def check_flow(d: int, seed: int = 0, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Ten seeded random unitary octuples through both evaluators, held to tol,
    and the two exact cases, held to min(tol, 1e-12): no looser tol reaches them."""
    linalg.within_limit(d * d, f"output of {d}^2")  # the closed flow's matrix, before any draw
    report = VerificationReport(f"flow d={d}")
    rng = np.random.default_rng(seed)
    # drawn octuple by octuple (per unitary its Gaussian pair, then its phase angles;
    # phi last), then formed, factored and phased at once: q @ diag keeps each one's bits
    normals, angles = np.empty((10, 8, 2, d, d)), np.empty((10, 8, d))
    phis = np.empty((10, d), dtype=np.complex128)
    for j in range(10):
        for k in range(8):
            rng.standard_normal(out=normals[j, k])  # the draws of normal(size=...) and
            rng.random(out=angles[j, k])  # uniform(0, 2 pi, size=d) / (2 pi), in place
        phi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        phis[j] = phi / np.linalg.norm(phi)
    phases = np.exp(1j * (angles * (2 * np.pi)))[..., None] * identity(d)
    octuples = np.linalg.qr(normals[:, :, 0] + 1j * normals[:, :, 1])[0] @ phases
    expected = flow_closed_form(octuples.swapaxes(0, 1), phis, d)

    worst = {"evaluate": 0.0, "brute-force contraction": 0.0}
    for ops, phi, want in zip(octuples, phis, expected):  # each octuple through both evaluators
        for name, evaluator in zip(worst, (dg.evaluate, dg.brute_force_evaluate)):
            worst[name] = max(worst[name], linalg.max_residual(flow_apply(ops, phi, d, evaluator), want))
    for name, residual in worst.items():
        report.add(f"random octuples: {name} vs closed form", residual, tol)

    exact_tol, one, phi = min(tol, 1e-12), identity(d), linalg.basis_ket(d, 0)
    got = flow_apply([one] * 8, phi, d)
    report.add("all-identity: output = phi / d^4", linalg.max_residual(got, phi / d ** 4), exact_tol)
    if d >= 2:  # U_5 trace-orthogonal to U_2 = 1
        got = flow_apply([one] * 4 + [clock(d)] + [one] * 3, phi, d)
        report.add("orthogonal pair U2, U5: zero output", linalg.max_residual(got, np.zeros(d)), exact_tol)
    return report
