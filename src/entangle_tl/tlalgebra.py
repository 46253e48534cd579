"""Temperley-Lieb / Brauer axiom checks and the eight-projector
quantum-information-flow evaluation.

Each TL and Brauer relation is one row of TL_RELATIONS or BRAUER_RELATIONS,
read by _relations once on the <= 4 strands it touches (n adds only names)
through a map from letter to factor.  On the dense side E is the maximally
entangled projector, or a stack of decorated ones, and v the swap, compared by
braid.relation_residual, which reads an empty word as the identity; on the
diagram side E is dg.e_gen, composed and compared by dg.structural_ratio.
check_tl_decorated compares its decorated diagram with the stack of decorated
projectors once, on the two strands it touches, and reports that residual at
every position; it takes basis elements in chunks whose two relation words
(braid.BLOCK columns of d^3 rows per element) hold linalg.BLOCK_ENTRIES
entries at most.  The flow diagram is its eight decorated projectors composed.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg
from . import diagram as dg
from .braid import BLOCK, Swap, embed, relation_residual, within_relation_limit
from .linalg import DEFAULT_TOL, identity
from .maxent import WeylBasis, clock, omega_projector, resolve_basis
from .report import VerificationReport

# Largest n of the TL and Brauer checks: each relation is formed once, but reported under O(n^2) names.
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


# Rows (name, positions, lhs, rhs, power): lhs = d^power rhs, words of letters at strand offsets ("v2 v1 E2", the
# rightmost acting first), at each (i, j) of "each" (i, i + 1), "up" (i, i + 1 < n) or "far" (i, j > i + 1); the name
# fills in {i}, {j} and the letter {x}.  A TL row's note names its diagram check, the scalars' ratio held to d^power;
# a row without one, whose two sides are one diagram, is held to ==.
TL_RELATIONS = (
    ("{x}_{i}^2 = {x}_{i}", "each", "E1 E1", "E1", 0, ": loop cancels cup/cap powers"),
    ("{x}_{i}{x}_{j}{x}_{i} = d^-2 {x}_{i}", "up", "E1 E2 E1", "E1", -2, ": half-power drop -4"),
    ("{x}_{j}{x}_{i}{x}_{j} = d^-2 {x}_{j}", "up", "E2 E1 E2", "E2", -2, ": half-power drop -4"),
    ("{x}_{i}{x}_{j} = {x}_{j}{x}_{i}", "far", "E1 E3", "E3 E1", 0, ""),
)
BRAUER_RELATIONS = (
    ("E_{i} v_{i} = E_{i}", "each", "E1 v1", "E1", 0),
    ("v_{i} E_{i} = E_{i}", "each", "v1 E1", "E1", 0),
    ("E_{i} v_{j} = v_{j} E_{i}", "far", "E1 v3", "v3 E1", 0),
    ("E_{j} v_{i} = v_{i} E_{j}", "far", "E3 v1", "v1 E3", 0),
    ("v_{j} v_{i} E_{j} = d E_{i} E_{j}", "up", "v2 v1 E2", "E1 E2", 1),
    ("E_{i} v_{j} v_{i} = d E_{i} E_{j}", "up", "E1 v2 v1", "E1 E2", 1),
    ("v_{i} v_{j} E_{i} = d E_{j} E_{i}", "up", "v1 v2 E1", "E2 E1", 1),
    ("E_{j} v_{i} v_{j} = d E_{j} E_{i}", "up", "E2 v1 v2", "E2 E1", 1),
)


@functools.cache
def _rows(table: tuple, n: int, x: str) -> tuple:
    """table's rows with a position on n strands as (names, lhs, rhs, power, *note), words as (letter, offset)."""
    at = {"each": [(i, i + 1) for i in range(1, n)], "up": [(i, i + 1) for i in range(1, n - 1)],
          "far": [(i, j) for i in range(1, n) for j in range(i + 2, n)]}
    return tuple((tuple(name.format(i=i, j=j, x=x) for i, j in at[positions]),
                  *(tuple((a[0], int(a[1:])) for a in word.split()) for word in (lhs, rhs)), *rest)
                 for name, positions, lhs, rhs, *rest in table if at[positions])


def _relations(table: tuple, n: int, x: str, letters: dict):
    """_rows(table, n, x) with each word's (letter, offset) pairs mapped to (letters[letter], offset)."""
    for names, lhs, rhs, *rest in _rows(table, n, x):
        yield names, [(letters[a], k) for a, k in lhs], [(letters[a], k) for a, k in rhs], *rest


def within_strand_range(n: int) -> None:
    """Refuse a strand count n outside 3..MAX_STRANDS, the one range of the TL and Brauer checks and --n."""
    if not 3 <= n <= MAX_STRANDS:
        raise ValueError(f"strand count needs 3 <= n <= {MAX_STRANDS}, got {n}")


def _projector(n: int, d: int) -> np.ndarray:
    """omega_projector(d), the letter E, once n and the 3-strand relations' size pass."""
    within_strand_range(n)
    within_relation_limit(d, 3)
    return omega_projector(d)


def _check_dense_relations(reports: list, w: np.ndarray, x: str, suffix: str, n: int, d: int, tol: float) -> None:
    """X_i hermitian and each TL relation into reports[k], for X_i = w[k] on
    strands (i, i+1): one stacked pass over the (k, d^2, d^2) stack w."""
    hermitian = linalg.max_residual(w, w.conj().swapaxes(-1, -2), axis=(-2, -1))
    checks = [(f"{x}_{i} hermitian{suffix}", hermitian) for i in range(1, n)]
    for names, lhs, rhs, power, _ in _relations(TL_RELATIONS, n, x, {"E": w}):
        residual = relation_residual(lhs, rhs, d ** power)
        checks += [(name + suffix, residual) for name in names]
    for k, report in enumerate(reports):
        for name, residuals in checks:
            report.add(name, residuals[k], tol)


def check_tl_axioms(n: int, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """E_i^dag = E_i and TL_RELATIONS on dense matrices and as diagrams, structure plus exact scalars."""
    report = VerificationReport(f"tl-axioms n={n} d={d}")
    _check_dense_relations([report], _projector(n, d)[None], "E", " (dense)", n, d, tol)
    gen = dg.e_gen(1, 2)  # formed once on the strands it touches, like each relation
    self_adjoint = dg.adjoint_diagram(gen) == gen
    for i in range(1, n):
        report.add_bool(f"E_{i} self-adjoint (diagram)", self_adjoint)
    for names, lhs, rhs, power, note in _relations(TL_RELATIONS, n, "E", {"E": dg.e_gen}):
        m = max(k for _, k in lhs + rhs) + 1
        # the rightmost generator acts first, so it goes on top
        left, right = (functools.reduce(dg.compose, [place(k, m) for place, k in reversed(word)])
                       for word in (lhs, rhs))
        ratio = dg.structural_ratio(left, right, d) if note else None
        ok = (ratio is not None and abs(ratio - d ** power) <= tol) if note else left == right
        for name in names:
            report.add_bool(f"{name} (diagram{note})", ok)
    return report


def check_tl_decorated(n: int, d: int, basis: WeylBasis | None = None,
                       tol: float = DEFAULT_TOL) -> list[VerificationReport]:
    """The decorated idempotents Et = (U_k x 1) E (U_k x 1)^dag satisfy the
    same axioms: one report per basis element k, each chunk of the basis
    checked in one stacked pass."""
    w = _projector(n, d)
    unitaries = resolve_basis(d, basis).unitaries
    step = max(1, linalg.BLOCK_ENTRIES // (2 * d ** 3 * min(BLOCK, d ** 3)))  # a relation's two blocks per element
    reports = [VerificationReport(f"tl-decorated n={n} d={d} basis={k}") for k in range(1, d * d + 1)]
    for lo in range(0, d * d, step):
        u = unitaries[lo:lo + step]
        left = np.kron(u, identity(d))
        wn = left @ w @ left.conj().swapaxes(-1, -2)
        chunk = reports[lo:lo + step]
        _check_dense_relations(chunk, wn, "Et", "", n, d, tol)
        # on the two strands it touches: on n strands both sides only gain identity strands
        residuals = linalg.max_residual(dg.evaluate(decorated_e_gen(1, 2, "u"), d, {"u": u}), wn, axis=(-2, -1))
        for report, residual in zip(chunk, residuals):
            for i in range(1, n):
                report.add(f"decorated diagram evaluates to Et_{i}", residual, tol)
    return reports


def check_brauer_mixed(n: int, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """BRAUER_RELATIONS, the mixed relations of the TL idempotents and the swaps, on dense matrices."""
    letters = {"E": _projector(n, d), "v": Swap(d)}
    report = VerificationReport(f"brauer-mixed n={n} d={d}")
    for names, lhs, rhs, power in _relations(BRAUER_RELATIONS, n, "E", letters):
        residual = relation_residual(lhs, rhs, d ** power)
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
