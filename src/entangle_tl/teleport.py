"""Teleportation and dense-coding equations.

Covers the standard qubit expansion in the Bell basis, its rewrites through
the entangling matrix B and through the swap/virtual-crossing form, the
measurement formulation at general dimension, the qudit resolution summing
those measurement branches, a Monte Carlo protocol simulation, and the
characteristic trace equations of the tight schemes.

The B-matrix and virtual-crossing forms are identities of linear maps of
Charlie's qubit, and each is compared as one: the 8 x 2 matrix psi -> output,
formed with the 2 x 2 identity in place of |psi>.  Both sides are linear in
psi, so maps that agree agree on every |psi>, and no ket is sampled.

measurement_form is the one place the measurement branches are computed: one
contraction returns Bob's branches (<Omega_n| x 1)(|psi> x |Omega>) for all
d^2 outcomes as the rows of one array, after checking the measurement
equation, and the branch weights and the simulator reuse that array.  The
rank-one projectors omega and omega_n are contracted as kets, and every sum
over n is one product (the qudit resolution) or linalg.contract call per block
of the stacked basis (the tight-scheme terms, the dense-coding table).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .braid import braid_teleport_config, teleport_swap
from .linalg import DEFAULT_TOL, identity, kron
from .maxent import WeylBasis, omega, omega_kets, resolve_basis, weyl_basis
from .maxent import omega_n  # noqa: F401  unused here; perfbench's test_tracer_rebinds_aliases_and_defaults wraps it
from .qubit import BellKind, bell_matrix, bell_state, pauli, permutation_qubit, sigma_vec_11
from .report import VerificationReport


def _require_unit(v, d: int, what="state"):
    v = linalg.as_ket(v, d, "psi")
    if abs(linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError(f"{what} must be normalized")
    return v


def _bell_corrections() -> list[tuple[BellKind, np.ndarray]]:
    # Branch corrections of the qubit teleportation equation, in Bell order.
    return [
        (BellKind.PHI_PLUS, identity(2)),
        (BellKind.PHI_MINUS, pauli(3)),
        (BellKind.PSI_PLUS, pauli(1)),
        (BellKind.PSI_MINUS, -1j * pauli(2)),
    ]


def teleport_equation_qubit_check(a: complex, b: complex, tol: float = DEFAULT_TOL) -> VerificationReport:
    """|psi>_C |phi+>_AB = (1/2) sum over Bell branches with corrections
    (1, s3, s1, -i s2)."""
    psi = _require_unit(np.array([a, b], dtype=np.complex128), 2, "(a, b)")
    report = VerificationReport("teleport-equation-qubit")
    lhs = linalg.kron_vec(psi, bell_state(BellKind.PHI_PLUS))
    rhs = np.zeros(8, dtype=np.complex128)
    for kind, corr in _bell_corrections():
        rhs += linalg.kron_vec(bell_state(kind), corr @ psi) / 2
        # project the CA pair onto this Bell state and compare Bob's factor
        got = (kron(bell_state(kind).conj().reshape(1, 4), identity(2)) @ lhs).ravel()
        report.add(f"branch {kind.value}: coefficient 1/2 with correction", linalg.max_residual(got, corr @ psi / 2), tol)
    report.add("full Bell-basis expansion", linalg.max_residual(lhs, rhs), tol)
    return report


# |00>, |01>, |10>, |11> as 4 x 1 columns, each paired with its entry of sigma_vec_11()
_KET00, _KET01, _KET10, _KET11 = (linalg.product_ket(2, i, j)[:, None] for i in (0, 1) for j in (0, 1))
_SIGMA_TERMS = tuple(zip((_KET00, _KET01, _KET10, _KET11), sigma_vec_11()))
_ONE2 = identity(2)


def _vec_sigma_expansion(prefix: np.ndarray) -> np.ndarray:
    """The 8 x 2 map psi -> (1/2) sum_k |v_k> x (prefix sigma_k psi) over the
    product kets v = (|00>, |01>, |10>, |11>) and the correction vector
    (s3, s1, i s2, 1)."""
    return sum(0.5 * kron(ket, prefix @ op) for ket, op in _SIGMA_TERMS)


def _report(name: str, identities, tol: float) -> VerificationReport:
    """One check per (identity, L, R) of 8 x 2 maps, at max|L - R|."""
    report = VerificationReport(name)
    for identity_name, lhs, rhs in identities:
        report.add(identity_name, linalg.max_residual(lhs, rhs), tol)
    return report


def bell_matrix_form_check(tol: float = DEFAULT_TOL) -> VerificationReport:
    """The B-form of the teleportation equation and its three resource-state
    variants, including the (B^-1 x 1)(1 x B) configuration forms.

    Each identity is compared as the 8 x 2 map psi -> output, formed from the
    2 x 2 identity in place of |psi> (column j is the output for |j>).  Both
    sides are linear in psi, so equal maps give equal outputs for every psi,
    and the residual max|L - R| is the worst over |0> and |1>."""
    b = bell_matrix()
    config = braid_teleport_config(b)
    one_b, b_one = kron(_ONE2, b), kron(b, _ONE2)
    start, expansion = kron(_ONE2, _KET11), _vec_sigma_expansion(_ONE2)  # psi x |11>, v x sigma/2 psi
    lhs_m = one_b @ kron(_ONE2, _KET00)
    return _report("teleport-bell-matrix-form", [
        ("phi+ resource: (1xB)(psi x |11>) = (Bx1)(v x sigma/2 psi)", one_b @ start, b_one @ expansion),
        ("phi+ resource: configuration form", config @ start, expansion),
        ("phi- resource: (1xB)(psi x |00>) = psi x phi-",
         lhs_m, kron(_ONE2, bell_state(BellKind.PHI_MINUS)[:, None])),
        ("phi- resource: (Bx1) form with s3 corrections", lhs_m, b_one @ _vec_sigma_expansion(pauli(3))),
        ("psi+ resource: configuration form with s1 corrections",
         config @ kron(_ONE2, _KET01), _vec_sigma_expansion(pauli(1))),
        ("psi- resource: configuration form with -i s2 corrections",
         config @ kron(_ONE2, -_KET10), _vec_sigma_expansion(-1j * pauli(2))),
    ], tol)


def virtual_form_check(tol: float = DEFAULT_TOL) -> VerificationReport:
    """The swap/virtual-crossing form of the teleportation equation and its
    variants, plus the teleportation-swapping equivalence, each compared as
    the 8 x 2 map psi -> output as in bell_matrix_form_check."""
    b = bell_matrix()
    one_p, b_one = kron(_ONE2, permutation_qubit()), kron(b, _ONE2)
    swap_op = teleport_swap(2)  # (P x 1)(1 x P)
    ops = {kind: one_p - sub for kind, sub in (  # 1xP minus the subtraction term
        (BellKind.PHI_PLUS, kron(_ONE2, kron(pauli(2), pauli(2)))),
        (BellKind.PHI_MINUS, kron(_ONE2, kron(pauli(1), pauli(1)))),
        (BellKind.PSI_PLUS, kron(_ONE2, kron(pauli(3), pauli(3)))),
        (BellKind.PSI_MINUS, identity(8)))}
    identities = []
    for kind, op in ops.items():
        bell = bell_state(kind)[:, None]
        start = kron(bell, _ONE2)  # bell x psi
        rhs = op @ start
        identities += [(f"{kind.value} resource: (1xP - subtraction) form", kron(_ONE2, bell), rhs),
                       (f"{kind.value} resource: teleport-swap equivalence", rhs, swap_op @ start)]
    base = kron(_KET11, _ONE2)  # |11> x psi
    lhs_mix = kron(_ONE2, b) @ swap_op @ base
    target = kron(_ONE2, bell_state(BellKind.PHI_PLUS)[:, None])  # psi x phi+
    return _report("teleport-virtual-form", identities + [
        ("virtual mixed relation on |11> x psi", lhs_mix, swap_op @ b_one @ base),
        ("left side via (1xB)(Px1)(1xP)", lhs_mix, target),
        ("right side via (1xP - s2s2)(Bx1)", ops[BellKind.PHI_PLUS] @ b_one @ base, target),
    ], tol)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot of each row pair to the bit: a stacked (1 x k) @ (k x 1) runs numpy's dot loop."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def measurement_form(d: int, psi, basis: WeylBasis | None = None) -> np.ndarray:
    """Bob's unnormalized branches (<Omega_n| x 1)(|psi> x |Omega>), row n - 1
    for outcome n, after checking (|Omega_n><Omega_n| x 1)(|psi> x |Omega>) =
    (1/d)|Omega_n> x U_n^dag|psi> for every n.  The projector is rank one on CA,
    so the residual is max|Omega_n| max|branch_n - U_n^dag psi / d|, a guard
    held to DEFAULT_TOL (ValueError above it), not a check held to --tol."""
    basis = basis if basis is not None else weyl_basis(d)
    psi = _require_unit(psi, d)
    kets = omega_kets(d, basis)
    state = np.outer(psi, omega(d)).reshape(d * d, d)  # |psi>_C x |Omega>_AB, row CA and column B
    branches = np.einsum("nk,kb->nb", kets.conj(), state)  # numpy's loop, not BLAS: keeps simulate's bits
    expected = psi @ basis.unitaries.conj() / d  # row n - 1 is U_n^dag psi / d
    residual = float(np.max(np.abs(kets).max(axis=1) * np.abs(branches - expected).max(axis=1)))
    if residual > DEFAULT_TOL:
        raise ValueError(f"measurement identity violated: residual {residual:.3e}")
    return branches


def branch_weights_check(d: int, psi, basis: WeylBasis | None = None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Every measurement outcome n has branch weight 1/d^2."""
    report = VerificationReport("measurement-form")
    weights = np.linalg.norm(measurement_form(d, psi, basis), axis=1) ** 2
    report.add("branch weight 1/d^2 for every outcome", float(np.max(np.abs(weights - 1 / d ** 2))), tol)
    return report


def qudit_resolution_check(d: int, psi, basis: WeylBasis | None = None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """|psi> x |Omega> = (1/d) sum_n |Omega_n> x U_n^dag |psi>: K^T times the rows U_n^dag psi / d."""
    basis = basis if basis is not None else weyl_basis(d)
    psi = _require_unit(psi, d)
    report = VerificationReport("qudit-resolution")
    lhs = linalg.kron_vec(psi, omega(d))
    rhs = omega_kets(d, basis).T @ (psi @ basis.unitaries.conj() / d)  # row CA, column B
    report.add("psi x Omega = sum of measurement branches / d", linalg.max_residual(lhs, rhs.reshape(-1)), tol)
    return report


@dataclass(frozen=True)
class SimulationResult:
    d: int
    seed: int
    trials: int
    histogram: list[int]
    min_fidelity: float

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "seed": self.seed,
            "trials": self.trials,
            "histogram": list(self.histogram),
            "min_fidelity": self.min_fidelity,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _draw_counts(seed: int, probs: np.ndarray, trials: int) -> np.ndarray:
    """np.bincount(default_rng(seed).choice(probs.size, trials, p=probs)) to the bit (see simulate)."""
    rng, size = np.random.default_rng(seed), probs.size
    rng.choice(size, 0, p=probs)  # choice's own refusals (NaN, negative, sum off 1); draws nothing
    cdf = np.concatenate(([0.0], probs.cumsum()))  # 0, then choice's cdf
    cdf /= cdf[-1]
    counts = np.zeros(size, dtype=np.int64)
    for lo in range(0, trials, 2 ** 14):  # blocks of 2^14 keep the temporaries small
        u = rng.random(min(2 ** 14, trials - lo))
        guess = np.minimum((u * size).astype(np.int64), size - 1)
        miss = (u < cdf[guess]) | (u >= cdf[guess + 1])
        guess[miss] = cdf[1:].searchsorted(u[miss], side="right")
        counts += np.bincount(guess, minlength=size)
    return counts


def simulate(d: int, psi, basis: WeylBasis | None = None, trials: int = 1024, seed: int = 0) -> SimulationResult:
    """Sample measurement outcomes, apply Bob's correction, record fidelity.

    The branches come from one measurement_form call and each outcome's probability is its
    branch weight (1/d^2 each).  The outcomes are drawn by indexed search (Chen & Asau 1974)
    over Generator.choice's cdf and uniforms: u's outcome is guessed as floor(u d^2), kept when
    cdf[g - 1] <= u < cdf[g] (then it is the index choice's search returns) and searched when
    not, so the histogram is choice's to the bit (numpy 2.4).  The corrected state depends
    only on the outcome, so it and its fidelity are formed once per outcome that occurred;
    every corrected state reproduces psi, so min_fidelity stays at 1 up to roundoff.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    basis = basis if basis is not None else weyl_basis(d)
    psi = _require_unit(psi, d)
    branches = measurement_form(d, psi, basis)
    # np.linalg.norm of each row to the bit: it too sums two real dot products
    norms = np.sqrt(_row_dots(branches.real, branches.real) + _row_dots(branches.imag, branches.imag))
    counts = _draw_counts(seed, norms ** 2 / np.sum(norms ** 2), trials)
    seen = np.flatnonzero(counts)
    corrected = np.matmul(basis.unitaries[seen], (branches[seen] / norms[seen, None])[..., None])[..., 0]
    fidelities = np.abs(_row_dots(corrected, psi.conj())) ** 2  # |<psi|U_n branch_n / |branch_n|>|^2
    return SimulationResult(d=d, seed=seed, trials=trials, histogram=counts.tolist(),
                            min_fidelity=float(min(1.0, fidelities.min())))


def tight_teleportation_check(d: int, rho, obs, basis: WeylBasis | None = None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """sum_n tr((rho x omega)(omega_n x T_n(O))) = tr(rho O) with
    T_n(O) = U_n^dag O U_n, and each term equal to tr(rho O)/d^2.

    rho and O may be any d x d matrices (rank-one non-hermitian forms
    included); no positivity is assumed.  The terms form
    linalg.BLOCK_ENTRIES // d^2 at a time, so d <= 16 is one block (one
    linalg.contract call).
    """
    basis = basis if basis is not None else weyl_basis(d)
    rho, obs = linalg.as_operator(rho, d, "rho and O"), linalg.as_operator(obs, d, "rho and O")
    report = VerificationReport("tight-teleportation")
    target = np.trace(rho @ obs)
    w = omega(d).reshape(d, d)
    kets = omega_kets(d, basis).reshape(d * d, d, d)
    step = max(1, linalg.BLOCK_ENTRIES // d ** 2)
    blocks = []
    for lo in range(0, d * d, step):  # a block of terms, both projectors rank one:
        # rho on C, omega on AB, omega_n on CA, T_n(O) = U_n^dag O U_n on B
        u, k = basis.unitaries[lo:lo + step], kets[lo:lo + step]
        t_n = u.conj().transpose(0, 2, 1) @ obs @ u
        blocks.append(linalg.contract("cC,ab,AB,nCA,nca,nBb->n", rho, w, w.conj(), k, k.conj(), t_n))
    terms = np.concatenate(blocks)
    report.add("per-term value tr(rho O)/d^2", float(np.max(np.abs(terms - target / d ** 2))), tol)
    report.add("total sum = tr(rho O)", abs(terms.sum() - target), tol)
    return report


def dense_coding_table(d: int, basis: WeylBasis | None = None) -> np.ndarray:
    """The d^2 x d^2 table tr(omega (T_n x 1)(omega_m)) with
    (T_n x 1)(omega_m) = (U_n^dag x 1) omega_m (U_n x 1).

    omega and omega_m are rank one, so each entry is the squared modulus of
    <Omega|(U_n^dag x 1)|Omega_m>, formed for linalg.BLOCK_ENTRIES // d^2
    rows n at a time, so d <= 16 is one block."""
    basis = resolve_basis(d, basis)
    w = omega(d).reshape(d, d).conj()
    # omega_kets(d, basis) as K[a, x, m] = <x a|Omega_m>, laid out once as each block's matmul reads it
    k = np.divide(basis.unitaries.transpose(2, 1, 0), np.sqrt(d), order="C")
    step = max(1, linalg.BLOCK_ENTRIES // d ** 2)
    table = np.empty((d * d, d * d))
    for lo in range(0, d * d, step):
        u = basis.unitaries[lo:lo + step].conj()
        table[lo:lo + step] = np.abs(linalg.contract("ca,nxc,axm->nm", w, u, k)) ** 2
    return table


def dense_coding_check(d: int, basis: WeylBasis | None = None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """tr(omega (T_n x 1)(omega_m)) = delta_nm for all n, m; the details
    list the table itself, formatted only when the report is printed as text."""
    report = VerificationReport("dense-coding")
    table = dense_coding_table(d, basis)
    report.add("delta table", linalg.max_residual(table, np.eye(d * d)), tol)

    def lines():  # formatted for text reports only, one row at a time; the table is real
        yield f"delta table ({d * d}x{d * d}):"
        for row in table:
            yield "  " + " ".join(map("{:6.3f}".format, np.round(row, 12).tolist()))

    report.note(lines)
    return report
