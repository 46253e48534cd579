"""The d=2 layer: Pauli matrices, Bell states, the 4x4 entangling matrix B
that generates them, and the qubit swap P with its Pauli expansion.

Convention: sigma1 = offdiag(1,1), sigma2 = offdiag(-i,i), sigma3 = diag(1,-1).
This is the unique choice under which the local-unitary relations among the
Bell states and the entries of B hold simultaneously (the test suite checks
exactly that).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, identity, kron
from .report import VerificationReport

_PAULI = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def pauli(k: int) -> np.ndarray:
    """sigma_k for k in 1..3; k=0 is the 2x2 identity."""
    if k not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {k}")
    return _PAULI[k].copy()


class BellKind(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_BELL = {
    BellKind.PHI_PLUS: np.array([1, 0, 0, 1], dtype=np.complex128) / math.sqrt(2),
    BellKind.PHI_MINUS: np.array([1, 0, 0, -1], dtype=np.complex128) / math.sqrt(2),
    BellKind.PSI_PLUS: np.array([0, 1, 1, 0], dtype=np.complex128) / math.sqrt(2),
    BellKind.PSI_MINUS: np.array([0, 1, -1, 0], dtype=np.complex128) / math.sqrt(2),
}


def bell_state(kind: BellKind) -> np.ndarray:
    return _BELL[kind].copy()


def bell_matrix() -> np.ndarray:
    """The 4x4 real orthogonal matrix whose columns generate the Bell basis."""
    return np.array(
        [
            [1, 0, 0, 1],
            [0, 1, -1, 0],
            [0, 1, 1, 0],
            [-1, 0, 0, 1],
        ],
        dtype=np.complex128,
    ) / math.sqrt(2)


def permutation_qubit() -> np.ndarray:
    """The two-qubit swap: P|ij> = |ji>."""
    return np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )


def sigma_vec_11() -> tuple[np.ndarray, ...]:
    """The correction vector (sigma3, sigma1, i*sigma2, 1) paired with the
    product kets |00>, |01>, |10>, |11> in the B-form of the teleportation
    equation."""
    return (pauli(3), pauli(1), 1j * pauli(2), pauli(0))


def check_local_unitary_relations(tol: float = DEFAULT_TOL) -> VerificationReport:
    """All six local-unitary relations carrying |phi+> to the other Bell states."""
    report = VerificationReport("bell-local-unitary")
    phi_plus = bell_state(BellKind.PHI_PLUS)
    one = identity(2)
    cases = [
        ("phi- = (1 x s3) phi+", kron(one, pauli(3)), BellKind.PHI_MINUS),
        ("phi- = (s3 x 1) phi+", kron(pauli(3), one), BellKind.PHI_MINUS),
        ("psi+ = (1 x s1) phi+", kron(one, pauli(1)), BellKind.PSI_PLUS),
        ("psi+ = (s1 x 1) phi+", kron(pauli(1), one), BellKind.PSI_PLUS),
        ("psi- = (1 x -i s2) phi+", kron(one, -1j * pauli(2)), BellKind.PSI_MINUS),
        ("psi- = (i s2 x 1) phi+", kron(1j * pauli(2), one), BellKind.PSI_MINUS),
    ]
    for name, op, target in cases:
        report.add(name, linalg.max_residual(op @ phi_plus, bell_state(target)), tol)
    return report


def check_bell_matrix_identities(tol: float = DEFAULT_TOL) -> VerificationReport:
    report = VerificationReport("bell-matrix")
    b = bell_matrix()
    one4 = identity(4)
    s1s2 = kron(pauli(1), pauli(2))

    closed_form = math.cos(math.pi / 4) * one4 + 1j * math.sin(math.pi / 4) * s1s2
    report.add("B = cos(pi/4) + i sin(pi/4) (s1 x s2)", linalg.max_residual(b, closed_form), tol)

    b2 = b @ b
    report.add("B^2 = i (s1 x s2)", linalg.max_residual(b2, 1j * s1s2), tol)
    report.add("B^4 = -1", linalg.max_residual(b2 @ b2, -one4), tol)
    report.add("B^8 = 1", linalg.max_residual(b2 @ b2 @ b2 @ b2, one4), tol)
    report.add("B = (1 + B^2)/sqrt(2)", linalg.max_residual(b, (one4 + b2) / math.sqrt(2)), tol)

    report.add("B B^T = 1", linalg.max_residual(b @ b.T, one4), tol)
    report.add("B^T B = 1", linalg.max_residual(b.T @ b, one4), tol)

    kets = {
        "B|11> = phi+": (b @ linalg.product_ket(2, 1, 1), BellKind.PHI_PLUS),
        "B|00> = phi-": (b @ linalg.product_ket(2, 0, 0), BellKind.PHI_MINUS),
        "B|01> = psi+": (b @ linalg.product_ket(2, 0, 1), BellKind.PSI_PLUS),
        "-B|10> = psi-": (-(b @ linalg.product_ket(2, 1, 0)), BellKind.PSI_MINUS),
    }
    for name, (got, target) in kets.items():
        report.add(name, linalg.max_residual(got, bell_state(target)), tol)
    return report


def check_permutation_expansion(tol: float = DEFAULT_TOL) -> VerificationReport:
    report = VerificationReport("qubit-permutation")
    p = permutation_qubit()
    for i in (0, 1):
        for j in (0, 1):
            got = p @ linalg.product_ket(2, i, j)
            report.add(f"P|{i}{j}> = |{j}{i}>", linalg.max_residual(got, linalg.product_ket(2, j, i)), tol)
    report.add("P^2 = 1", linalg.max_residual(p @ p, identity(4)), tol)

    expansion = identity(4)
    for k in (1, 2, 3):
        expansion = expansion + kron(pauli(k), pauli(k))
    report.add("P = (1 + sum_k sk x sk)/2", linalg.max_residual(p, expansion / 2), tol)
    return report
