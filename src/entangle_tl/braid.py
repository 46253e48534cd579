"""Braid, virtual-braid and mixed relations for matrices acting on strand
pairs, plus the braid teleportation configuration and teleportation swapping.

A strand operator is a d^2 x d^2 matrix acting on two adjacent strands of a
d-dimensional system; embed() places it at position i of n strands.  The
relation checkers verify on the minimal strand counts that exercise each
relation (3 for adjacent relations, 4 for far commutativity): a violation at
higher n always restricts to these cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, DimensionError, identity
from .report import VerificationReport


@dataclass(frozen=True)
class StrandOperator:
    d: int
    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if m.shape != (self.d * self.d, self.d * self.d):
            raise DimensionError(
                f"strand operator for d={self.d} must be {self.d**2}x{self.d**2}, got {m.shape}"
            )
        object.__setattr__(self, "matrix", m)


def as_strand_operator(op) -> StrandOperator:
    """Coerce a StrandOperator or a bare d^2 x d^2 matrix."""
    if isinstance(op, StrandOperator):
        return op
    m = linalg.as_matrix(op)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("strand operator must be square")
    d = math.isqrt(m.shape[0])
    if d * d != m.shape[0]:
        raise DimensionError(f"matrix dimension {m.shape[0]} is not a perfect square")
    return StrandOperator(d, m)


def swap(d: int) -> np.ndarray:
    """The d-dimensional two-strand swap P_d |ij> = |ji>."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            p[j * d + i, i * d + j] = 1.0
    return p


def embed(op, i: int, n: int) -> np.ndarray:
    """1 x ... x op x ... x 1 with op on strands (i, i+1) of n, 1-based i."""
    so = as_strand_operator(op)
    if not 1 <= i <= n - 1:
        raise DimensionError(f"position {i} out of range for {n} strands")
    left = identity(so.d ** (i - 1))
    right = identity(so.d ** (n - i - 1))
    return linalg.kron_all(left, so.matrix, right)


def _inverse(so: StrandOperator) -> np.ndarray:
    if linalg.is_unitary(so.matrix):
        return so.matrix.conj().T
    # falls back to explicit inversion; raises LinAlgError when singular
    return np.linalg.inv(so.matrix)


def check_braid_relation(b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """b1 b2 b1 = b2 b1 b2 on 3 strands; b1 b3 = b3 b1 on 4 strands."""
    so = as_strand_operator(b)
    report = VerificationReport("braid-relation")
    b1, b2 = embed(so, 1, 3), embed(so, 2, 3)
    report.add("b1 b2 b1 = b2 b1 b2", linalg.max_residual(b1 @ b2 @ b1, b2 @ b1 @ b2), tol)
    c1, c3 = embed(so, 1, 4), embed(so, 3, 4)
    report.add("b1 b3 = b3 b1", linalg.max_residual(c1 @ c3, c3 @ c1), tol)
    return report


def check_braid_closed_form(b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """check_braid_relation plus b1 b2 b1 = b2 b1 b2 = (1 x b^2 + b^2 x 1)/sqrt(2),
    the closed form the Bell matrix B satisfies."""
    so = as_strand_operator(b)
    report = check_braid_relation(so, tol)
    b1, b2 = embed(so, 1, 3), embed(so, 2, 3)
    square, one = so.matrix @ so.matrix, identity(so.d)
    closed = (linalg.kron(one, square) + linalg.kron(square, one)) / np.sqrt(2)
    report.add("b1 b2 b1 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(b1 @ b2 @ b1, closed), tol)
    report.add("b2 b1 b2 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(b2 @ b1 @ b2, closed), tol)
    return report


def check_virtual_relations(v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """v^2 = 1, v1 v2 v1 = v2 v1 v2, far commutativity."""
    so = as_strand_operator(v)
    report = VerificationReport("virtual-relations")
    report.add("v^2 = 1", linalg.max_residual(so.matrix @ so.matrix, identity(so.d ** 2)), tol)
    v1, v2 = embed(so, 1, 3), embed(so, 2, 3)
    report.add("v1 v2 v1 = v2 v1 v2", linalg.max_residual(v1 @ v2 @ v1, v2 @ v1 @ v2), tol)
    w1, w3 = embed(so, 1, 4), embed(so, 3, 4)
    report.add("v1 v3 = v3 v1", linalg.max_residual(w1 @ w3, w3 @ w1), tol)
    return report


def check_virtual_mixed(b, v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """b2 v1 v2 = v1 v2 b1 on 3 strands; b and v far-commute on 4 strands."""
    bo, vo = as_strand_operator(b), as_strand_operator(v)
    if bo.d != vo.d:
        raise DimensionError("braid and virtual crossing must share the local dimension")
    report = VerificationReport("virtual-mixed")
    b1, b2 = embed(bo, 1, 3), embed(bo, 2, 3)
    v1, v2 = embed(vo, 1, 3), embed(vo, 2, 3)
    report.add("b2 v1 v2 = v1 v2 b1", linalg.max_residual(b2 @ v1 @ v2, v1 @ v2 @ b1), tol)
    c1, u3 = embed(bo, 1, 4), embed(vo, 3, 4)
    report.add("b1 v3 = v3 b1", linalg.max_residual(c1 @ u3, u3 @ c1), tol)
    return report


def braid_teleport_config(b) -> np.ndarray:
    """(b^-1 x 1)(1 x b) on 3 strands."""
    so = as_strand_operator(b)
    inv = StrandOperator(so.d, _inverse(so))
    return embed(inv, 1, 3) @ embed(so, 2, 3)


def teleport_swap(d: int) -> np.ndarray:
    """(P x 1)(1 x P): routes |ij> x |k> to |k> x |ij> cyclically."""
    p = StrandOperator(d, swap(d))
    return embed(p, 1, 3) @ embed(p, 2, 3)


def teleport_swap_reverse(d: int) -> np.ndarray:
    """(1 x P)(P x 1): the inverse cyclic routing |k> x |ij> to |ij> x |k>."""
    p = StrandOperator(d, swap(d))
    return embed(p, 2, 3) @ embed(p, 1, 3)


def check_teleport_swapping(d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """(P x 1)(1 x P)|ij>|k> = |k>|ij> on every basis ket, and back."""
    report = VerificationReport("teleport-swapping")
    ts, rev = teleport_swap(d), teleport_swap_reverse(d)
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                v = linalg.kron_vec(linalg.product_ket(d, i, j), linalg.basis_ket(d, k))
                w = linalg.kron_vec(linalg.basis_ket(d, k), linalg.product_ket(d, i, j))
                worst = max(worst, linalg.max_residual(ts @ v, w))
                worst = max(worst, linalg.max_residual(rev @ w, v))
    report.add("|k>|ij> = (Px1)(1xP)|ij>|k> and back", worst, tol)
    report.add("reverse undoes forward", linalg.max_residual(rev @ ts, identity(d ** 3)), tol)
    return report
