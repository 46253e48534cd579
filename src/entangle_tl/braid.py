"""Braid, virtual-braid and mixed relations for matrices acting on strand
pairs, plus the braid teleportation configuration and teleportation swapping.

A strand operator is a d^2 x d^2 matrix acting on two adjacent strands of a
d-dimensional system; apply_on_strands() applies it at position i of n
strands in O(d^(n+2)) per column, never forming the d^n x d^n embedding, and
strand_product() (embed() with one factor) forms each side of a relation.
The relation checkers verify on the minimal strand counts that exercise each
relation (3 for adjacent relations, 4 for far commutativity): a violation at
higher n always restricts to these cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagram, linalg
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


def apply_on_strands(op, i: int, n: int, x) -> np.ndarray:
    """(1 x ... x op x ... x 1) @ x with op on strands (i, i+1) of n, 1-based
    i, for x with d^n rows; the embedding is never formed."""
    so = as_strand_operator(op)
    if not 1 <= i <= n - 1:
        raise DimensionError(f"position {i} out of range for {n} strands")
    x = np.asarray(x)
    if x.shape[0] != so.d ** n:
        raise DimensionError(f"operand has {x.shape[0]} rows, not {so.d}^{n}")
    blocks = x.reshape(so.d ** (i - 1), so.d * so.d, -1)
    return np.matmul(so.matrix, blocks).reshape(x.shape)


def strand_product(factors, n: int) -> np.ndarray:
    """The d^n x d^n product of (op, i) factors, written left to right and
    applied right to left to the identity."""
    d = as_strand_operator(factors[0][0]).d
    if d ** (2 * n) > diagram.MAX_OUTPUT_ENTRIES:
        raise DimensionError(
            f"strand product of {d}^{2 * n} entries exceeds {diagram.MAX_OUTPUT_ENTRIES}")
    out = identity(d ** n)
    for op, i in reversed(factors):
        out = apply_on_strands(op, i, n, out)
    return out


def embed(op, i: int, n: int) -> np.ndarray:
    """1 x ... x op x ... x 1 with op on strands (i, i+1) of n, 1-based i."""
    return strand_product([(op, i)], n)


def _inverse(so: StrandOperator) -> np.ndarray:
    if linalg.is_unitary(so.matrix):
        return so.matrix.conj().T
    # falls back to explicit inversion; raises LinAlgError when singular
    return np.linalg.inv(so.matrix)


def _residual(lhs, rhs, n: int) -> float:
    """Entrywise residual between two strand products on n strands."""
    return linalg.max_residual(strand_product(lhs, n), strand_product(rhs, n))


def check_braid_relation(b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """b1 b2 b1 = b2 b1 b2 on 3 strands; b1 b3 = b3 b1 on 4 strands."""
    so = as_strand_operator(b)
    report = VerificationReport("braid-relation")
    report.add("b1 b2 b1 = b2 b1 b2", _residual([(so, 1), (so, 2), (so, 1)],
                                                [(so, 2), (so, 1), (so, 2)], 3), tol)
    report.add("b1 b3 = b3 b1", _residual([(so, 1), (so, 3)], [(so, 3), (so, 1)], 4), tol)
    return report


def check_braid_closed_form(b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """check_braid_relation plus b1 b2 b1 = b2 b1 b2 = (1 x b^2 + b^2 x 1)/sqrt(2),
    the closed form the Bell matrix B satisfies."""
    so = as_strand_operator(b)
    report = check_braid_relation(so, tol)
    square, one = so.matrix @ so.matrix, identity(so.d)
    closed = (linalg.kron(one, square) + linalg.kron(square, one)) / np.sqrt(2)
    report.add("b1 b2 b1 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(strand_product([(so, 1), (so, 2), (so, 1)], 3), closed), tol)
    report.add("b2 b1 b2 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(strand_product([(so, 2), (so, 1), (so, 2)], 3), closed), tol)
    return report


def check_virtual_relations(v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """v^2 = 1, v1 v2 v1 = v2 v1 v2, far commutativity."""
    so = as_strand_operator(v)
    report = VerificationReport("virtual-relations")
    report.add("v^2 = 1", linalg.max_residual(so.matrix @ so.matrix, identity(so.d ** 2)), tol)
    report.add("v1 v2 v1 = v2 v1 v2", _residual([(so, 1), (so, 2), (so, 1)],
                                                [(so, 2), (so, 1), (so, 2)], 3), tol)
    report.add("v1 v3 = v3 v1", _residual([(so, 1), (so, 3)], [(so, 3), (so, 1)], 4), tol)
    return report


def check_virtual_mixed(b, v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """b2 v1 v2 = v1 v2 b1 on 3 strands; b and v far-commute on 4 strands."""
    bo, vo = as_strand_operator(b), as_strand_operator(v)
    if bo.d != vo.d:
        raise DimensionError("braid and virtual crossing must share the local dimension")
    report = VerificationReport("virtual-mixed")
    report.add("b2 v1 v2 = v1 v2 b1", _residual([(bo, 2), (vo, 1), (vo, 2)],
                                                [(vo, 1), (vo, 2), (bo, 1)], 3), tol)
    report.add("b1 v3 = v3 b1", _residual([(bo, 1), (vo, 3)], [(vo, 3), (bo, 1)], 4), tol)
    return report


def braid_teleport_config(b) -> np.ndarray:
    """(b^-1 x 1)(1 x b) on 3 strands."""
    so = as_strand_operator(b)
    return strand_product([(_inverse(so), 1), (so, 2)], 3)


def teleport_swap(d: int) -> np.ndarray:
    """(P x 1)(1 x P): routes |ij> x |k> to |k> x |ij> cyclically."""
    p = swap(d)
    return strand_product([(p, 1), (p, 2)], 3)


def teleport_swap_reverse(d: int) -> np.ndarray:
    """(1 x P)(P x 1): the inverse cyclic routing |k> x |ij> to |ij> x |k>."""
    p = swap(d)
    return strand_product([(p, 2), (p, 1)], 3)


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
