"""Braid, virtual-braid and mixed relations for matrices acting on strand
pairs, plus the braid teleportation configuration and teleportation swapping.

A strand operator is a plain d^2 x d^2 matrix acting on two adjacent strands
of a d-dimensional system; apply_on_strands() applies it at position i of n
strands in O(d^(n+2)) per column, never forming the d^n x d^n embedding, and
strand_product() (embed() with one factor) forms a word of such factors on
the strands it touches.  relation_residual() compares a relation written on
the strands it touches (2 for one pair, 3 for adjacent pairs, 4 for far
commutativity, on basis kets): on n strands both sides only gain identity strands.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import diagram, linalg
from .linalg import DEFAULT_TOL, DimensionError, identity
from .report import VerificationReport

PROBES, PROBE_SEED = 8, 0  # the basis kets a far relation is compared on, and their seed


def swap(d: int) -> np.ndarray:
    """The d-dimensional two-strand swap P_d |ij> = |ji>."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    p = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            p[j * d + i, i * d + j] = 1.0
    return p


def _local_dimension(op) -> tuple[int, np.ndarray]:
    """(d, op) for a finite d^2 x d^2 strand operator."""
    m = linalg.as_matrix(op)
    d = math.isqrt(m.shape[0])
    if m.shape != (d * d, d * d):
        raise DimensionError(f"strand operator must be d^2 x d^2, got {m.shape}")
    return d, m


def apply_on_strands(op, i: int, n: int, x) -> np.ndarray:
    """(1 x ... x op x ... x 1) @ x with op on strands (i, i+1) of n, 1-based
    i, for x with d^n rows; the embedding is never formed."""
    d, op = _local_dimension(op)
    if not 1 <= i <= n - 1:
        raise DimensionError(f"position {i} out of range for {n} strands")
    x = np.asarray(x)
    if x.shape[0] != d ** n:
        raise DimensionError(f"operand has {x.shape[0]} rows, not {d}^{n}")
    blocks = x.reshape(d ** (i - 1), d * d, -1)
    return np.matmul(op, blocks).reshape(x.shape)


def _pad(x, d: int, left: int, right: int) -> np.ndarray:
    """x with `left` identity strands before it and `right` after it."""
    x = np.kron(identity(d ** left), x) if left else x
    return np.kron(x, identity(d ** right)) if right else x


def strand_product(factors, n: int) -> np.ndarray:
    """The d^n x d^n product of (op, i) factors, written left to right and
    applied right to left on the strands lo..hi touched so far: each factor
    widens lo..hi to cover it and is applied by apply_on_strands, and identity
    strands pad the two ends only on return."""
    d, _ = _local_dimension(factors[0][0])
    if d ** (2 * n) > diagram.MAX_OUTPUT_ENTRIES:
        raise DimensionError(
            f"strand product of {d}^{2 * n} entries exceeds {diagram.MAX_OUTPUT_ENTRIES}")
    for k, (op, i) in enumerate(reversed(factors)):
        d_op, op = _local_dimension(op)
        if d_op != d or not 1 <= i <= n - 1:
            raise DimensionError(f"factor at {i} (d={d_op}) does not fit {n} strands of d={d}")
        if k == 0:  # the rightmost factor starts the product as itself
            out, lo, hi = op.copy(), i, i + 1
        else:
            out = _pad(out, d, lo - min(lo, i), max(hi, i + 1) - hi)
            lo, hi = min(lo, i), max(hi, i + 1)
            out = apply_on_strands(op, i - lo + 1, hi - lo + 1, out)
    return _pad(out, d, lo - 1, n - hi)


def embed(op, i: int, n: int) -> np.ndarray:
    """1 x ... x op x ... x 1 with op on strands (i, i+1) of n, 1-based i."""
    return strand_product([(op, i)], n)


def relation_residual(lhs, rhs, scale=1) -> float:
    """max|L - scale R| for the words lhs and rhs of (op, i) factors on strands
    1..max i + 1: on more strands L x 1 and R x 1 add only zero entries.  Words
    on 4 or more strands (far commutativity) are compared on PROBES basis kets,
    each applied factor by factor (Freivalds, IFIP 1977), so a misplaced factor
    fails and no d^8 product is formed."""
    n = max(i for _, i in (*lhs, *rhs)) + 1
    if n <= 3:
        left, right = strand_product(lhs, n), strand_product(rhs, n)
    else:
        d, _ = _local_dimension(lhs[0][0])
        k = min(PROBES, d ** n)
        if d ** n * k > diagram.MAX_OUTPUT_ENTRIES:
            raise DimensionError(f"probe block of {d}^{n} x {k} entries exceeds {diagram.MAX_OUTPUT_ENTRIES}")
        kets = np.zeros((d ** n, k))  # a generator of its own: the CLI's rng draws as before
        kets[np.random.default_rng(PROBE_SEED).choice(d ** n, k, replace=False), range(k)] = 1
        left, right = (functools.reduce(lambda x, f: apply_on_strands(*f, n, x), reversed(w), kets)
                       for w in (lhs, rhs))
    return linalg.max_residual(left, right if scale == 1 else scale * right)


def check_braid_relation(b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """b1 b2 b1 = b2 b1 b2 and b1 b3 = b3 b1."""
    report = VerificationReport("braid-relation")
    report.add("b1 b2 b1 = b2 b1 b2", relation_residual([(b, 1), (b, 2), (b, 1)],
                                                        [(b, 2), (b, 1), (b, 2)]), tol)
    report.add("b1 b3 = b3 b1", relation_residual([(b, 1), (b, 3)], [(b, 3), (b, 1)]), tol)
    return report


def check_braid_closed_form(b, tol: float = DEFAULT_TOL) -> VerificationReport:
    """check_braid_relation plus b1 b2 b1 = b2 b1 b2 = (1 x b^2 + b^2 x 1)/sqrt(2),
    the closed form the Bell matrix B satisfies."""
    b = linalg.as_matrix(b)
    report = check_braid_relation(b, tol)
    square = b @ b
    closed = (embed(square, 2, 3) + embed(square, 1, 3)) / np.sqrt(2)
    report.add("b1 b2 b1 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(strand_product([(b, 1), (b, 2), (b, 1)], 3), closed), tol)
    report.add("b2 b1 b2 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(strand_product([(b, 2), (b, 1), (b, 2)], 3), closed), tol)
    return report


def check_virtual_relations(v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """v^2 = 1, v1 v2 v1 = v2 v1 v2, far commutativity."""
    report = VerificationReport("virtual-relations")
    report.add("v^2 = 1", relation_residual([(v, 1), (v, 1)], [(identity(len(v)), 1)]), tol)
    report.add("v1 v2 v1 = v2 v1 v2", relation_residual([(v, 1), (v, 2), (v, 1)],
                                                        [(v, 2), (v, 1), (v, 2)]), tol)
    report.add("v1 v3 = v3 v1", relation_residual([(v, 1), (v, 3)], [(v, 3), (v, 1)]), tol)
    return report


def check_virtual_mixed(b, v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """b2 v1 v2 = v1 v2 b1 and b1 v3 = v3 b1; b and v must share d."""
    report = VerificationReport("virtual-mixed")
    report.add("b2 v1 v2 = v1 v2 b1", relation_residual([(b, 2), (v, 1), (v, 2)],
                                                        [(v, 1), (v, 2), (b, 1)]), tol)
    report.add("b1 v3 = v3 b1", relation_residual([(b, 1), (v, 3)], [(v, 3), (b, 1)]), tol)
    return report


def braid_teleport_config(b) -> np.ndarray:
    """(b^-1 x 1)(1 x b) on 3 strands; b^-1 is b^dag for a unitary b and an
    explicit inverse otherwise (LinAlgError when b is singular)."""
    b = linalg.as_matrix(b)
    inverse = b.conj().T if linalg.is_unitary(b) else np.linalg.inv(b)
    return strand_product([(inverse, 1), (b, 2)], 3)


def teleport_swap(d: int) -> np.ndarray:
    """(P x 1)(1 x P): routes |ij> x |k> to |k> x |ij> cyclically."""
    p = swap(d)
    return strand_product([(p, 1), (p, 2)], 3)


def teleport_swap_reverse(d: int) -> np.ndarray:
    """(1 x P)(P x 1): the inverse cyclic routing |k> x |ij> to |ij> x |k>."""
    p = swap(d)
    return strand_product([(p, 2), (p, 1)], 3)


def check_teleport_swapping(d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """(P x 1)(1 x P)|ij>|k> = |k>|ij> on every basis ket, and back: each
    operator is compared once with the routing permutation (or its
    transpose), whose column c is the image of the basis ket c."""
    report = VerificationReport("teleport-swapping")
    ts, rev = teleport_swap(d), teleport_swap_reverse(d)
    c = np.arange(d ** 3)
    routing = np.zeros((d ** 3, d ** 3))
    routing[(c % d) * d * d + c // d, c] = 1.0  # |ij>|k> to |k>|ij>
    worst = max(linalg.max_residual(ts, routing), linalg.max_residual(rev, routing.T))
    report.add("|k>|ij> = (Px1)(1xP)|ij>|k> and back", worst, tol)
    report.add("reverse undoes forward", linalg.max_residual(rev @ ts, identity(d ** 3)), tol)
    return report
