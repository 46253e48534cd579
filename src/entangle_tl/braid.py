"""Braid, virtual-braid and mixed relations for matrices acting on strand
pairs, plus the braid teleportation configuration and teleportation swapping.

A strand operator is a d^2 x d^2 matrix on two adjacent strands of d-dimensional
systems, a (..., d^2, d^2) stack the same code broadcasts over, or Swap(d), P
moving entries.  embed() forms columns of its embedding on n strands by
scattering, and apply_word() the same columns of a word of such factors: its
rightmost factor embedded, the others applied in O(d^(n+2)) per column, so no
d^n x d^n embedding is multiplied.  relation_residual() compares a relation
written on the strands it touches (2 for one pair, 3 for adjacent pairs, 4 for
far commutativity, on basis-ket probes) one block of basis-ket columns at a
time: on n strands both sides only gain identity strands.

A word is checked once, whatever its number of blocks: each factor's operator,
position and local dimension (one d for every factor of both sides of a
relation), then its columns' entry limit, before they are formed.  The kernels
_embed, _apply and _run check nothing and are reached only through those
checked entries; embed() is apply_word() on one factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, DimensionError, identity
from .report import VerificationReport

PROBES, PROBE_SEED = 8, 0  # the basis kets a far relation is compared on, and their seed
BLOCK = 64  # basis-ket columns a relation's words are applied to at a time


@dataclass(frozen=True)
class Swap:
    """The swap P_d |ij> = |ji> as a strand factor, the virtual crossing:
    applied it swaps two axes and embedded it puts each column's one entry at
    its permuted row, so no d^2 x d^2 matrix is multiplied."""
    d: int
    shape = property(lambda self: (self.d ** 2, self.d ** 2))

    def permutation(self) -> np.ndarray:
        """The row of P's 1 in each column: |ij> (column i d + j) goes to |ji>."""
        return np.arange(self.d ** 2).reshape(self.d, self.d).T.ravel()


def swap(d: int) -> np.ndarray:
    """P_d as a dense matrix: Swap(d)'s permutation applied to the identity."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    return identity(d * d)[:, Swap(d).permutation()]


def _local_dimension(op) -> tuple[int, np.ndarray | Swap]:
    """(d, op) for a Swap or a finite d^2 x d^2 strand operator or a stack of them."""
    if isinstance(op, Swap):
        return op.d, op
    m = linalg.as_matrix(op, stacked=True)
    d = math.isqrt(m.shape[-1])
    if m.shape[-2:] != (d * d, d * d):
        raise DimensionError(f"strand operator must be d^2 x d^2, got {m.shape}")
    return d, m


def _check_word(word, n: int, d: int | None = None, known: dict | None = None) -> tuple[int, list]:
    """(d, factors): the (op, i) factors of word right to left, as _run takes them, each
    at a position 1..n-1 and of local dimension d (the rightmost factor's unless given).
    Each distinct operator object is checked once, known mapping its id to (d, op)
    across the words of a relation."""
    known, factors = {} if known is None else known, []
    for op, i in reversed(word):
        if id(op) not in known:
            known[id(op)] = _local_dimension(op)
        dk, op = known[id(op)]
        d = dk if d is None else d
        if not 1 <= i <= n - 1 or dk != d:
            raise DimensionError(f"factor at {i} (d={dk}) does not fit {n} strands of d={d}")
        factors.append((op, i))
    return d, factors


def _apply(op, i: int, n: int, x: np.ndarray, d: int) -> np.ndarray:
    """(1 x ... x op x ... x 1) @ x with op on strands (i, i+1) of n, 1-based i, for x
    with d^n rows on axis -2, checking nothing: the embedding is never formed."""
    lead = x.shape[:-2]
    if isinstance(op, Swap):  # entries moved, none multiplied
        return x.reshape(*lead, d ** (i - 1), d, d, -1).swapaxes(-3, -2).reshape(x.shape)
    out = np.matmul(op[..., None, :, :], x.reshape(*lead, d ** (i - 1), d * d, -1))
    return out.reshape(*out.shape[:-3], *x.shape[len(lead):])


def _embed(op, i: int, n: int, cols: np.ndarray, d: int) -> np.ndarray:
    """embed's scatter, checking nothing."""
    shape = (d ** (i - 1), d * d, d ** (n - i - 1))
    hi, mid, lo = np.unravel_index(cols, shape)
    out = np.zeros((*op.shape[:-2], *shape, len(cols)), dtype=np.complex128)
    if isinstance(op, Swap):
        out[hi, op.permutation()[mid], lo, np.arange(len(cols))] = 1
    else:
        picked = op[..., :, mid]  # assigned with the column axis first, as the fancy index orders it
        out[..., hi, :, lo, np.arange(len(cols))] = picked.transpose(-1, *range(picked.ndim - 1))
    return out.reshape(*op.shape[:-2], d ** n, len(cols))


def _run(factors: list, n: int, cols: np.ndarray, d: int) -> np.ndarray:
    """Columns cols of a checked word's product, checking nothing: its first factor (the word's
    rightmost) embedded and the others applied to it in turn; the empty word's are the basis kets."""
    if not factors:
        return (np.arange(d ** n)[:, None] == cols).astype(np.complex128)
    (op, i), *rest = factors
    out = _embed(op, i, n, cols, d)
    for op, i in rest:  # a loop, not reduce: reduce would keep the embedding alive
        out = _apply(op, i, n, out, d)
    return out


def embed(op, i: int, n: int, cols=None) -> np.ndarray:
    """Columns cols (all by default) of 1 x ... x op x ... x 1 with op on
    strands (i, i+1) of n, 1-based i: op's columns scattered into zeros."""
    return apply_word([(op, i)], n, cols)


def apply_word(word, n: int, cols=None) -> np.ndarray:
    """Columns cols (all by default) of the d^n x d^n product of the (op, i)
    factors of word, written left to right: the rightmost factor's columns are
    embedded and the others applied to them, right to left; an empty word has no d."""
    if not word:
        raise DimensionError("apply_word needs a factor: an empty word has no local dimension")
    d, factors = _check_word(word, n)
    count = d ** n if cols is None else len(cols)
    linalg.within_limit(d ** n * count, f"embedding of {d}^{n} x {count}")  # before the columns are formed
    cols = np.arange(d ** n) if cols is None else np.asarray(cols)
    if len(cols) and not 0 <= cols.min() <= cols.max() < d ** n:
        raise DimensionError(f"columns {cols.min()}..{cols.max()} out of range for {d}^{n}")
    return _run(factors, n, cols, d)


@functools.lru_cache(maxsize=64)
def _columns(d: int, n: int) -> np.ndarray:
    """The basis-ket columns a relation on n strands is compared on, read-only:
    all of them on at most 3 strands, else PROBES drawn by a generator of their
    own (so the CLI's rng draws as before), the same on every call."""
    cols = np.arange(d ** n) if n <= 3 else np.random.default_rng(PROBE_SEED).choice(
        d ** n, min(PROBES, d ** n), replace=False)
    cols.flags.writeable = False
    return cols


def within_relation_limit(d: int, n: int) -> None:
    """Refuse a relation on n strands of dimension d past the entry limit before its columns are formed."""
    count = d ** n if n <= 3 else min(PROBES, d ** n)  # len(_columns(d, n))
    linalg.within_limit(d ** n * count, f"relation on {d}^{n} x {count}")


def relation_residual(lhs, rhs, scale=1) -> float:
    """max|L - scale R| for the words lhs and rhs of (op, i) factors, an empty word the identity,
    on strands 1..max i + 1: on more strands L x 1 and R x 1 add only zero entries.  Both
    words are applied to BLOCK basis-ket columns at a time: every column on at
    most 3 strands, PROBES of them on 4 or more (far commutativity, Freivalds,
    IFIP 1977), so a misplaced factor fails and no d^2n product is formed.
    Stacked operators give one residual per operator, as an array."""
    if not lhs and not rhs:
        raise DimensionError("a relation needs a factor in at least one of its words")
    n = max(i for _, i in (*lhs, *rhs)) + 1
    known = {}
    d, lhs = _check_word(lhs, n, known=known)
    d, rhs = _check_word(rhs, n, d, known)
    within_relation_limit(d, n)
    cols = _columns(d, n)
    worst = None
    for start in range(0, len(cols), BLOCK):
        block = cols[start:start + BLOCK]
        left, right = _run(lhs, n, block, d), _run(rhs, n, block, d)
        residual = linalg.max_residual(left, right if scale == 1 else scale * right, axis=(-2, -1))
        worst = residual if worst is None else np.maximum(worst, residual)  # not max: one per operator, nan kept
    return worst


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
               linalg.max_residual(apply_word([(b, 1), (b, 2), (b, 1)], 3), closed), tol)
    report.add("b2 b1 b2 equals (1 x B^2 + B^2 x 1)/sqrt(2)",
               linalg.max_residual(apply_word([(b, 2), (b, 1), (b, 2)], 3), closed), tol)
    return report


def check_virtual_relations(v, tol: float = DEFAULT_TOL) -> VerificationReport:
    """v^2 = 1, v1 v2 v1 = v2 v1 v2, far commutativity."""
    report = VerificationReport("virtual-relations")
    report.add("v^2 = 1", relation_residual([(v, 1), (v, 1)], []), tol)
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
    return apply_word([(inverse, 1), (b, 2)], 3)


def teleport_swap(d: int, cols=None) -> np.ndarray:
    """Columns cols (all by default) of (P x 1)(1 x P): routes |ij> x |k> to
    |k> x |ij> cyclically."""
    return apply_word([(Swap(d), 1), (Swap(d), 2)], 3, cols)


def teleport_swap_reverse(d: int, cols=None) -> np.ndarray:
    """Columns cols (all by default) of (1 x P)(P x 1): the inverse cyclic
    routing |k> x |ij> to |ij> x |k>."""
    return apply_word([(Swap(d), 2), (Swap(d), 1)], 3, cols)


def check_teleport_swapping(d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """(P x 1)(1 x P)|ij>|k> = |k>|ij> on every basis ket, and back: BLOCK
    columns of each operator at a time, each less its routed basis ket (column
    c of the forward routing has its 1 at row routed[c], of the reverse at
    back[c]).  Reverse after forward is (1xP)(Px1)(Px1)(1xP), compared with 1."""
    report = VerificationReport("teleport-swapping")
    p = Swap(d)
    c = np.arange(d ** 3)
    routed = (c % d) * d * d + c // d  # |ij>|k> to |k>|ij>
    back = (c % (d * d)) * d + c // (d * d)  # |k>|ij> to |ij>|k>
    worst = 0.0
    for block in np.split(c, range(BLOCK, d ** 3, BLOCK)):
        for op, rows in ((teleport_swap(d, block), routed[block]), (teleport_swap_reverse(d, block), back[block])):
            op[rows, range(len(block))] -= 1
            worst = max(worst, float(np.abs(op).max()))
    report.add("|k>|ij> = (Px1)(1xP)|ij>|k> and back", worst, tol)
    report.add("reverse undoes forward", relation_residual([(p, 2), (p, 1), (p, 1), (p, 2)], []), tol)
    return report
