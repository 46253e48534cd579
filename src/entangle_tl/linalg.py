"""Dense complex linear algebra substrate.

Matrices are 2-d complex128 ndarrays, kets are 1-d complex128 ndarrays.
Tensor-factor convention: the leftmost factor is the most significant digit
of a composite index, so |i> (x) |j> maps to index i*d + j and
kron(A, B) acts on the composite space the usual way.

All helpers validate shapes and reject non-finite entries; everything else
is a thin layer over numpy.  The operand rules every module shares are each
written once, here: as_operator(s), as_ket, as_state, non_unitary and within_limit,
with the one guard bound GUARD_TOL.  _plan holds numpy's greedy contraction path
per (subscripts, shapes), and two entries run it: einsum() as numpy's own einsum
(its BLAS kernels) and contract() as plain pairwise einsums (the diagram oracle).
Operators on a pair of strands are never embedded here as kron(1, op, 1):
braid.apply_word applies them locally.
"""

from __future__ import annotations

import functools

import numpy as np

# The default --tol, the bound of every reported check: each identity resolves
# far below it in double precision, the flow's (near 1e-15 up to d = 64) too.
DEFAULT_TOL = 1e-10

# The bound of every input guard: a normalised ket, a unitary, a trace-orthogonal
# basis and the tables it is built from are each refused past it.
GUARD_TOL = 1e-9

# Largest array, in entries, a diagram evaluation, a strand embedding or a Weyl
# basis may allocate (256 MiB of complex128), and most entries a relation walks:
# per operator of a stack, which its caller bounds.
MAX_OUTPUT_ENTRIES = 2 ** 24

# Most entries a blocked pass holds per array: the tight-scheme terms, or a decorated
# TL chunk's two relation words together (tlalgebra.check_tl_decorated).
BLOCK_ENTRIES = 2 ** 16


class DimensionError(ValueError):
    """Shapes of the operands do not conform."""


def as_matrix(m, stacked: bool = False) -> np.ndarray:
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 and not (stacked and a.ndim > 2):
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_vector(v, stacked: bool = False) -> np.ndarray:
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1 and not (stacked and a.ndim > 1):
        raise DimensionError(f"expected a vector, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("vector entries must be finite")
    return a


def as_operator(m, d: int, what: str, stacked: bool = False) -> np.ndarray:
    """m as a finite d x d matrix, or with stacked a finite (..., d, d) stack
    of them; what names it in the refusal."""
    a = as_matrix(m, stacked)
    if a.shape[-2:] != (d, d):
        raise DimensionError(f"{what} must be {d}x{d}, got {a.shape}")
    return a


def as_operators(mats, d: int, names, stacked: bool = False, unitary: bool = False) -> list[np.ndarray]:
    """Each of mats as as_operator(m, d, name, stacked) returns it, and with unitary held
    to non_unitary: checked at once when they share one shape (a list of them or their
    stack made one array by one np.asarray), else (or on a refusal) one at a time, so the
    first bad operator is named as alone.  names is read only then."""
    try:
        stack = np.asarray(mats, dtype=np.complex128)  # a ValueError when their shapes differ
        if (stack.shape[-2:] == (d, d) and (stack.ndim == 3 or stacked and stack.ndim > 3)
                and np.isfinite(stack).all() and not (unitary and non_unitary(stack).size)):
            return list(stack)
    except (TypeError, ValueError):
        pass
    checked = []
    for m, name in zip(mats, names):
        checked.append(as_operator(m, d, name, stacked))
        if unitary and non_unitary(checked[-1]).size:
            raise ValueError(f"{name} is not unitary")
    return checked


def as_ket(v, d: int, what: str, stacked: bool = False) -> np.ndarray:
    """v as a finite ket of dimension d, or with stacked a finite (..., d)
    stack of them; what names it in the refusal."""
    a = as_vector(v, stacked)
    if a.shape[-1] != d:
        raise DimensionError(f"{what} must have dimension {d}")
    return a


def as_state(v, d: int, what: str) -> np.ndarray:
    """v as as_ket(v, d, what) returns it, refused unless its norm is 1 within GUARD_TOL."""
    a = as_ket(v, d, what)
    if abs(np.linalg.norm(a) - 1.0) > GUARD_TOL:
        raise ValueError(f"{what} must be normalized")
    return a


def non_unitary(stack, tol: float = GUARD_TOL) -> np.ndarray:
    """The flat indices n of the (..., d, d) stack with max|U_n U_n^dag - 1| >
    tol, formed in the product itself; nan counts as above tol."""
    off = stack @ stack.conj().swapaxes(-1, -2)
    off -= identity(stack.shape[-1])
    return np.flatnonzero(~(np.abs(off, out=off).real.max(axis=(-2, -1)) <= tol))


def within_limit(entries: int, what: str) -> None:
    """Refuse more than MAX_OUTPUT_ENTRIES entries; what names them, as in "output of 2^5"."""
    if entries > MAX_OUTPUT_ENTRIES:
        raise DimensionError(f"{what} entries exceeds {MAX_OUTPUT_ENTRIES}")


def identity(d: int) -> np.ndarray:
    if d < 0:
        raise DimensionError("dimension must be nonnegative")
    return np.eye(d, dtype=np.complex128)


def kron(a, b) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)  # np.kron's products in its layout, without its per-call dispatch
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def kron_vec(*vecs) -> np.ndarray:
    return functools.reduce(lambda out, v: np.multiply.outer(out, v).ravel(), map(as_vector, vecs))


def basis_ket(d: int, i: int) -> np.ndarray:
    if not 0 <= i < d:
        raise DimensionError(f"basis index {i} out of range for dimension {d}")
    e = np.zeros(d, dtype=np.complex128)
    e[i] = 1.0
    return e


def product_ket(d: int, *indices: int) -> np.ndarray:
    """|i j k ...> in the d-adic composite-index convention."""
    return kron_vec(*(basis_ket(d, i) for i in indices))


def inner(u, v) -> complex:
    """<u|v>."""
    u, v = as_vector(u), as_vector(v)
    if u.shape != v.shape:
        raise DimensionError("inner product needs equal lengths")
    return complex(np.vdot(u, v))


def max_residual(a, b, axis=None):
    """Entrywise max modulus difference between two same-shape arrays, over
    axis (all by default): axis=(-2, -1) gives one per matrix of two stacks."""
    dtype = np.float64 if np.isrealobj(a) and np.isrealobj(b) else np.complex128  # |x + 0i| = |x|, nan stays nan
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if a.shape != b.shape:
        raise DimensionError(f"cannot compare {a.shape} with {b.shape}")
    if a.size == 0:
        return 0.0
    diff = a - b
    worst = np.abs(diff, out=diff).real.max(axis=axis)  # |a - b| over the difference: no second array
    return float(worst) if axis is None else worst


def approx_eq(a, b, tol: float = DEFAULT_TOL) -> bool:
    return max_residual(a, b) <= tol


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError("unitarity needs a square matrix")
    return not non_unitary(m[None], tol).size


def einsum(spec: str, *operands) -> np.ndarray:
    """np.einsum(spec, *operands, optimize=True) to the bit: numpy's own kernels along
    the greedy path _plan holds for these shapes, so no path is searched per call."""
    return np.einsum(spec, *operands, optimize=_plan(spec, tuple(op.shape for op in operands))[0])


def contract(spec: str, *operands) -> np.ndarray:
    """The einsum spec over operands, contracted pairwise along _plan's greedy path,
    each step one plain np.einsum (numpy's C loop, no BLAS and no further planning)."""
    ops = list(operands)
    for inds, eq in _plan(spec, tuple(op.shape for op in ops))[1]:
        ops.append(np.einsum(eq, *[ops.pop(i) for i in inds]))
    return ops[0]


@functools.lru_cache(maxsize=128)
def _plan(spec: str, shapes: tuple) -> tuple:
    """numpy's greedy path for spec on operands of these shapes (np.einsum_path's own,
    as np.einsum's optimize takes it) and its steps as contract runs them: the positions taken,
    right to left as numpy pops them, and the subscripts of their einsum.  A step keeps
    the indices its terms share with the terms left or the output, in first-seen order,
    and the last step gives the output itself."""
    path = np.einsum_path(spec, *(np.broadcast_to(0.0, s) for s in shapes), optimize="greedy")[0]
    terms, out = spec.split("->")
    terms, steps = terms.split(","), []
    for inds in path[1:]:
        inds = tuple(sorted(inds, reverse=True))
        taken = [terms.pop(i) for i in inds]
        rest = "".join(terms) + out
        terms.append("".join(dict.fromkeys(ix for t in taken for ix in t if ix in rest)) if terms else out)
        steps.append((inds, ",".join(taken) + "->" + terms[-1]))
    return path, tuple(steps)
