"""Dense complex linear algebra substrate.

Matrices are 2-d complex128 ndarrays, kets are 1-d complex128 ndarrays.
Tensor-factor convention: the leftmost factor is the most significant digit
of a composite index, so |i> (x) |j> maps to index i*d + j and
kron(A, B) acts on the composite space the usual way.

All helpers validate shapes and reject non-finite entries; everything else
is a thin layer over numpy.  The operand rules every module shares are each
written once, here: as_operator(s), as_ket, non_unitary and within_limit.
contract() is the one planned tensor contraction.
Operators on a pair of strands are never embedded here as kron(1, op, 1):
braid.apply_word applies them locally.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# The default --tol, the bound of every reported check: each identity resolves
# far below it in double precision, the flow's (near 1e-15 up to d = 64) too.
DEFAULT_TOL = 1e-10

# Largest array, in entries, a diagram evaluation, a strand embedding or a Weyl
# basis may allocate (256 MiB of complex128), and most entries a relation walks:
# per operator of a stack, which its caller bounds.
MAX_OUTPUT_ENTRIES = 2 ** 24

# Most entries a blocked pass holds per array: a chunk of the decorated TL
# basis (tlalgebra.check_tl_decorated) or of the tight-scheme terms.
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


def non_unitary(stack, tol: float = 1e-9) -> np.ndarray:
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


def norm(v) -> float:
    return float(np.linalg.norm(as_vector(v)))


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


def contract(spec: str, *operands) -> np.ndarray:
    """np.einsum(spec, *operands, optimize=True) to the bit, running only the
    steps _program compiled for these shapes: no path is searched or parsed,
    and no operand is reshaped to its own shape or transposed in place."""
    ops = list(operands)
    for inds, eq, prep, combine, shape, perm in _program(spec, tuple(op.shape for op in ops)):
        taken = [ops.pop(i) for i in inds]
        if prep is None:  # not a pairwise step: one einsum
            ops.append(np.einsum(eq, *taken))
            continue
        for k, (lay, laid) in enumerate(prep):  # each operand laid out, then multiplied or matmul'd
            x = taken[k] if lay is None else lay(taken[k])
            taken[k] = x if laid is None else x.reshape(laid)
        out = combine(*taken)
        out = out if shape is None else out.reshape(shape)
        ops.append(out if perm is None else out.transpose(perm))
    return ops[0]


@functools.lru_cache(maxsize=128)
def _program(spec: str, shapes: tuple) -> tuple:
    """Each step along numpy's greedy path as (positions popped, subscripts, and
    _pair's plan or four Nones), read from np.einsum_path's output: the path,
    and each step's subscripts from its line of the report ("current" column)."""
    path, info = np.einsum_path(spec, *(np.broadcast_to(0.0, s) for s in shapes), optimize="greedy")
    dims = {ix: n for term, s in zip(spec.split("->")[0].split(","), shapes) for ix, n in zip(term, s) if n != 1}
    current, program = list(shapes), []
    for inds, line in zip(path[1:], info.splitlines()[1 - len(path):]):  # the report ends with a line per step
        inds, eq = tuple(sorted(inds, reverse=True)), line.split()[1]  # popped right to left, as numpy does
        taken = [current.pop(i) for i in inds]
        current.append(tuple(dims.get(ix, 1) for ix in eq.split("->")[1]))
        program.append((inds, eq, *(_pair(eq, *taken) if len(inds) == 2 else (None, None, None, None))))
    return tuple(program)


def _pair(eq: str, shape_a: tuple, shape_b: tuple) -> tuple:
    """The step eq on two operands as numpy 2.4's einsum runs it (bmm_einsum): each
    term laid out by one einsum, then multiplied, or fused for one batched matmul
    whose product is reshaped and permuted; None for a reshape or permutation that
    would leave its operand as it is."""
    (ta, tb), out = eq.split("->")[0].split(","), eq.split("->")[1]
    big_a, big_b = ({ix: n for ix, n in zip(t, s) if n != 1} for t, s in ((ta, shape_a), (tb, shape_b)))
    size, con = {**big_a, **big_b}, [ix for ix in big_a if ix in big_b and ix not in out]
    if not con:  # each term laid out as out, with axes of length one where it lacks an index, and multiplied
        return tuple(_layout(t, s, [ix for ix in out if ix in t], [s[t.index(ix)] if ix in t else 1 for ix in out])
                     for t, s in ((ta, shape_a), (tb, shape_b))), np.multiply, None, None
    bat, keep_a = ([ix for ix in big_a if ix in out and (ix in big_b) == shared] for shared in (True, False))
    keep_b = [ix for ix in big_b if ix not in big_a and ix in out]
    sizes = [math.prod(size[ix] for ix in group) for group in ([bat] if bat else []) + [keep_a, con, keep_b]]
    produced = [ix for ix in out if ix not in size] + bat + keep_a + keep_b  # axes of length one lead
    shape, perm = tuple(size.get(ix, 1) for ix in produced), tuple(map(produced.index, out))
    return ((_layout(ta, shape_a, bat + keep_a + con, sizes[:-1]),
             _layout(tb, shape_b, bat + con + keep_b, sizes[:-3] + sizes[-2:])), np.matmul,
            None if shape == (*sizes[:-2], sizes[-1]) else shape, None if perm == tuple(range(len(perm))) else perm)


def _layout(term: str, own: tuple, want: list, shape: list) -> tuple:
    """What lays term, of shape own, out as want (None when it already is, a transpose
    when want permutes term's distinct indices, else one einsum) and the shape it is
    then read as (None when it has that shape already)."""
    want, laid = "".join(want), tuple(dict(zip(term, own))[ix] for ix in want)
    return (None if want == term else functools.partial(np.transpose, axes=tuple(map(term.index, want)))
            if sorted(want) == sorted(term) == sorted(set(term)) else functools.partial(np.einsum, f"{term}->{want}"),
            None if laid == tuple(shape) else tuple(shape))
