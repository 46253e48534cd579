import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_tl import linalg
from entangle_tl.linalg import DimensionError, approx_eq, identity, is_unitary, kron, max_residual
from entangle_tl.qubit import bell_matrix, pauli

from conftest import random_complex_matrix


def test_kron_identities():
    assert approx_eq(kron(identity(2), identity(2)), identity(4), 0)


@pytest.mark.parametrize("shape_a, shape_b", [((2, 2), (3, 3)), ((2, 3), (4, 1)), ((1, 4), (3, 2)),
                                               ((4, 1), (1, 3)), ((1, 1), (2, 5)), ((3, 2), (1, 1))])
def test_kron_equals_np_kron_bit_for_bit(rng, shape_a, shape_b):
    # complex, non-square, 1 x n and n x 1 operands: the same products in the same layout
    a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in (shape_a, shape_b))
    out = kron(a, b)
    assert out.shape == np.kron(a, b).shape and np.array_equal(out, np.kron(a, b))
    vecs = [a.ravel(), b.ravel(), b[0]]
    assert np.array_equal(linalg.kron_vec(*vecs), np.kron(np.kron(vecs[0], vecs[1]), vecs[2]))
    assert np.array_equal(linalg.kron_vec(vecs[0]), vecs[0])


def test_kron_squares_to_bell_matrix_square():
    b = bell_matrix()
    assert max_residual(1j * kron(pauli(1), pauli(2)), b @ b) < 1e-12


def test_kron_sigma3_sigma3_hand_expansion():
    # 4x4 expansion done by hand: diag(1, -1, -1, 1)
    expected = np.diag([1, -1, -1, 1]).astype(complex)
    assert max_residual(kron(pauli(3), pauli(3)), expected) == 0


def test_dagger_b_times_b_is_identity():
    # explicit 4x4 multiply oracle, no library matmul
    b = bell_matrix()
    prod = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            prod[i, j] = sum(np.conj(b[k, i]) * b[k, j] for k in range(4))
    assert max_residual(prod, identity(4)) < 1e-12
    assert max_residual(b.conj().T @ b, identity(4)) < 1e-12


def test_transpose_of_bell_matrix_is_its_inverse():
    b = bell_matrix()
    assert max_residual(b @ b.T, identity(4)) < 1e-12


def test_max_residual_leaves_its_operands(rng):
    a, b = random_complex_matrix(rng, 3), random_complex_matrix(rng, 3)
    a0, b0 = a.copy(), b.copy()
    assert max_residual(a, b) == np.max(np.abs(a0 - b0))
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


def test_max_residual_keeps_real_operands_real(rng):
    # the float64 difference gives the complex path's float, nan and inf included
    a, b = rng.normal(size=(5, 5)), rng.normal(size=(5, 5))
    a[1, 2], b[3, 3], a[4, 4], b[4, 4], a[0, 1] = np.nan, np.inf, np.inf, np.inf, -np.inf
    with np.errstate(invalid="ignore"):  # inf - inf
        for x, y in ((a, b), (a[2:, 2:], b[2:, 2:]), (a[:2, :2], b[:2, :2]), (a[3:, 3:], b[3:, 3:]), (a[0], b[0])):
            for axis in (None, 0, -1):
                want = np.abs(x.astype(np.complex128) - y.astype(np.complex128)).max(axis=axis)
                got = max_residual(x, y, axis=axis)
                assert np.array_equal(got, want, equal_nan=True), (x, y, axis)
        assert np.isnan(max_residual(a, b))
    assert max_residual([1, 2], [1.5, 2]) == 0.5  # integer and float operands too
    assert max_residual(identity(2), np.eye(2)) == 0  # mixed operands take the complex path
    a, b = rng.normal(size=(128, 128)), rng.normal(size=(128, 128))
    tracemalloc.start()
    try:
        max_residual(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * a.nbytes, peak / a.nbytes  # one float64 difference, no complex copy


def test_approx_eq_and_max_residual():
    assert approx_eq(identity(2), identity(2), 1e-12)
    b = bell_matrix()
    b2 = b @ b
    assert approx_eq(b2 @ b2, -identity(4), 1e-12)
    assert max_residual(np.linalg.matrix_power(b, 8), identity(4)) <= 1e-12
    assert not approx_eq(identity(2), 2 * identity(2), 1e-12)


def test_is_unitary():
    assert is_unitary(pauli(1))
    assert is_unitary(bell_matrix())
    assert not is_unitary(np.diag([1.0, 2.0]))


I2 = identity(2)
OPERAND_RULES = [  # (call, its result, or the (class, message) it raises)
    (lambda: linalg.as_operator(identity(3), 2, "U"), (DimensionError, "U must be 2x2, got (3, 3)")),
    (lambda: linalg.as_operator([1, 0], 2, "U"), (DimensionError, "expected a matrix, got ndim=1")),
    (lambda: linalg.as_operator([[np.nan, 0], [0, 1]], 2, "U"), (ValueError, "matrix entries must be finite")),
    (lambda: linalg.as_operator(I2, 2, "U").tolist(), I2.tolist()),
    (lambda: linalg.as_ket(np.ones(3), 2, "psi"), (DimensionError, "psi must have dimension 2")),
    (lambda: linalg.as_ket(I2, 2, "psi"), (DimensionError, "expected a vector, got ndim=2")),
    (lambda: linalg.as_ket([np.inf, 0], 2, "psi"), (ValueError, "vector entries must be finite")),
    (lambda: linalg.as_ket([1, 0], 2, "psi").tolist(), [1, 0]),
    (lambda: linalg.non_unitary(np.stack([I2, np.diag([1, 2]), (1 + 1e-6) * I2, pauli(2)])).tolist(), [1, 2]),
    (lambda: linalg.non_unitary(np.stack([(1 + 1e-6) * I2, (1 + 1e-12) * I2]), tol=1e-5).tolist(), []),
    (lambda: linalg.non_unitary(np.stack([bell_matrix(), np.full((4, 4), np.nan)])).tolist(), [1]),
    (lambda: linalg.within_limit(linalg.MAX_OUTPUT_ENTRIES, "output of 2^24"), None),
    (lambda: linalg.within_limit(linalg.MAX_OUTPUT_ENTRIES + 1, "output of 2^24 + 1"),
     (DimensionError, "output of 2^24 + 1 entries exceeds 16777216")),
]


@pytest.mark.parametrize("call, expected", OPERAND_RULES)
def test_operand_rules(call, expected):
    if isinstance(expected, tuple):
        cls, message = expected
        with pytest.raises(cls) as exc:
            call()
        assert type(exc.value) is cls and str(exc.value) == message
    else:
        assert call() == expected


I3, P1 = identity(3), pauli(1)
STACKS = [np.stack([I2] * 2), np.stack([P1] * 3)]


@pytest.mark.parametrize("mats, stacked", [
    pytest.param([I2, [[1, 0], [0]], I2], False, id="ragged"),
    pytest.param([I2, [[np.nan, 0], [0, 1]], I3], False, id="nan"),
    pytest.param([I2, I3, [[np.nan, 0], [0, 1]]], False, id="3x3-among-2x2"),
    pytest.param([I2, [1, 0]], False, id="1-d"),
    pytest.param(STACKS, False, id="stacks-unstacked"),
    pytest.param([STACKS[0], I3], True, id="stack-then-3x3"),
])
def test_as_operators_refuses_as_as_operator_does(mats, stacked):
    # one check at once when the shapes agree; any refusal is as_operator's on
    # the first bad operator, with its class, its message and its name
    names = [f"U{k}" for k in range(len(mats))]
    with pytest.raises(ValueError) as one:
        for m, name in zip(mats, names):
            linalg.as_operator(m, 2, name, stacked)
    with pytest.raises(ValueError) as at_once:
        linalg.as_operators(mats, 2, names, stacked)
    assert type(at_once.value) is type(one.value) and str(at_once.value) == str(one.value)


@pytest.mark.parametrize("mats, stacked", [
    pytest.param([I2, P1, P1.real], False, id="2x2"),
    pytest.param(STACKS, True, id="stacks-of-different-batch-shapes"),
    pytest.param([STACKS[1], P1], True, id="a-stack-and-a-matrix"),
    pytest.param([], False, id="none"),
])
def test_as_operators_accepts_what_as_operator_accepts(mats, stacked):
    got = linalg.as_operators(mats, 2, [f"U{k}" for k in range(len(mats))], stacked)
    want = [linalg.as_operator(m, 2, "U", stacked) for m in mats]
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.complex128 and np.array_equal(a, b)


def test_shape_mismatch_raises():
    with pytest.raises(DimensionError):
        max_residual(identity(2), identity(3))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        linalg.as_vector(np.array([np.inf, 0]))


@pytest.mark.parametrize("da,db", [(2, 2), (3, 2), (4, 3), (8, 8)])
def test_trace_of_kron_factorizes(rng, da, db):
    a = random_complex_matrix(rng, da)
    b = random_complex_matrix(rng, db)
    ta, tb = np.trace(a), np.trace(b)
    assert abs(np.trace(kron(a, b)) - ta * tb) < 1e-10 * max(1, abs(ta * tb))


def test_transpose_of_kron(rng):
    a = random_complex_matrix(rng, 3)
    b = random_complex_matrix(rng, 4)
    assert max_residual(kron(a, b).T, kron(a.T, b.T)) < 1e-12


def test_kron_associative(rng):
    a, b, c = (random_complex_matrix(rng, k) for k in (2, 3, 2))
    assert max_residual(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-10


finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=30)
@given(entries=st.lists(finite, min_size=8, max_size=8), scale=finite)
def test_kron_bilinear(entries, scale):
    a = np.array(entries[:4], dtype=complex).reshape(2, 2)
    b = np.array(entries[4:], dtype=complex).reshape(2, 2)
    c = identity(2)
    lhs = kron(a + scale * b, c)
    rhs = kron(a, c) + scale * kron(b, c)
    assert max_residual(lhs, rhs) < 1e-9
