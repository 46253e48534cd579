import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_tl import linalg, maxent
from entangle_tl.linalg import identity, kron, max_residual
from entangle_tl.cli import main
from entangle_tl.maxent import (WeylBasis, clock, completeness_check, omega, omega_kets, omega_n,
                                pauli_weyl_basis, partial_inner_ca_ab, phi_of, shift,
                                shift_and_multiply, slide_identity_check, trace_identities_check,
                                transfer_composition, weyl_basis)
from entangle_tl.qubit import BellKind, bell_state, pauli
from entangle_tl.teleport import branch_weights_check, dense_coding_check, tight_teleportation_check
from entangle_tl.tlalgebra import check_tl_decorated

from conftest import random_complex_matrix, random_unitary


def test_omega_values():
    assert max_residual(omega(1), np.array([1.0])) == 0
    assert max_residual(omega(2), bell_state(BellKind.PHI_PLUS)) == 0
    # direct expansion of the defining sum at d=3
    assert max_residual(omega(3), np.array([1, 0, 0, 0, 1, 0, 0, 0, 1]) / math.sqrt(3)) == 0


def test_clock_and_shift():
    x, z = shift(3), clock(3)
    assert max_residual(x @ linalg.basis_ket(3, 0).reshape(3, 1),
                        linalg.basis_ket(3, 1).reshape(3, 1)) == 0
    assert abs(z[2, 2] - np.exp(4j * np.pi / 3)) < 1e-15
    assert max_residual(x @ z @ x.conj().T @ z.conj().T,
                        np.exp(-2j * np.pi / 3) * identity(3)) < 1e-14


def test_weyl_basis_d1():
    basis = weyl_basis(1)
    assert len(basis.unitaries) == 1
    assert basis.unitary(1)[0, 0] == 1


def test_weyl_basis_d2_elements_and_trace_table():
    basis = weyl_basis(2)
    x, z = pauli(1), pauli(3)
    expected = [identity(2), z, x, x @ z]
    for got, want in zip(basis.unitaries, expected):
        assert max_residual(got, want) < 1e-15  # exp(i pi) roundoff
    # trace table oracle: explicit 2x2 sums
    for n, u in enumerate(basis.unitaries):
        for m, v in enumerate(basis.unitaries):
            t = sum(np.conj(u[i, j]) * v[i, j] for i in range(2) for j in range(2))
            assert abs(t - (2.0 if n == m else 0.0)) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_trace_orthogonality_brute_force(d):
    basis = weyl_basis(d)
    for n, u in enumerate(basis.unitaries):
        for m, v in enumerate(basis.unitaries):
            t = np.trace(u.conj().T @ v)
            assert abs(t - (d if n == m else 0.0)) < 1e-12


def test_weyl_basis_rejects_bad_input():
    with pytest.raises(ValueError):
        WeylBasis(2, (identity(2), identity(2), pauli(1), pauli(3)))  # not orthogonal
    with pytest.raises(ValueError):
        WeylBasis(2, (pauli(1), identity(2), 1j * pauli(2), pauli(3)))  # U_1 != 1
    with pytest.raises(ValueError):
        WeylBasis(2, (identity(2), pauli(1)))  # wrong count
    with pytest.raises(ValueError, match="U_3"):
        WeylBasis(2, (identity(2), pauli(1), 2 * pauli(2), pauli(3)))  # U_3 not unitary
    with pytest.raises(linalg.DimensionError):
        weyl_basis(0)


def _product_loop_weyl_basis(d):
    # the basis as X^a Z^b, each power formed by repeated products
    x, z = shift(d), clock(d)
    mats, xa = [], identity(d)
    for _ in range(d):
        zb = identity(d)
        for _ in range(d):
            mats.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return np.array(mats)


@pytest.mark.parametrize("d", range(1, 17))
def test_weyl_basis_has_the_bits_of_the_product_loop(d):
    assert np.array_equal(weyl_basis(d).unitaries, _product_loop_weyl_basis(d))


def _fourier_tables(d):
    ks = np.arange(d)
    return np.exp(2j * np.pi * np.outer(ks, ks) / d), (ks[:, None] + ks) % d


def test_shift_and_multiply_refuses_each_table_fault_by_name():
    h, latin = _fourier_tables(4)
    shift_and_multiply(h, latin)
    rows_share = latin.copy()
    rows_share[2] = latin[1, [0, 2, 1, 3]]  # a permutation of 0..3 sharing column 0 with row 1
    assert rows_share[2, 0] == rows_share[1, 0] and sorted(rows_share[2]) == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="not a Latin square"):
        shift_and_multiply(h, rows_share)
    with pytest.raises(ValueError, match="not a Latin square"):
        shift_and_multiply(h, latin.astype(float))
    off_circle = h.copy()
    off_circle[2, 3] *= 1.01
    with pytest.raises(ValueError, match="off the unit circle"):
        shift_and_multiply(off_circle, latin)
    not_hadamard = h.copy()
    not_hadamard[3] = h[2]  # unimodular, but two equal rows
    with pytest.raises(ValueError, match="h h\\^dag is not d 1"):
        shift_and_multiply(not_hadamard, latin)
    first_row = h * np.exp(0.5j)  # still a unimodular Hadamard matrix, with h[0] != 1
    with pytest.raises(ValueError, match="U_1 is not the identity"):
        shift_and_multiply(first_row, latin)
    with pytest.raises(ValueError, match="U_1 is not the identity"):
        shift_and_multiply(h, latin[[1, 0, 2, 3]])  # latin[0] is not 0..d-1
    for bad_h, bad_latin in ((h[:3], latin), (h, latin[:, :3]), (h[:, :3], latin[:3, :3]),
                             (h[0], latin), (np.zeros((0, 0)), latin[:0, :0])):
        with pytest.raises(linalg.DimensionError):
            shift_and_multiply(bad_h, bad_latin)


def test_shift_and_multiply_holds_one_read_only_array():
    h, latin = _fourier_tables(3)
    basis = shift_and_multiply(h, latin)
    assert isinstance(basis, WeylBasis) and basis.d == 3 and basis.unitaries.shape == (9, 3, 3)
    with pytest.raises(ValueError):
        basis.unitaries[0, 0, 0] = 2
    h[1, 1] = 5  # the caller's tables stay theirs
    assert abs(basis.unitary(5)[2, 1] - np.exp(2j * np.pi / 3)) < 1e-15  # U_5 = X Z: 1 -> omega |2>


def test_a_non_weyl_table_basis_passes_every_basis_check(rng):
    # negative control: the Sylvester Hadamard matrix on the Z2 x Z2 square a XOR k
    # is a valid basis with no clock or shift in it
    d, sylvester = 4, np.array([[1, 1], [1, -1]])
    ks = np.arange(d)
    basis = shift_and_multiply(np.kron(sylvester, sylvester), ks[:, None] ^ ks)
    assert not np.array_equal(basis.unitaries, weyl_basis(d).unitaries)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho, obs = random_complex_matrix(rng, d), random_complex_matrix(rng, d)
    reports = [completeness_check(d, basis), tight_teleportation_check(d, rho, obs, basis),
               dense_coding_check(d, basis), branch_weights_check(d, psi, basis),
               *check_tl_decorated(3, d, basis)]
    assert all(r.overall_pass for r in reports), [r.to_text() for r in reports if not r.overall_pass]


def test_a_scatter_that_drops_h_fails_maxent(monkeypatch, capsys):
    # the tables are checked, not the unitaries built from them: a scatter that
    # writes 1 in place of h leaves d copies of each shift, which completeness reads
    scatter = maxent._scatter
    monkeypatch.setattr(maxent, "_scatter", lambda h, latin: scatter(np.ones_like(h), latin))
    assert main(["verify", "maxent", "--d", "3"]) == 1
    assert "[FAIL] maxent-completeness: <Omega_n|Omega_m> = delta_nm" in capsys.readouterr().out


def test_weyl_basis_is_one_read_only_array():
    basis = weyl_basis(3)
    assert basis.unitaries.shape == (9, 3, 3)
    with pytest.raises(ValueError):
        basis.unitaries[0, 0, 0] = 2
    with pytest.raises(ValueError):
        basis.unitary(2)[0, 0] = 2
    mats = np.array(basis.unitaries)
    WeylBasis(3, mats)
    mats[0, 0, 0] = 1  # the basis holds a copy; the caller's array stays writable


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_omega_kets_rows_are_omega_n(d):
    kets = omega_kets(d)
    assert kets.shape == (d * d, d * d)
    for n in range(1, d * d + 1):
        assert np.array_equal(kets[n - 1], omega_n(d, n))


def test_pauli_weyl_basis_is_valid():
    basis = pauli_weyl_basis()
    assert basis.d == 2
    assert max_residual(basis.unitary(3), 1j * pauli(2)) == 0


def test_omega_n_first_is_omega():
    for d in (1, 2, 3):
        ent = omega_n(d, 1)
        assert max_residual(ent, omega(d)) == 0


def test_omega_n_d2_are_bell_states_up_to_phase():
    basis = weyl_basis(2)
    bells = [bell_state(k) for k in BellKind]
    for n in range(1, 5):
        ket = omega_n(2, n, basis)
        overlaps = [abs(linalg.inner(b, ket)) for b in bells]
        assert max(overlaps) > 1 - 1e-12


def test_omega_n_orthonormal_d3():
    basis = weyl_basis(3)
    kets = [omega_n(3, n, basis) for n in range(1, 10)]
    for a in range(9):
        for b in range(9):
            got = linalg.inner(kets[a], kets[b])
            assert abs(got - (1.0 if a == b else 0.0)) < 1e-12


def test_omega_n_projector_idempotent():
    basis = weyl_basis(3)
    for n in (1, 4, 9):
        ket = omega_n(3, n, basis)
        proj = np.outer(ket, ket.conj())
        assert max_residual(proj @ proj, proj) < 1e-12


def test_slide_identity_trivial_and_sigma2():
    assert slide_identity_check(identity(3), 3).overall_pass
    # sigma2 is antisymmetric: direct expansion gives
    # (s2 x 1)|Omega> = (i|10> - i|01>)/sqrt(2) = (0, -i, i, 0)/sqrt(2),
    # and (1 x s2^T)|Omega> = (1 x -s2)|Omega> expands to the same vector
    m = pauli(2)
    left = kron(m, identity(2)) @ omega(2)
    right = kron(identity(2), m.T) @ omega(2)
    expected = np.array([0, -1j, 1j, 0]) / math.sqrt(2)
    assert max_residual(left, expected) < 1e-15
    assert max_residual(right, expected) < 1e-15
    assert slide_identity_check(m, 2).overall_pass


def test_slide_identity_random_d3(rng):
    m = random_complex_matrix(rng, 3)
    report = slide_identity_check(m, 3)
    assert report.overall_pass


entry = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)


@settings(deadline=None, max_examples=25)
@given(d=st.integers(min_value=2, max_value=8), data=st.data())
def test_slide_identity_holds_for_every_matrix(d, data):
    entries = data.draw(st.lists(entry, min_size=2 * d * d, max_size=2 * d * d))
    m = (np.array(entries[:d * d]) + 1j * np.array(entries[d * d:])).reshape(d, d)
    left = kron(m, identity(d)) @ omega(d)
    right = kron(identity(d), m.T) @ omega(d)
    assert max_residual(left, right) < 1e-10


def test_phi_of_is_the_kron_product_on_omega(rng):
    # vec(U)/sqrt(d) reproduces (U x 1)|Omega> bit for bit
    for d in range(1, 6):
        u = random_complex_matrix(rng, d)
        assert np.array_equal(phi_of(u, d), kron(u, identity(d)) @ omega(d))
    with pytest.raises(linalg.DimensionError):
        phi_of(identity(3), 2)


def test_trace_identities():
    assert trace_identities_check(identity(2), identity(2), identity(2), identity(2), 2).overall_pass
    # tr(sigma1) = 0 matches <phi+|psi+> = 0
    psi = phi_of(identity(2), 2)
    psi_p = phi_of(pauli(1), 2)
    assert abs(linalg.inner(psi, psi_p)) < 1e-15
    assert abs(np.trace(pauli(1))) == 0
    assert max_residual(psi_p, bell_state(BellKind.PSI_PLUS)) < 1e-15


def test_trace_identities_random_quadruple(rng):
    mats = [random_complex_matrix(rng, 3) for _ in range(4)]
    report = trace_identities_check(*mats, 3, tol=1e-10)
    assert report.overall_pass


def test_transfer_composition_identity_case():
    report = transfer_composition(identity(2), identity(2), 2)
    assert report.overall_pass
    got = partial_inner_ca_ab(omega(2), omega(2), 2)
    assert max_residual(got, identity(2) / 2) < 1e-15


def test_transfer_composition_sigma3_case():
    # U = 1, V = sigma3: the Charlie-to-Bob map is sigma3 / 2, by direct
    # contraction of the Bell-state amplitudes
    got = partial_inner_ca_ab(phi_of(identity(2), 2), phi_of(pauli(3).T, 2), 2)
    assert max_residual(got, pauli(3) / 2) < 1e-15
    assert transfer_composition(identity(2), pauli(3), 2).overall_pass


def test_transfer_composition_random_unitaries(rng):
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    # brute-force contraction oracle over system A
    chi, xi = phi_of(u, 3), phi_of(v.T, 3)
    oracle = np.zeros((3, 3), dtype=complex)
    for b in range(3):
        for c in range(3):
            oracle[b, c] = sum(np.conj(chi[c * 3 + a]) * xi[a * 3 + b] for a in range(3))
    assert max_residual(oracle, (v @ u.conj().T) / 3) < 1e-12
    assert transfer_composition(u, v, 3, tol=1e-10).overall_pass


def test_transfer_composition_u_equals_v_random(rng):
    # U = V collapses the composition to the bare transfer map / d
    for d in (2, 3, 4):
        u = random_unitary(rng, d)
        got = partial_inner_ca_ab(phi_of(u, d), phi_of(u.T, d), d)
        assert max_residual(got, identity(d) / d) < 1e-12
        assert transfer_composition(u, u, d).overall_pass


def test_transfer_composition_rejects_nonunitary():
    with pytest.raises(ValueError, match="^U is not unitary$"):
        transfer_composition(np.diag([1.0, 2.0]), identity(2), 2)
    with pytest.raises(ValueError, match="^V is not unitary$"):
        transfer_composition(identity(2), np.diag([1.0, 2.0]), 2)
    with pytest.raises(linalg.DimensionError, match="^V must be 2x2"):
        transfer_composition(identity(2), identity(3), 2)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_completeness(d):
    report = completeness_check(d)
    assert report.overall_pass


def test_completeness_d2_is_bell_projector_sum():
    total = sum(np.outer(bell_state(k), bell_state(k).conj()) for k in BellKind)
    assert max_residual(total, identity(4)) < 1e-15
    assert completeness_check(2, basis=pauli_weyl_basis()).overall_pass


def test_completeness_holds_no_identity_or_difference():
    # K K^dag and K^T K^* less 1 in place: at d = 24 the peak is the kets,
    # their conjugate and one product, about three basis sizes
    basis = weyl_basis(24)
    tracemalloc.start()
    try:
        assert completeness_check(24, basis).overall_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.1 * basis.unitaries.nbytes, peak / basis.unitaries.nbytes


def test_completeness_fails_a_nan(monkeypatch):
    kets = omega_kets(2)
    kets[1, 1] = np.nan
    monkeypatch.setattr(maxent, "omega_kets", lambda d, basis=None: kets)
    report = completeness_check(2)
    assert not any(c.passed for c in report.checks) and not report.overall_pass


def test_a_basis_of_another_dimension_is_refused_on_every_path():
    basis = pauli_weyl_basis()
    for use in (lambda: omega_n(3, 1, basis), lambda: omega_kets(3, basis), lambda: check_tl_decorated(3, 3, basis)):
        with pytest.raises(linalg.DimensionError, match="^basis dimension mismatch$"):
            use()
