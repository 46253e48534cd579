import json
import math

import numpy as np
import pytest

from entangle_tl import linalg, teleport
from entangle_tl.linalg import identity, kron, max_residual
from entangle_tl.maxent import omega, omega_n, omega_projector, pauli_weyl_basis, weyl_basis
from entangle_tl.qubit import BellKind, bell_state, pauli
from entangle_tl.teleport import (bell_matrix_form_check, branch_weights_check,
                                  dense_coding_check, dense_coding_table, measurement_form,
                                  qudit_resolution_check, simulate,
                                  teleport_equation_qubit_check,
                                  tight_teleportation_check, virtual_form_check)

from conftest import random_ket, random_unitary


def test_qubit_equation_basis_states():
    report = teleport_equation_qubit_check(1.0, 0.0)
    assert report.overall_pass
    report = teleport_equation_qubit_check(1 / math.sqrt(2), 1 / math.sqrt(2))
    assert report.overall_pass


def test_qubit_equation_random_phase(rng):
    for _ in range(10):
        theta, phi = rng.uniform(0, 2 * np.pi, size=2)
        a, b = math.cos(theta), math.sin(theta) * np.exp(1j * phi)
        report = teleport_equation_qubit_check(a, b, tol=1e-12)
        assert report.overall_pass


def test_qubit_equation_expansion_oracle(rng):
    # independent 8-dimensional expansion: build both sides from raw kets
    a, b = random_ket(rng, 2)
    psi = np.array([a, b])
    lhs = np.kron(psi, bell_state(BellKind.PHI_PLUS))
    corrections = [identity(2), pauli(3), pauli(1), -1j * pauli(2)]
    rhs = sum(np.kron(bell_state(k), c @ psi)
              for k, c in zip(BellKind, corrections)) / 2
    assert max_residual(lhs, rhs) < 1e-12


def test_qubit_equation_rejects_unnormalized():
    with pytest.raises(ValueError):
        teleport_equation_qubit_check(1.0, 1.0)


def test_bell_matrix_form():
    report = bell_matrix_form_check(tol=1e-12)
    assert report.overall_pass, [c for c in report.checks if not c.passed]


def test_virtual_form():
    report = virtual_form_check(tol=1e-12)
    assert report.overall_pass, [c for c in report.checks if not c.passed]


# Operator mutants of the two form checks and the check names each must fail
_NEG_LAST = ["teleport-bell-matrix-form: " + name for name in (
    "phi+ resource: (1xB)(psi x |11>) = (Bx1)(v x sigma/2 psi)",
    "phi+ resource: configuration form",
    "phi- resource: (Bx1) form with s3 corrections",
    "psi+ resource: configuration form with s1 corrections",
    "psi- resource: configuration form with -i s2 corrections")] + [
    "teleport-virtual-form: left side via (1xB)(Px1)(1xP)",
    "teleport-virtual-form: right side via (1xP - s2s2)(Bx1)"]
_PHASE = ["teleport-bell-matrix-form: phi- resource: (1xB)(psi x |00>) = psi x phi-",
          "teleport-virtual-form: left side via (1xB)(Px1)(1xP)",
          "teleport-virtual-form: right side via (1xP - s2s2)(Bx1)"]
_P_IS_ONE = [f"teleport-virtual-form: {kind} resource: {form}"
             for kind in ("phi+", "phi-", "psi+", "psi-")
             for form in ("(1xP - subtraction) form", "teleport-swap equivalence")] + [
    "teleport-virtual-form: right side via (1xP - s2s2)(Bx1)"]


def _negate_last_column(b):
    b = b.copy()
    b[:, -1] *= -1
    return b


@pytest.mark.parametrize("attr, mutate, failing", [
    ("bell_matrix", _negate_last_column, _NEG_LAST),
    ("bell_matrix", lambda b: b * np.exp(1e-6j), _PHASE),
    ("permutation_qubit", lambda p: identity(4), _P_IS_ONE),
], ids=["B-last-column-negated", "B-phase-1e-6", "P-is-identity"])
def test_form_checks_fail_operator_mutants(monkeypatch, attr, mutate, failing):
    # the two map comparisons fail exactly the checks the per-ket comparison
    # on |0>, |1> and eight random kets failed
    original = getattr(teleport, attr)
    monkeypatch.setattr(teleport, attr, lambda: mutate(original()))
    failed = [f"{r.suite_name}: {c.identity_name}" for r in (bell_matrix_form_check(), virtual_form_check())
              for c in r.checks if not c.passed]
    assert sorted(failed) == sorted(failing)


def test_bell_matrix_form_psi0_explicit_vector():
    # psi = |0>: both sides of the B-form expand to (|000> + |011>)/sqrt(2),
    # frozen from the 8-vector oracle
    from entangle_tl.qubit import bell_matrix, sigma_vec_11

    b = bell_matrix()
    psi = np.array([1.0, 0.0])
    lhs = kron(identity(2), b) @ np.kron(psi, linalg.product_ket(2, 1, 1))
    kets = [linalg.product_ket(2, i, j) for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1))]
    rhs = kron(b, identity(2)) @ sum(
        np.kron(k, (op @ psi)) for k, op in zip(kets, sigma_vec_11())) / 2
    frozen = np.zeros(8, dtype=complex)
    frozen[0] = frozen[3] = 1 / math.sqrt(2)
    assert max_residual(lhs, frozen) < 1e-15
    assert max_residual(rhs, frozen) < 1e-15


def test_measurement_form_qubit_displayed_equations():
    # the four d=2 instances with the unitary set {1, s1, i s2, s3}
    basis = pauli_weyl_basis()
    psi = np.array([0.6, 0.8j])
    state = np.kron(psi, bell_state(BellKind.PHI_PLUS))
    # basis order: U_1=1, U_2=s1, U_3=i s2, U_4=s3
    expected_corrections = [identity(2), pauli(1), -1j * pauli(2), pauli(3)]
    branches = measurement_form(2, psi, basis)
    assert branches.shape == (4, 2)
    for n, branch in enumerate(branches, start=1):
        ket_n = omega_n(2, n, basis)
        # raw projector application oracle
        proj = kron(np.outer(ket_n, ket_n.conj()), identity(2))
        got = proj @ state
        want = np.kron(ket_n, expected_corrections[n - 1] @ psi) / 2
        assert max_residual(got, want) < 1e-12
        assert abs(np.linalg.norm(branch) ** 2 - 0.25) < 1e-12
        assert max_residual(branch, expected_corrections[n - 1] @ psi / 2) < 1e-12


def test_measurement_form_n1_returns_psi():
    psi = np.array([0.6, 0.8])
    branch = measurement_form(2, psi)[0]
    assert max_residual(2 * branch, psi) < 1e-12


def test_measurement_form_random_d3(rng):
    basis = weyl_basis(3)
    psi = random_ket(rng, 3)
    state = np.kron(psi, omega(3))
    branches = measurement_form(3, psi, basis, tol=1e-10)
    for n in (2, 5, 9):
        branch = branches[n - 1]
        ket_n = omega_n(3, n, basis)
        proj = kron(np.outer(ket_n, ket_n.conj()), identity(3))
        got = proj @ state
        want = np.kron(ket_n, basis.unitary(n).conj().T @ psi) / 3
        assert max_residual(got, want) < 1e-10
        assert abs(np.linalg.norm(branch) ** 2 - 1 / 9) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_measurement_form_returns_bob_branch(rng, d):
    # (<Omega_n| x 1)(|psi> x |Omega>) = U_n^dag |psi> / d for every outcome
    basis = weyl_basis(d)
    psi = random_ket(rng, d)
    branches = measurement_form(d, psi, basis)
    assert branches.shape == (d * d, d)
    for n, branch in enumerate(branches, start=1):
        assert max_residual(branch, basis.unitary(n).conj().T @ psi / d) < 1e-13


def test_measurement_form_refuses_a_violated_identity(monkeypatch, rng):
    # |Omega> scaled by 1 + 1e-6 moves every branch off U_n^dag psi / d
    monkeypatch.setattr(teleport, "omega", lambda d: omega(d) * (1 + 1e-6))
    with pytest.raises(ValueError, match="measurement identity violated"):
        measurement_form(3, random_ket(rng, 3))


@pytest.mark.parametrize("d", [2, 3])
def test_branch_weights(rng, d):
    report = branch_weights_check(d, random_ket(rng, d), tol=1e-12)
    assert report.suite_name == "measurement-form"
    assert [c.identity_name for c in report.checks] == ["branch weight 1/d^2 for every outcome"]
    assert report.overall_pass


def test_measurement_branches_sum_to_state():
    # summing the four qubit measurement equations reproduces the full
    # teleportation expansion
    basis = pauli_weyl_basis()
    psi = np.array([0.48, 0.6 + 0.64j])
    psi = psi / np.linalg.norm(psi)
    total = np.zeros(8, dtype=complex)
    for n in range(1, 5):
        ket_n = omega_n(2, n, basis)
        total += np.kron(ket_n, basis.unitary(n).conj().T @ psi) / 2
    assert max_residual(total, np.kron(psi, omega(2))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 5])
def test_qudit_resolution(rng, d):
    psi = random_ket(rng, d)
    report = qudit_resolution_check(d, psi, tol=1e-10)
    assert report.overall_pass


def test_qudit_resolution_d2_reproduces_qubit_equation():
    psi = np.array([0.6, 0.8])
    assert qudit_resolution_check(2, psi, basis=pauli_weyl_basis()).overall_pass


def test_qudit_resolution_any_trace_orthonormal_basis(rng):
    # conjugating the clock-shift family by a fixed unitary preserves
    # trace-orthonormality; the resolution must still hold
    d = 3
    v = random_unitary(rng, d)
    base = weyl_basis(d)
    conjugated = type(base)(d, tuple(v @ u @ v.conj().T for u in base.unitaries))
    psi = random_ket(rng, d)
    assert qudit_resolution_check(d, psi, basis=conjugated, tol=1e-10).overall_pass


def test_simulate_fidelity_and_uniformity():
    result = simulate(2, np.array([0.6, 0.8]), trials=4096, seed=0)
    assert result.min_fidelity > 1 - 1e-12
    assert sum(result.histogram) == 4096
    expected = 4096 / 4
    chi2 = sum((c - expected) ** 2 / expected for c in result.histogram)
    assert chi2 < 11.3449  # 0.99 quantile, 3 dof


def test_simulate_seeded_runs_identical():
    psi = np.array([0.6, 0.8])
    a = simulate(2, psi, trials=256, seed=42).to_json()
    b = simulate(2, psi, trials=256, seed=42).to_json()
    assert a == b


def test_simulate_golden_histogram_d3():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    result = simulate(3, psi, trials=1000, seed=7)
    assert result.histogram == [110, 129, 109, 98, 114, 113, 115, 105, 107]
    assert result.min_fidelity > 1 - 1e-12


def test_simulate_work_per_outcome_not_per_trial(monkeypatch):
    # all d^2 branches come from one measurement_form call, however many
    # trials are drawn
    calls = []
    measure = teleport.measurement_form
    monkeypatch.setattr(teleport, "measurement_form", lambda *args: calls.append(args) or measure(*args))
    for trials in (10, 10_000):
        calls.clear()
        result = simulate(2, np.array([0.6, 0.8]), trials=trials, seed=1)
        assert all(result.histogram)  # every outcome occurs in both runs
        assert len(calls) == 1


# recorded from the per-trial implementation this one replaced
_D8_HISTOGRAM = [1531, 1596, 1564, 1549, 1567, 1522, 1590, 1660, 1556, 1490, 1580, 1553, 1594, 1550,
                 1646, 1572, 1566, 1577, 1549, 1512, 1470, 1582, 1597, 1466, 1593, 1557, 1550, 1528,
                 1610, 1571, 1626, 1585, 1509, 1498, 1478, 1544, 1532, 1612, 1601, 1583, 1550, 1616,
                 1565, 1526, 1590, 1604, 1564, 1605, 1612, 1507, 1526, 1515, 1614, 1505, 1538, 1647,
                 1559, 1583, 1546, 1542, 1548, 1603, 1557, 1562]


@pytest.mark.parametrize("d, seed, trials, expected", [
    (2, 7, 1000, '{"d": 2, "histogram": [257, 245, 245, 253], "min_fidelity": 1.0, "seed": 7, '
                 '"trials": 1000}'),
    (3, 7, 1000, '{"d": 3, "histogram": [110, 129, 109, 98, 114, 113, 115, 105, 107], '
                 '"min_fidelity": 1.0, "seed": 7, "trials": 1000}'),
    (8, 11, 100_000, '{"d": 8, "histogram": [' + ", ".join(map(str, _D8_HISTOGRAM))
                     + '], "min_fidelity": 0.9999999999999998, "seed": 11, "trials": 100000}'),
])
def test_simulate_json_pinned(d, seed, trials, expected):
    assert simulate(d, random_ket(np.random.default_rng(d), d), trials=trials, seed=seed).to_json() == expected


def test_simulate_json_record_schema():
    result = simulate(2, np.array([1.0, 0.0]), trials=8, seed=1)
    record = json.loads(result.to_json())
    assert set(record) == {"d", "seed", "trials", "histogram", "min_fidelity"}
    assert record["d"] == 2 and record["trials"] == 8 and record["seed"] == 1


def test_simulate_rejects_bad_input():
    with pytest.raises(ValueError):
        simulate(2, np.array([1.0, 1.0]), trials=4)
    with pytest.raises(ValueError):
        simulate(2, np.array([1.0, 0.0]), trials=0)


def test_tight_teleportation_identity_case():
    # rho = O = 1: every trace identity reduces to tr(1) = d
    for d in (2, 3):
        report = tight_teleportation_check(d, identity(d), identity(d), tol=1e-10)
        assert report.overall_pass


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tight_teleportation_rank_one(rng, d):
    rho = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    obs = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    report = tight_teleportation_check(d, rho, obs, tol=1e-10)
    assert report.overall_pass


def test_tight_teleportation_trace_oracle(rng):
    # independent computation of one term: tr(AB) by explicit double sum over
    # the d^3-dimensional composite indices, no matmul
    d = 3
    basis = weyl_basis(d)
    rho = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    obs = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    w = np.outer(omega(d), omega(d).conj())
    n = 4
    ket_n = omega_n(d, n, basis)
    wn = np.outer(ket_n, ket_n.conj())
    tno = basis.unitary(n).conj().T @ obs @ basis.unitary(n)
    a, b = np.kron(rho, w), np.kron(wn, tno)
    term = sum(a[i, j] * b[j, i] for i in range(d ** 3) for j in range(d ** 3))
    assert abs(term - np.trace(rho @ obs) / d ** 2) < 1e-12


def test_dense_coding_tables():
    for d in (2, 4):
        table = dense_coding_table(d)
        assert max_residual(table, np.eye(d * d)) < 1e-10
        assert dense_coding_check(d, tol=1e-10).overall_pass


def test_dense_coding_n_equals_m_is_one():
    table = dense_coding_table(3)
    assert abs(table[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tight_teleportation_matches_explicit_trace_form(rng, d):
    # the residuals of sum_n tr((rho x omega)(omega_n x T_n(O))) with each
    # trace taken of the explicit d^3 x d^3 product
    basis = weyl_basis(d)
    rho = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    obs = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    target = np.trace(rho @ obs)
    terms = []
    for n in range(1, d * d + 1):
        u, ket_n = basis.unitary(n), omega_n(d, n, basis)
        b = np.kron(np.outer(ket_n, ket_n.conj()), u.conj().T @ obs @ u)
        terms.append(np.trace(np.kron(rho, omega_projector(d)) @ b))
    want = {"per-term value tr(rho O)/d^2": max(abs(t - target / d ** 2) for t in terms),
            "total sum = tr(rho O)": abs(sum(terms) - target)}
    got = {c.identity_name: c.max_residual for c in tight_teleportation_check(d, rho, obs, basis).checks}
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) < 1e-13 for k in want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dense_coding_table_matches_explicit_trace_form(d):
    # tr(omega (U_n^dag x 1) omega_m (U_n x 1)) with the conjugated projector formed
    basis = weyl_basis(d)
    w = omega_projector(d)
    want = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d * d):
        un = np.kron(basis.unitary(n + 1), np.eye(d))
        for m in range(d * d):
            ket = omega_n(d, m + 1, basis)
            want[n, m] = np.trace(w @ (un.conj().T @ np.outer(ket, ket.conj()) @ un))
    assert max_residual(dense_coding_table(d, basis), want) < 1e-13
