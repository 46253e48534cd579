import contextlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from entangle_tl import cli, linalg, teleport
from entangle_tl.cli import main
from entangle_tl.linalg import identity, kron, max_residual
from entangle_tl.maxent import omega, omega_n, omega_projector, pauli_weyl_basis, weyl_basis
from entangle_tl.qubit import BellKind, bell_state, pauli
from entangle_tl.report import VerificationReport
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
    with pytest.raises(ValueError, match="^\\(a, b\\) must be normalized$"):
        teleport_equation_qubit_check(1.0, 1.0)


@pytest.mark.parametrize("entry", [measurement_form, branch_weights_check, qudit_resolution_check, simulate])
def test_psi_entries_refuse_an_unnormalized_psi_by_name(entry):
    with pytest.raises(ValueError, match="^psi must be normalized$"):
        entry(2, np.array([1.0, 1.0]))


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
    branches = measurement_form(3, psi, basis)
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


@pytest.mark.parametrize("check", [qudit_resolution_check, branch_weights_check, simulate])
def test_psi_of_another_dimension_refused(check):
    # a unit 2-ket at d = 3 is refused by name before any product is formed
    with pytest.raises(linalg.DimensionError, match="^psi must have dimension 3$"):
        check(3, np.array([0.6, 0.8]))


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
    # all d^2 branches come from one call of measurement_form's kernel, however
    # many trials are drawn
    calls = []
    measure = teleport._branches
    monkeypatch.setattr(teleport, "_branches", lambda *args: calls.append(args) or measure(*args))
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


@pytest.mark.parametrize("d", range(1, 17))
def test_simulate_histogram_is_generator_choice_bit_for_bit(monkeypatch, d):
    # trials on both sides of the 2^14-trial block edges, the probabilities simulate itself formed
    draw, probs = teleport._draw_counts, []
    monkeypatch.setattr(teleport, "_draw_counts", lambda *args: probs.append(args[1]) or draw(*args))
    psi = random_ket(np.random.default_rng(d), d)
    for trials in (1, 2 ** 14 - 1, 2 ** 14, 2 ** 14 + 1, 100_000):
        for seed in (0, 7, 2 ** 40 + 3):
            histogram = simulate(d, psi, trials=trials, seed=seed).histogram
            expected = np.bincount(np.random.default_rng(seed).choice(d * d, trials, p=probs[-1]), minlength=d * d)
            assert histogram == expected.tolist(), f"d={d} trials={trials} seed={seed} numpy {np.__version__}"


@pytest.mark.parametrize("probs", [
    pytest.param(np.array([0.5 ** k for k in range(1, 12)] + [0.5 ** 11]), id="geometric"),
    pytest.param(np.array([0.0, 0.5, 0.0, 0.0, 0.25, 0.25, 0.0]), id="zero-entries"),
    pytest.param(np.array([1e-9] * 9 + [1 - 9e-9]), id="one-heavy-last"),
    pytest.param(np.array([1.0]), id="one-outcome"),
])
def test_draw_counts_is_generator_choice_on_skewed_probabilities(probs):
    for seed, trials in ((0, 1), (3, 2 ** 14 + 1), (11, 50_000)):
        drawn = np.random.default_rng(seed).choice(probs.size, trials, p=probs)
        guesses = np.minimum((np.random.default_rng(seed).random(trials) * probs.size).astype(int), probs.size - 1)
        if trials > 1 and probs.size > 1:  # the guesses miss here, so the search for the misses has to run
            assert (guesses != drawn).any()
        counts = teleport._draw_counts(seed, probs, trials)
        assert counts.tolist() == np.bincount(drawn, minlength=probs.size).tolist(), f"numpy {np.__version__}"


@pytest.mark.parametrize("probs, message", [([np.nan, 1.0], "contain NaN"), ([-0.5, 1.5], "not non-negative"),
                                            ([0.5, 0.4], "do not sum to 1"), ([0.0, 0.0], "do not sum to 1")])
def test_draw_counts_refuses_what_choice_refuses(probs, message):
    with pytest.raises(ValueError, match=message):
        teleport._draw_counts(0, np.array(probs), 10)


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


@pytest.mark.parametrize("d", range(2, 9))
def test_dense_coding_text_lists_the_table_row_by_row(d):
    # the heading, then each row rounded to 12 places and printed at three decimals
    table = np.round(dense_coding_table(d), 12)
    want = [f"  delta table ({d * d}x{d * d}):"] + ["    " + " ".join(f"{x:6.3f}" for x in row) for row in table]
    assert dense_coding_check(d).to_text().splitlines()[1:-1] == want


def test_text_emission_holds_a_few_rows_not_the_whole_text():
    # cli._emit writes a text report line by line and the table is formatted one
    # row at a time: at d = 16 the traced peak stays below an eighth of the
    # 460 kB text, where holding the rows and their joined text took 2.6 MB
    report = dense_coding_check(16)
    text = report.to_text()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cli._emit(report, "text")  # first-call allocations are not traced
        tracemalloc.start()
        try:
            assert cli._emit(report, "text") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(text.splitlines()) == 256 + 3
    assert peak < len(text) / 8, peak


def test_the_dense_coding_table_is_formatted_for_text_reports_only(monkeypatch, capsys):
    # every deferred detail counts its calls: only `verify dense` as text formats the table
    calls, note = [], VerificationReport.note
    monkeypatch.setattr(VerificationReport, "note", lambda self, lines: note(
        self, lambda: calls.append(self.suite_name) or lines()))
    assert main(["verify", "dense", "--d", "8", "--format", "json"]) == 0
    assert main(["verify", "all", "--d", "3"]) == 0  # `verify all` drops the details
    assert calls == []
    assert main(["verify", "dense", "--d", "8"]) == 0
    assert calls == ["dense-coding"] and "delta table (64x64):" in capsys.readouterr().out


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


def test_tight_teleportation_blocks_agree_with_one_block(rng, monkeypatch):
    # blocks of 4, 4 and 1 basis elements at d = 3 give the one-block residuals
    d = 3
    rho = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
    obs = random_unitary(rng, d)
    whole = tight_teleportation_check(d, rho, obs).checks
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * d * d)
    blocked = tight_teleportation_check(d, rho, obs).checks
    assert [c.identity_name for c in blocked] == [c.identity_name for c in whole]
    assert all(abs(a.max_residual - b.max_residual) < 1e-15 for a, b in zip(blocked, whole))
    with pytest.raises(linalg.DimensionError, match="basis dimension mismatch"):
        tight_teleportation_check(3, identity(3), identity(3), pauli_weyl_basis())


def test_tight_teleportation_holds_no_d4_product(rng):
    # at d = 32 the terms form 64 basis elements at a time: the peak is about
    # the kets and one block, below two basis sizes
    d = 32
    basis = weyl_basis(d)
    rho, obs = random_unitary(rng, d) / d, random_unitary(rng, d)
    tracemalloc.start()
    try:
        assert tight_teleportation_check(d, rho, obs, basis).overall_pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * basis.unitaries.nbytes, peak / basis.unitaries.nbytes


@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_tight_and_dense_contractions_match_einsum_bit_for_bit(rng, d, einsum_calls):
    # one block of basis elements up to d = 16 and two at d = 17, each
    # linalg.einsum call (numpy's einsum along the cached greedy path) equal
    # to np.einsum with optimize=True, which searches that path itself, to the bit
    basis = weyl_basis(d)
    tight_teleportation_check(d, random_unitary(rng, d) / d, random_unitary(rng, d), basis)
    dense_coding_table(d, basis)
    assert len(einsum_calls) == 2 * (1 if d <= 16 else 2)
    for spec, operands, out in einsum_calls:
        assert np.array_equal(out, np.einsum(spec, *operands, optimize=True))


def test_dense_coding_blocks_agree_with_one_block(monkeypatch):
    # blocks of 4, 4 and 1 rows at d = 3 give the one-block table
    d = 3
    whole = dense_coding_table(d)
    monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * d * d)
    assert max_residual(dense_coding_table(d), whole) < 1e-15


def test_dense_coding_holds_no_d4_product():
    # at d = 32 the amplitudes form 64 rows at a time: the peak is about the
    # kets, the float table and one block, below two basis sizes
    d = 32
    basis = weyl_basis(d)
    tracemalloc.start()
    try:
        assert dense_coding_table(d, basis).shape == (d * d, d * d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * basis.unitaries.nbytes, peak / basis.unitaries.nbytes


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
