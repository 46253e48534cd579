"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to calibration.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from entangle_tl import braid, diagram as dg, linalg, qubit, teleport, tlalgebra
from entangle_tl.linalg import identity, kron, max_residual
from entangle_tl.maxent import weyl_basis
from entangle_tl.qubit import BellKind, bell_matrix, bell_state, pauli, permutation_qubit

from conftest import (random_composed_diagram, random_ket, random_operator_table,
                      random_unitary)


def report(number, name, worst, tol, extra=""):
    ok = worst <= tol
    line = f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'}  {name}  " \
           f"max residual {worst:.3e} (tol {tol:.0e}){extra}"
    print(line)
    assert ok, line


def test_criterion_1_bell_matrix_suite():
    start = time.monotonic()
    b = bell_matrix()
    worst = 0.0
    worst = max(worst, max_residual(b @ b, 1j * kron(pauli(1), pauli(2))))
    worst = max(worst, max_residual(np.linalg.matrix_power(b, 4), -identity(4)))
    worst = max(worst, max_residual(np.linalg.matrix_power(b, 8), identity(4)))
    worst = max(worst, max_residual(b, (identity(4) + b @ b) / math.sqrt(2)))
    worst = max(worst, max_residual(b @ linalg.product_ket(2, 1, 1), bell_state(BellKind.PHI_PLUS)))
    worst = max(worst, max_residual(b @ linalg.product_ket(2, 0, 0), bell_state(BellKind.PHI_MINUS)))
    worst = max(worst, max_residual(b @ linalg.product_ket(2, 0, 1), bell_state(BellKind.PSI_PLUS)))
    worst = max(worst, max_residual(-(b @ linalg.product_ket(2, 1, 0)), bell_state(BellKind.PSI_MINUS)))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"bell suite took {elapsed:.2f}s"
    report(1, "Bell-matrix identities and state generation", worst, 1e-12,
           f", runtime {elapsed:.3f}s")


def test_criterion_2_braid_suite():
    b = bell_matrix()
    b1, b2 = braid.embed(b, 1, 3), braid.embed(b, 2, 3)
    closed = (kron(identity(2), b @ b) + kron(b @ b, identity(2))) / math.sqrt(2)
    worst = max(max_residual(b1 @ b2 @ b1, closed), max_residual(b2 @ b1 @ b2, closed))
    rep = braid.check_virtual_mixed(b, permutation_qubit(), tol=1e-12)
    worst = max(worst, rep.max_residual)
    assert rep.overall_pass
    report(2, "braid relation for B with closed form; virtual mixed (B, P)", worst, 1e-12)


def test_criterion_3_teleportation_equations():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        a, b_amp = random_ket(rng, 2)
        rep = teleport.teleport_equation_qubit_check(a, b_amp, tol=1e-12)
        assert rep.overall_pass
        worst = max(worst, rep.max_residual)
    rep = teleport.bell_matrix_form_check(tol=1e-12)
    assert rep.overall_pass
    worst = max(worst, rep.max_residual)
    rep = teleport.virtual_form_check(tol=1e-12)
    assert rep.overall_pass
    worst = max(worst, rep.max_residual)
    report(3, "teleportation equation, B-form and virtual form with all variants",
           worst, 1e-12)


def test_criterion_4_qudit_resolution():
    rng = np.random.default_rng(4)
    start = time.monotonic()
    worst = 0.0
    for d in range(2, 9):
        basis = weyl_basis(d)
        for _ in range(20):
            rep = teleport.qudit_resolution_check(d, random_ket(rng, d), basis, tol=1e-10)
            worst = max(worst, rep.max_residual)
            assert rep.overall_pass
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"resolution sweep took {elapsed:.2f}s"
    report(4, "qudit resolution d=2..8, 20 random states each", worst, 1e-10,
           f", runtime {elapsed:.2f}s")


def test_criterion_5_tight_teleportation():
    rng = np.random.default_rng(5)
    worst = 0.0
    for d in range(2, 6):
        basis = weyl_basis(d)
        for _ in range(10):
            rho = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
            obs = np.outer(random_ket(rng, d), random_ket(rng, d).conj())
            rep = teleport.tight_teleportation_check(d, rho, obs, basis, tol=1e-10)
            worst = max(worst, rep.max_residual)
            assert rep.overall_pass
    report(5, "tight teleportation: per-term (1/d^2) tr(rho O) and total, d=2..5",
           worst, 1e-10)


def test_criterion_6_dense_coding():
    worst = 0.0
    for d in range(2, 6):
        table = teleport.dense_coding_table(d)
        worst = max(worst, max_residual(table, np.eye(d * d)))
    report(6, "dense coding delta table exact, d=2..5", worst, 1e-10)


def test_criterion_7_tl_axioms():
    worst = 0.0
    for n in (3, 4, 5):
        for d in (2, 3, 4):
            rep = tlalgebra.check_tl_axioms(n, d, tol=1e-10)
            assert rep.overall_pass, (n, d)
            worst = max(worst, rep.max_residual)
    # diagram bookkeeping: composing E_i E_{i+1} E_i drops the half-power by 4
    e1, e2 = dg.e_gen(1, 3), dg.e_gen(2, 3)
    composed = dg.compose(dg.compose(e1, e2), e1)
    assert composed.scalar.half_power_of_d - e1.scalar.half_power_of_d == -4
    assert composed.loops == ()
    for d in (2, 3):
        for idx in range(1, d * d + 1):
            rep = tlalgebra.check_tl_decorated(3, d, idx, tol=1e-10)
            assert rep.overall_pass, (d, idx)
            worst = max(worst, rep.max_residual)
    report(7, "TL axioms n<=5 d<=4 (diagram + dense); decorated at d=2,3", worst, 1e-10)


def test_criterion_8_brauer_mixed():
    worst = 0.0
    for n in (3, 4):
        for d in (2, 3):
            rep = tlalgebra.check_brauer_mixed(n, d, tol=1e-10)
            assert rep.overall_pass, (n, d)
            worst = max(worst, rep.max_residual)
    for d in (2, 3):
        lhs = tlalgebra.v_matrix(2, 3, d) @ tlalgebra.v_matrix(1, 3, d) @ tlalgebra.e_matrix(2, 3, d)
        rhs = d * (tlalgebra.e_matrix(1, 3, d) @ tlalgebra.e_matrix(2, 3, d))
        worst = max(worst, max_residual(lhs, rhs))
    report(8, "Brauer mixed relations with lambda = d, incl. v2 v1 E2 = d E1 E2",
           worst, 1e-10)


def test_criterion_9_flow_formula():
    rng = np.random.default_rng(9)
    worst = 0.0
    for d, samples in ((2, 50), (3, 10)):
        for _ in range(samples):
            ops = [random_unitary(rng, d) for _ in range(8)]
            phi = random_ket(rng, d)
            expected = tlalgebra.flow_closed_form(ops, phi, d)
            got = tlalgebra.flow_apply(ops, phi, d, evaluator=dg.brute_force_evaluate)
            worst = max(worst, max_residual(got, expected))
            worst = max(worst, max_residual(tlalgebra.flow_apply(ops, phi, d), expected))
    special = 0.0
    for d in (2, 3):
        phi = linalg.basis_ket(d, 0)
        special = max(special, max_residual(
            tlalgebra.flow_apply([identity(d)] * 8, phi, d), phi / d ** 4))
        basis = weyl_basis(d)
        ops = [identity(d)] * 8
        ops[1], ops[4] = basis.unitary(1), basis.unitary(2)
        special = max(special, max_residual(tlalgebra.flow_apply(ops, phi, d), np.zeros(d)))
    assert special <= 1e-12, special
    report(9, "flow formula: brute-force contraction vs closed form (+2 special cases)",
           worst, 1e-9, f", special cases {special:.1e}")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(10)
    start = time.monotonic()
    worst = 0.0
    count = 0
    while count < 200:
        diag = random_composed_diagram(rng, max_strands=4)
        d = int(rng.integers(2, 4))
        ops = random_operator_table(rng, d)
        worst = max(worst, max_residual(dg.evaluate(diag, d, ops),
                                        dg.brute_force_evaluate(diag, d, ops)))
        count += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.2f}s"
    report(10, "evaluate == brute_force_evaluate on 200 random decorated diagrams",
           worst, 1e-10, f", runtime {elapsed:.2f}s")


def test_criterion_11_simulator():
    rng = np.random.default_rng(11)
    worst_fid = 0.0
    # 0.99 chi-square quantiles: dof 3 -> 11.3449, dof 8 -> 20.0902
    chi2_limits = {2: 11.3449, 3: 20.0902}
    for d in (2, 3):
        psi = random_ket(rng, d)
        result = teleport.simulate(d, psi, trials=4096, seed=0)
        worst_fid = max(worst_fid, 1.0 - result.min_fidelity)
        expected = 4096 / d ** 2
        chi2 = sum((c - expected) ** 2 / expected for c in result.histogram)
        assert chi2 < chi2_limits[d], f"chi2={chi2:.2f} at d={d}"
        again = teleport.simulate(d, psi, trials=4096, seed=0)
        assert result.to_json() == again.to_json()
        assert result.to_json().encode() == again.to_json().encode()
    report(11, "simulator: per-trial fidelity 1, uniform outcomes, byte-identical reruns",
           worst_fid, 1e-12)
