import functools
import tracemalloc

import numpy as np
import pytest

from entangle_tl import diagram as dg
from entangle_tl import braid, linalg, tlalgebra
from entangle_tl.braid import swap
from entangle_tl.linalg import identity, kron, max_residual
from entangle_tl.maxent import omega_projector, pauli_weyl_basis, phi_of, weyl_basis
from entangle_tl.tlalgebra import (FLOW_LABELS, check_brauer_mixed, check_flow, check_tl_axioms,
                                   check_tl_decorated, closed_flow_diagram, e_matrix, flow_apply,
                                   flow_closed_form, flow_diagram, v_matrix)

from conftest import random_ket, random_unitary


def test_e_matrix_is_embedded_omega():
    for d in (2, 3):
        expected = kron(omega_projector(d), identity(d))
        assert max_residual(e_matrix(1, 3, d), expected) == 0


@pytest.mark.parametrize("n,d", [(3, 2), (3, 4), (4, 2), (5, 3)])
def test_tl_axioms(n, d):
    report = check_tl_axioms(n, d, tol=1e-10)
    assert report.overall_pass, [c for c in report.checks if not c.passed]


def test_tl_axioms_explicit_factor():
    # E1 E2 E1 = (1/d^2) E1 by direct dense computation
    for d, factor in ((2, 0.25), (4, 1 / 16)):
        e1, e2 = e_matrix(1, 3, d), e_matrix(2, 3, d)
        assert max_residual(e1 @ e2 @ e1, factor * e1) < 1e-12


def test_tl_far_commutativity_disjoint_strands():
    e1, e3 = e_matrix(1, 5, 3), e_matrix(3, 5, 3)
    assert max_residual(e1 @ e3, e3 @ e1) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_tl_decorated_every_basis_element(d):
    reports = check_tl_decorated(3, d, tol=1e-10)
    assert [r.suite_name for r in reports] == [f"tl-decorated n=3 d={d} basis={idx}" for idx in range(1, d * d + 1)]
    for idx, report in enumerate(reports, start=1):
        assert report.overall_pass, (idx, [c for c in report.checks if not c.passed])


def test_tl_decorated_identity_reduces_to_plain():
    plain = check_tl_axioms(3, 2, tol=1e-10)
    decorated = check_tl_decorated(3, 2, tol=1e-10)[0]
    assert plain.overall_pass and decorated.overall_pass


def test_tl_decorated_refuses_a_basis_of_another_dimension():
    with pytest.raises(linalg.DimensionError, match="basis dimension mismatch"):
        check_tl_decorated(3, 3, pauli_weyl_basis())


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (2, 4)])
def test_tl_decorated_reports_do_not_depend_on_the_chunk(monkeypatch, d, n):
    # one basis element per chunk is the per-index check; chunks of two put a
    # boundary inside the basis, and d^2 elements make one stack
    reports = []
    for per_chunk in (1, 2, d * d):
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 2 * per_chunk * d ** 3 * min(braid.BLOCK, d ** 3))
        reports.append([r.to_dict() for r in check_tl_decorated(n, d)])
    assert reports[0] == reports[1] == reports[2]
    assert len(reports[0]) == d * d


def test_tl_decorated_forms_no_d6_array():
    # each decorated diagram is compared with its projector on the two strands it
    # touches: at d = 8 on 3 strands the peak stays below one complex d^6 array (4.2 MB)
    d = 8
    tracemalloc.start()
    try:
        reports = check_tl_decorated(3, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(report.overall_pass for report in reports)
    assert peak < 16 * d ** 6, peak


def test_tl_decorated_sigma1_direct_products():
    # d=2, U = sigma1 (basis element 3 of the clock-shift family): direct
    # 8x8 products
    d = 2
    basis = weyl_basis(d)
    u = basis.unitary(3)
    w = kron(u, identity(d)) @ omega_projector(d) @ kron(u, identity(d)).conj().T
    e1, e2 = kron(w, identity(d)), kron(identity(d), w)
    assert max_residual(e1 @ e2 @ e1, e1 / 4) < 1e-12
    assert max_residual(e2 @ e1 @ e2, e2 / 4) < 1e-12


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_brauer_mixed(n, d):
    report = check_brauer_mixed(n, d, tol=1e-10)
    assert report.overall_pass, [c for c in report.checks if not c.passed]


def test_brauer_v2v1e2_index_oracle():
    # v2 v1 E2 maps |a b c> to (delta_bc / d) sum_l |l l a>; confirms lambda = d
    for d in (2, 3):
        lhs = v_matrix(2, 3, d) @ v_matrix(1, 3, d) @ e_matrix(2, 3, d)
        oracle = np.zeros((d ** 3, d ** 3), dtype=complex)
        for a in range(d):
            for b in range(d):
                for c in range(d):
                    col = (a * d + b) * d + c
                    if b == c:
                        for l in range(d):
                            oracle[(l * d + l) * d + a, col] += 1 / d
        assert max_residual(lhs, oracle) < 1e-12
        assert max_residual(lhs, d * (e_matrix(1, 3, d) @ e_matrix(2, 3, d))) < 1e-12


def dense_strand_matrices(n, d):
    """E_i and v_i as explicit kron(1, op, 1) matrices."""
    def emb(op, i):
        return np.kron(np.kron(np.eye(d ** (i - 1)), op), np.eye(d ** (n - i - 1)))
    e = {i: emb(omega_projector(d), i) for i in range(1, n)}
    v = {i: emb(swap(d), i) for i in range(1, n)}
    return e, v


def ordered_by_name(want):
    """(name, residual) pairs as a report lists them: by name, equal names in
    the order they were added."""
    return sorted(want, key=lambda pair: pair[0])


@pytest.mark.parametrize("d", [2, 3])
def test_tl_axioms_residuals_equal_dense_formula(d):
    # each relation on all n strands, including the two E_iE_jE_i checks
    # that share a name
    for n in (3, 4, 5, 6):
        e, _ = dense_strand_matrices(n, d)
        want = []
        for i in range(1, n):
            want.append((f"E_{i}^2 = E_{i} (dense)", max_residual(e[i] @ e[i], e[i])))
            want.append((f"E_{i} hermitian (dense)", max_residual(e[i], e[i].conj().T)))
            for j in (i - 1, i + 1):
                if 1 <= j <= n - 1:
                    want.append((f"E_{i}E_{j}E_{i} = d^-2 E_{i} (dense)",
                                 max_residual(e[i] @ e[j] @ e[i], e[i] / d ** 2)))
            for j in range(i + 2, n):
                want.append((f"E_{i}E_{j} = E_{j}E_{i} (dense)",
                             max_residual(e[i] @ e[j], e[j] @ e[i])))
        got = [(c.identity_name, c.max_residual) for c in check_tl_axioms(n, d).checks
               if c.identity_name.endswith("(dense)")]
        assert got == ordered_by_name(want), n


@pytest.mark.parametrize("d", [2, 3])
def test_brauer_mixed_residuals_equal_dense_formula(d):
    for n in (3, 4, 5, 6):
        e, v = dense_strand_matrices(n, d)
        want = []
        for i in range(1, n):
            want.append((f"E_{i} v_{i} = E_{i}", max_residual(e[i] @ v[i], e[i])))
            want.append((f"v_{i} E_{i} = E_{i}", max_residual(v[i] @ e[i], e[i])))
            for j in range(1, n):
                if abs(i - j) > 1:
                    want.append((f"E_{i} v_{j} = v_{j} E_{i}",
                                 max_residual(e[i] @ v[j], v[j] @ e[i])))
            for j in (i - 1, i + 1):
                if 1 <= j <= n - 1:
                    target = d * (e[i] @ e[j])
                    want.append((f"v_{j} v_{i} E_{j} = d E_{i} E_{j}",
                                 max_residual(v[j] @ v[i] @ e[j], target)))
                    want.append((f"E_{i} v_{j} v_{i} = d E_{i} E_{j}",
                                 max_residual(e[i] @ v[j] @ v[i], target)))
        got = [(c.identity_name, c.max_residual) for c in check_brauer_mixed(n, d).checks]
        assert got == ordered_by_name(want), n


def tl_word(word, n):
    """A word of TL generator positions as one n-strand diagram; its
    rightmost generator acts first, so it goes on top."""
    return functools.reduce(dg.compose, [dg.e_gen(i, n) for i in reversed(word)])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_tl_diagram_relations_on_touched_strands_equal_n_strands(d):
    # each named relation formed on all n strands from this test's own loops:
    # the check, which forms it once on the strands it touches, passes exactly
    # the names whose n-strand words satisfy it
    for n in range(3, 9):
        want = []
        for i in range(1, n):
            gen = dg.e_gen(i, n)
            assert dg.adjoint_diagram(gen) == gen
            want.append(f"E_{i} self-adjoint (diagram)")
            assert abs(dg.structural_ratio(tl_word([i, i], n), gen, d) - 1) < 1e-12, (n, i)
            want.append(f"E_{i}^2 = E_{i} (diagram: loop cancels cup/cap powers)")
            for j in (i - 1, i + 1):
                if 1 <= j <= n - 1:
                    ratio = dg.structural_ratio(tl_word([i, j, i], n), gen, d)
                    assert abs(ratio - 1 / d ** 2) < 1e-12, (n, i, j)
                    want.append(f"E_{i}E_{j}E_{i} = d^-2 E_{i} (diagram: half-power drop -4)")
            for j in range(i + 2, n):
                assert tl_word([i, j], n) == tl_word([j, i], n), (n, i, j)
                want.append(f"E_{i}E_{j} = E_{j}E_{i} (diagram)")
        checks = [c for c in check_tl_axioms(n, d).checks if "(diagram" in c.identity_name]
        assert [c.identity_name for c in checks] == sorted(want), n
        assert all(c.passed for c in checks), n


def test_tl_axioms_compose_on_at_most_four_strands(monkeypatch):
    # each distinct relation is formed once whatever n is: n adds names only
    widths, residuals, strands = [], [], []
    compose, residual, scatter = dg.compose, tlalgebra.relation_residual, braid._embed

    def recording(top_diag, bottom_diag):
        widths.append(max(top_diag.top, top_diag.bottom, bottom_diag.bottom))
        return compose(top_diag, bottom_diag)

    monkeypatch.setattr(dg, "compose", recording)
    monkeypatch.setattr(tlalgebra, "relation_residual", lambda *args: residuals.append(args) or residual(*args))
    monkeypatch.setattr(braid, "_embed", lambda op, i, n, cols, d: strands.append(n) or scatter(op, i, n, cols, d))
    for n in (4, 64):
        widths.clear()
        residuals.clear()
        assert check_tl_axioms(n, 2).overall_pass
        # one composition for the square, two per adjacent triple, one per far side
        assert (len(widths), len(residuals)) == (7, 4), n
        assert max(widths) == 4
        residuals.clear()
        assert check_brauer_mixed(n, 2).overall_pass
        assert len(residuals) == 8, n
    assert strands and max(strands) <= 4


def test_tl_self_adjointness_is_formed_once(monkeypatch):
    # the diagram's self-adjointness is checked once, on the two strands E_i
    # touches, and reported under every i: a generator that is not
    # self-adjoint fails every one of those checks
    formed, adjoint = [], dg.adjoint_diagram
    monkeypatch.setattr(dg, "adjoint_diagram", lambda diag: formed.append(diag.top) or adjoint(diag))
    for n in (4, 64):
        formed.clear()
        checks = [c for c in check_tl_axioms(n, 2).checks if "self-adjoint" in c.identity_name]
        assert [c.identity_name for c in checks] == sorted(f"E_{i} self-adjoint (diagram)" for i in range(1, n))
        assert all(c.passed for c in checks) and formed == [2], n
    e_gen = dg.e_gen

    def phased(i, n):  # the coefficient i is conjugated by the adjoint
        gen = e_gen(i, n)
        return dg.DecoratedDiagram(gen.top, gen.bottom, gen.strands, gen.loops, dg.ScalarFactor(1j, -2))

    monkeypatch.setattr(dg, "e_gen", phased)
    checks = [c for c in check_tl_axioms(5, 2).checks if "self-adjoint" in c.identity_name]
    assert len(checks) == 4 and not any(c.passed for c in checks)


def test_relations_without_a_position_are_not_formed(monkeypatch):
    # at n = 3 there is no far pair: forming one would need 4 strands
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 2 ** 6)  # 3 strands at d = 2, not 4
    for report in (check_tl_axioms(3, 2), *check_tl_decorated(3, 2), check_brauer_mixed(3, 2)):
        assert report.overall_pass, report.suite_name


def tl_check_names(n):
    """Every check name of check_tl_axioms on n strands, enumerated here."""
    names = []
    for i in range(1, n):
        names += [f"E_{i} hermitian (dense)", f"E_{i} self-adjoint (diagram)", f"E_{i}^2 = E_{i} (dense)",
                  f"E_{i}^2 = E_{i} (diagram: loop cancels cup/cap powers)"]
        for j in (i - 1, i + 1):
            if 1 <= j <= n - 1:
                names += [f"E_{i}E_{j}E_{i} = d^-2 E_{i} (dense)",
                          f"E_{i}E_{j}E_{i} = d^-2 E_{i} (diagram: half-power drop -4)"]
        for j in range(i + 2, n):
            names += [f"E_{i}E_{j} = E_{j}E_{i} (dense)", f"E_{i}E_{j} = E_{j}E_{i} (diagram)"]
    return sorted(names)


def brauer_check_names(n):
    """Every check name of check_brauer_mixed on n strands, enumerated here."""
    names = []
    for i in range(1, n):
        names += [f"E_{i} v_{i} = E_{i}", f"v_{i} E_{i} = E_{i}"]
        names.extend(f"E_{i} v_{j} = v_{j} E_{i}" for j in range(1, n) if abs(i - j) > 1)
        for j in (i - 1, i + 1):
            if 1 <= j <= n - 1:
                names += [f"v_{j} v_{i} E_{j} = d E_{i} E_{j}", f"E_{i} v_{j} v_{i} = d E_{i} E_{j}"]
    return sorted(names)


@pytest.mark.parametrize("n", [9, 40, 64])
def test_check_names_at_large_n(n):
    # names are generated apart from the words: each position still gets its own
    for report, want in ((check_tl_axioms(n, 2), tl_check_names(n)),
                         (check_brauer_mixed(n, 2), brauer_check_names(n))):
        assert [c.identity_name for c in report.checks] == want, report.suite_name
        assert report.overall_pass, report.suite_name


@pytest.mark.parametrize("d", [2, 3])
def test_wrong_generator_scalar_fails_every_diagram_ratio_check(monkeypatch, d):
    e_gen = dg.e_gen

    def half_normalized(i, n):  # d^(-1/2) per generator instead of d^-1
        gen = e_gen(i, n)
        return dg.DecoratedDiagram(gen.top, gen.bottom, gen.strands, gen.loops, dg.ScalarFactor(1.0, -1))

    monkeypatch.setattr(dg, "e_gen", half_normalized)
    checks = check_tl_axioms(5, d).checks
    ratio_checks = [c for c in checks if "(diagram: " in c.identity_name]
    assert len(ratio_checks) == 4 + 2 * 3  # every square and adjacent relation
    assert not any(c.passed for c in ratio_checks)
    # the dense checks, self-adjointness and far commutativity cannot see it
    assert all(c.passed for c in checks if c not in ratio_checks)


def diagram_ratios(table, n, d):
    """Each row of table on n strands through the diagram letters: its names with
    whether structural_ratio of its two composed sides is d ** power."""
    got = []
    for names, lhs, rhs, power, *_ in tlalgebra._relations(table, n, "E", {"E": dg.e_gen, "v": dg.v_gen}):
        m = max(k for _, k in lhs + rhs) + 1
        left, right = (functools.reduce(dg.compose, [gen(k, m) for gen, k in reversed(word)]) for word in (lhs, rhs))
        ratio = dg.structural_ratio(left, right, d)
        got += [(name, ratio is not None and abs(ratio - d ** power) < 1e-12) for name in names]
    return got


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_brauer_rows_hold_as_diagrams(d):
    # every Brauer row, read through e_gen and v_gen, has the two sides' strand
    # structure equal and their scalars in the ratio d ** power
    got = diagram_ratios(tlalgebra.BRAUER_RELATIONS, 5, d)
    assert sorted(name for name, _ in got) == brauer_check_names(5)
    assert all(ok for _, ok in got), [name for name, ok in got if not ok]


def mutated(table, lhs, power):
    """table with the power of its row whose left word is lhs replaced."""
    return tuple((*row[:4], power, *row[5:]) if row[2] == lhs else row for row in table)


@pytest.mark.parametrize("d", [2, 3])
def test_a_wrong_tl_row_fails_in_every_calculus(monkeypatch, d):
    # E1 E2 E1 = d^-1 E1 in place of d^-2: its dense, diagram and decorated lines
    # fail, and no other line does
    monkeypatch.setattr(tlalgebra, "TL_RELATIONS", mutated(tlalgebra.TL_RELATIONS, "E1 E2 E1", -1))
    wrong = [f"E_{i}E_{j}E_{i} = d^-2 E_{i}" for i, j in ((1, 2), (2, 3))]
    failed = {c.identity_name for c in check_tl_axioms(4, d).checks if not c.passed}
    assert failed == {name + suffix for name in wrong for suffix in (" (dense)", " (diagram: half-power drop -4)")}
    for report in check_tl_decorated(4, d):
        failed = {c.identity_name for c in report.checks if not c.passed}
        assert failed == {name.replace("E", "Et") for name in wrong}, report.suite_name


@pytest.mark.parametrize("d", [2, 3])
def test_a_wrong_brauer_row_fails_in_every_calculus(monkeypatch, d):
    # v2 v1 E2 = d^2 E1 E2 in place of d E1 E2: its dense lines fail, and so do its
    # diagram ratios, and nothing else
    table = mutated(tlalgebra.BRAUER_RELATIONS, "v2 v1 E2", 2)
    wrong = {"v_2 v_1 E_2 = d E_1 E_2", "v_3 v_2 E_3 = d E_2 E_3"}
    assert {name for name, ok in diagram_ratios(table, 4, d) if not ok} == wrong
    monkeypatch.setattr(tlalgebra, "BRAUER_RELATIONS", table)
    assert {c.identity_name for c in check_brauer_mixed(4, d).checks if not c.passed} == wrong


def test_every_entry_shares_one_strand_range():
    for entry in (check_tl_axioms, check_tl_decorated, check_brauer_mixed):
        for n in (2, tlalgebra.MAX_STRANDS + 1):
            with pytest.raises(ValueError, match=f"3 <= n <= {tlalgebra.MAX_STRANDS}, got {n}$"):
                entry(n, 2)


@pytest.mark.parametrize("run, refused", [
    (lambda: check_tl_axioms(3, 9), 16 * 9 ** 4),  # the projector
    (lambda: check_brauer_mixed(3, 9), 16 * 9 ** 4),
    (lambda: braid.check_virtual_relations(braid.Swap(9)), 16 * 9 ** 4),  # identity(81)
    (lambda: braid.check_braid_relation(braid.Swap(40)), 8 * 40 ** 3),  # the 3-strand columns
    (lambda: braid.embed(braid.Swap(40), 1, 3), 8 * 40 ** 3),
], ids=["tl", "brauer", "virtual", "braid", "embed"])
def test_refusals_form_no_array_of_the_refused_size(monkeypatch, run, refused):
    # each relation check or embedding past the output limit is refused before
    # it forms an array as large as one it refuses
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 2 ** 12)
    tracemalloc.start()
    try:
        with pytest.raises(linalg.DimensionError, match=" entries exceeds 4096"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < refused, peak


def test_teleportation_configuration_via_swaps():
    # E1 E2 = (1/d) v2 v1 E2: teleportation through two swap gates and a
    # Bell measurement
    for d in (2, 3):
        lhs = e_matrix(1, 3, d) @ e_matrix(2, 3, d)
        rhs = (v_matrix(2, 3, d) @ v_matrix(1, 3, d) @ e_matrix(2, 3, d)) / d
        assert max_residual(lhs, rhs) < 1e-12


# --- flow -------------------------------------------------------------------


def test_flow_diagram_shape():
    diag = flow_diagram()
    assert diag.top == 5 and diag.bottom == 5
    assert len(diag.loops) == 2
    assert diag.scalar.half_power_of_d == -16


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_closed_flow_matches_dense_flow_with_boundary_kets(rng, d, evaluator):
    # the dense d^5 x d^5 flow matrix, its boundary projectors resolved in
    # plain numpy: U6, U8 kets on T1-T4, U1, U3 bras on B0-B3
    u = [random_unitary(rng, d) for _ in range(8)]
    ops = dict(zip(FLOW_LABELS, u))
    dense = dg.evaluate(flow_diagram(), d, ops).reshape((d,) * 10)
    kets = [phi_of(u[k], d).reshape(d, d) for k in (5, 7, 0, 2)]
    expected = np.einsum("abcdeftuvw,tu,vw,ab,cd->ef", dense, kets[0], kets[1],
                         kets[2].conj(), kets[3].conj())
    assert max_residual(evaluator(closed_flow_diagram(), d, ops), expected) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_flow_loops_are_the_closed_form_traces(rng, d):
    u = [random_unitary(rng, d) for _ in range(8)]
    diag = flow_diagram()
    expected = (np.trace(u[1].conj().T @ u[4]) * np.trace(u[3].conj().T @ u[6])) / d ** 8
    assert abs(dg.scalar_value(diag, d, dict(zip(FLOW_LABELS, u))) - expected) < 1e-12


def test_closed_flow_diagram_structure(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed_flow_diagram must not evaluate")
    monkeypatch.setattr(dg, "evaluate", refuse)
    monkeypatch.setattr(dg, "brute_force_evaluate", refuse)
    diag = closed_flow_diagram()
    D = dg.Decoration
    assert (diag.top, diag.bottom) == (1, 1)
    (strand,) = diag.strands
    assert (strand.start, strand.end) == (dg.Endpoint(dg.TOP, 0), dg.Endpoint(dg.BOTTOM, 0))
    # walked top to bottom: U8^T U7^dag U6^T U5^* U4 U3^dag U2^T U1^dag
    assert strand.decorations == (D("u1", "dagger"), D("u2", "transpose"), D("u3", "dagger"),
                                  D("u4", "plain"), D("u5", "conjugate"), D("u6", "transpose"),
                                  D("u7", "dagger"), D("u8", "transpose"))
    # tr(U2^* U5^T) = tr(U2^dag U5), tr(U4^* U7^T) = tr(U4^dag U7) and four
    # loops tr(U^* U^T) = d
    unitarity = tuple((D(u, "transpose"), D(u, "conjugate")) for u in ("u6", "u8", "u1", "u3"))
    assert diag.loops == ((D("u5", "transpose"), D("u2", "conjugate")),
                          (D("u7", "transpose"), D("u4", "conjugate"))) + unitarity
    assert diag.scalar == dg.ScalarFactor(1.0, -20)


def test_flow_all_identities():
    for d in (2, 3):
        phi = linalg.basis_ket(d, 0)
        out = flow_apply([identity(d)] * 8, phi, d)
        assert max_residual(out, phi / d ** 4) < 1e-12


def test_flow_orthogonal_pair_gives_zero():
    d = 2
    basis = weyl_basis(d)
    ops = [identity(d)] * 8
    ops[1] = basis.unitary(1)
    ops[4] = basis.unitary(4)  # trace-orthogonal to U_2
    out = flow_apply(ops, linalg.basis_ket(d, 0), d)
    assert max_residual(out, np.zeros(d)) < 1e-12


def test_flow_closed_form_random(rng):
    for d in (2, 3):
        ops = [random_unitary(rng, d) for _ in range(8)]
        phi = random_ket(rng, d)
        out = flow_apply(ops, phi, d)
        assert max_residual(out, flow_closed_form(ops, phi, d)) < 1e-9


def test_flow_brute_force_matches(rng):
    d = 2
    ops = [random_unitary(rng, d) for _ in range(8)]
    phi = random_ket(rng, d)
    got = flow_apply(ops, phi, d, evaluator=dg.brute_force_evaluate)
    assert max_residual(got, flow_closed_form(ops, phi, d)) < 1e-9


@pytest.mark.parametrize("d", [6, 8, 16])
@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_flow_large_d_matches_closed_form(rng, d, evaluator):
    ops = [random_unitary(rng, d) for _ in range(8)]
    phi = random_ket(rng, d)
    expected = flow_closed_form(ops, phi, d)
    calls = []
    got = flow_apply(ops, phi, d, evaluator=lambda *a: calls.append(a) or evaluator(*a))
    assert len(calls) == 1
    assert got.shape == (d,)
    assert max_residual(got, expected) <= 1e-9 * np.abs(expected).max()


def test_flow_report():
    report = check_flow(2, seed=3)
    assert report.overall_pass, [c for c in report.checks if not c.passed]


def test_flow_rejects_nonunitary():
    d = 2
    bad = [identity(d)] * 8
    bad[3] = np.diag([1.0, 2.0])
    with pytest.raises(ValueError, match="operator 4 is not unitary"):
        flow_apply(bad, linalg.basis_ket(d, 0), d)
    with pytest.raises(ValueError):
        flow_closed_form([identity(d)] * 7, linalg.basis_ket(d, 0), d)


@pytest.mark.parametrize("apply", [flow_apply, flow_closed_form])
def test_flow_names_the_first_bad_operator(apply):
    # the operators are read in order: a non-unitary one is named before a
    # later malformed one, and a malformed one before a later non-unitary one
    d, phi = 2, linalg.basis_ket(2, 0)
    nonunitary, misshaped, nan = np.diag([1.0, 2.0]), np.eye(3), np.full((2, 2), np.nan)
    cases = [({5: misshaped}, linalg.DimensionError, "operator 5 must be 2x2"),
             ({2: nonunitary, 5: misshaped}, ValueError, "operator 2 is not unitary"),
             ({1: misshaped, 2: nonunitary}, linalg.DimensionError, "operator 1 must be 2x2"),
             ({3: nonunitary, 6: nonunitary}, ValueError, "operator 3 is not unitary"),
             ({8: nonunitary}, ValueError, "operator 8 is not unitary"),
             ({6: identity(d) * (1 + 1e-6)}, ValueError, "operator 6 is not unitary"),
             ({4: nan}, ValueError, "matrix entries must be finite"),
             ({2: nonunitary, 4: nan}, ValueError, "operator 2 is not unitary"),
             ({4: nan, 6: nonunitary}, ValueError, "matrix entries must be finite"),
             ({7: np.ones(2)}, linalg.DimensionError, "expected a matrix")]
    for bad, error, message in cases:
        ops = [identity(d)] * 8
        for k, m in bad.items():
            ops[k - 1] = m
        with pytest.raises(error, match=message):
            apply(ops, phi, d)


def test_flow_over_size_limit_is_refused_before_the_draw(monkeypatch):
    # the 4^2-entry closed flow matrix is the first thing checked: no unitary is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("check_flow drew before refusing d")
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 15)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(linalg.DimensionError, match=r"output of 4\^2 entries exceeds 15"):
        check_flow(4)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
def test_flow_draw_matches_one_qr_per_unitary(monkeypatch, d):
    # the stacked QR and phases give the unitaries and kets a per-matrix loop
    # draws from the same generator, to the bit (q * phases would not from d = 4)
    seen = []
    monkeypatch.setattr(tlalgebra, "flow_apply",
                        lambda ops, phi, d, evaluator=dg.evaluate: seen.append((ops, phi)) or
                        flow_apply(ops, phi, d, evaluator))
    assert check_flow(d, seed=11).overall_pass
    assert len(seen) == 22
    rng = np.random.default_rng(11)
    for j in range(10):
        ops = []
        for _ in range(8):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            ops.append(q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))))
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        for got_ops, got_phi in seen[2 * j:2 * j + 2]:  # the evaluate and the brute-force call
            assert np.array_equal(got_ops, ops) and np.array_equal(got_phi, phi / np.linalg.norm(phi))


def test_flow_scaling_matches_trace_factors(rng):
    # scaling U2 alone scales the output through tr(U2^dag U5) linearly
    d = 2
    ops = [identity(d)] * 8
    phi = random_ket(rng, d)
    base = flow_apply(ops, phi, d)
    u = random_unitary(rng, d)
    ops2 = list(ops)
    ops2[1] = u
    ops2[4] = u  # then tr(U2^dag U5) = d again
    assert max_residual(flow_apply(ops2, phi, d), base) < 1e-12


def test_flow_exact_cases_take_a_stricter_tol_only(monkeypatch):
    # min(tol, 1e-12): a tol below roundoff reaches the zero output at d = 2,
    # and a loose tol leaves an offset of 1e-9 failing both exact cases
    strict = {c.identity_name: c.passed for c in check_flow(2, tol=1e-20).checks}
    assert not strict["orthogonal pair U2, U5: zero output"]
    apply = tlalgebra.flow_apply
    monkeypatch.setattr(tlalgebra, "flow_apply", lambda *args, **kwargs: apply(*args, **kwargs) + 1e-9)
    loose = {c.identity_name: c.passed for c in check_flow(2, tol=1e-3).checks}
    assert loose == {"random octuples: evaluate vs closed form": True,
                     "random octuples: brute-force contraction vs closed form": True,
                     "all-identity: output = phi / d^4": False,
                     "orthogonal pair U2, U5: zero output": False}
