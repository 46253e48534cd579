import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangle_tl import diagram as dg
from entangle_tl import linalg
from entangle_tl.braid import embed, swap
from entangle_tl.linalg import identity, kron, max_residual
from entangle_tl.maxent import omega, omega_projector
from entangle_tl.qubit import permutation_qubit
from entangle_tl.tlalgebra import FLOW_LABELS, check_flow, closed_flow_diagram, decorated_e_gen

from conftest import (random_complex_matrix, random_composed_diagram,
                      random_matching_diagram, random_operator_table, random_unitary)


def test_identity_diagram():
    ident = dg.identity_diagram(3)
    assert len(ident.strands) == 3
    assert ident.scalar.half_power_of_d == 0
    assert max_residual(dg.evaluate(ident, 2), identity(8)) == 0


def test_e_gen_structure_and_value():
    e = dg.e_gen(1, 3)
    assert e.scalar.half_power_of_d == -2
    for d in (2, 3):
        expected = kron(omega_projector(d), identity(d))
        assert max_residual(dg.evaluate(e, d), expected) < 1e-12
    # every placed generator is its two-strand matrix on strands (i, i+1)
    rng = np.random.default_rng(5)
    for d in (2, 3):
        u = random_unitary(rng, d)
        lift = kron(u, identity(d))
        wn = lift @ omega_projector(d) @ lift.conj().T
        for n in (3, 4):
            for i in range(1, n):
                for diag, local in ((dg.e_gen(i, n), omega_projector(d)), (dg.v_gen(i, n), swap(d)),
                                    (decorated_e_gen(i, n, "u"), wn)):
                    got = dg.evaluate(diag, d, {"u": u})
                    assert max_residual(got, embed(local, i, n)) < 1e-12, (i, n, d)


def test_e_gen_is_omega_projector():
    for d in (2, 3, 4):
        assert max_residual(dg.evaluate(dg.e_gen(1, 2), d), omega_projector(d)) < 1e-12


def test_v_gen_is_swap():
    assert max_residual(dg.evaluate(dg.v_gen(1, 2), 2), permutation_qubit()) == 0


def test_generator_position_validation():
    with pytest.raises(ValueError):
        dg.e_gen(0, 3)
    with pytest.raises(ValueError):
        dg.e_gen(3, 3)
    with pytest.raises(ValueError):
        dg.v_gen(5, 4)


def test_compose_with_identity():
    e = dg.e_gen(1, 3)
    assert dg.compose(dg.identity_diagram(3), e) == e
    assert dg.compose(e, dg.identity_diagram(3)) == e


def test_compose_arity_mismatch():
    with pytest.raises(linalg.DimensionError):
        dg.compose(dg.e_gen(1, 3), dg.e_gen(1, 4))


def test_compose_tl_relation_scalar():
    e1, e2 = dg.e_gen(1, 3), dg.e_gen(2, 3)
    composed = dg.compose(dg.compose(e1, e2), e1)
    ratio = dg.structural_ratio(composed, e1, d=2)
    assert ratio is not None and abs(ratio - 0.25) < 1e-12
    # exponent bookkeeping: four more vanished cups/caps than a bare e_gen
    assert composed.scalar.half_power_of_d - e1.scalar.half_power_of_d == -4
    assert composed.loops == ()


def test_compose_square_extracts_plain_loop():
    e1 = dg.e_gen(1, 3)
    sq = dg.compose(e1, e1)
    assert len(sq.loops) == 1 and sq.loops[0] == ()
    ratio = dg.structural_ratio(sq, e1, d=5)
    assert ratio is not None and abs(ratio - 1.0) < 1e-12


def test_closed_circle_is_one():
    circle = dg.compose(dg.cup_diagram(), dg.cap_diagram())
    for d in (1, 2, 3, 7):
        assert max_residual(dg.evaluate(circle, d), np.array([[1.0]])) < 1e-12


def test_undecorated_circle_trace_before_normalization():
    circle = dg.compose(dg.cup_diagram(), dg.cap_diagram())
    d = 5
    # the pending loop contributes tr(1) = d; the two arc factors supply 1/d
    assert dg.scalar_value(circle, d) == pytest.approx(1.0)
    bare = dg.DecoratedDiagram(0, 0, (), circle.loops, dg.ScalarFactor(1.0, 0))
    assert dg.scalar_value(bare, d) == pytest.approx(d)


def test_transfer_shape_from_offset_cup_cap():
    d1 = dg.tensor(dg.cup_diagram(), dg.identity_diagram(1))
    d2 = dg.tensor(dg.identity_diagram(1), dg.cap_diagram())
    transfer = dg.compose(d1, d2)
    assert transfer.top == 1 and transfer.bottom == 1
    for d in (2, 3, 5):
        assert max_residual(dg.evaluate(transfer, d), identity(d) / d) < 1e-12


def test_tensor_placement():
    assert dg.tensor(dg.identity_diagram(1), dg.e_gen(1, 2)) == dg.e_gen(2, 3)


def test_decorate_cup_slide_identity(rng):
    d = 3
    m = random_complex_matrix(rng, d)
    cup = dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration("m", "plain"))
    got = dg.evaluate(cup, d, {"m": m}).ravel()
    want = kron(m, identity(d)) @ omega(d)
    assert max_residual(got, want) < 1e-12


def test_decoration_slides_across_cup(rng):
    # decoration M on the left branch == M^T on the right branch
    d = 3
    m = random_complex_matrix(rng, d)
    left = dg.DecoratedDiagram(
        0, 2, (dg.Strand(dg.Endpoint("B", 0), dg.Endpoint("B", 1),
                         (dg.Decoration("m", "plain"),)),),
        scalar=dg.ScalarFactor(1.0, -1))
    right = dg.DecoratedDiagram(
        0, 2, (dg.Strand(dg.Endpoint("B", 1), dg.Endpoint("B", 0),
                         (dg.Decoration("m", "transpose"),)),),
        scalar=dg.ScalarFactor(1.0, -1))
    assert max_residual(dg.evaluate(left, d, {"m": m}),
                        dg.evaluate(right, d, {"m": m})) < 1e-12


def test_cup_under_cap_traces_operators(rng):
    d = 3
    m, n = random_complex_matrix(rng, d), random_complex_matrix(rng, d)
    cup = dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration("m", "plain"))
    cap = dg.decorate(dg.cap_diagram(), 0, 0, dg.Decoration("n", "dagger"))
    closed = dg.compose(cup, cap)
    got = dg.evaluate(closed, d, {"m": m, "n": n})[0, 0]
    assert abs(got - np.trace(m @ n.conj().T) / d) < 1e-12


def test_decorate_validation():
    cup = dg.cup_diagram()
    with pytest.raises(ValueError):
        dg.decorate(cup, 1, 0, dg.Decoration("m"))
    with pytest.raises(ValueError):
        dg.decorate(cup, 0, 2, dg.Decoration("m"))
    with pytest.raises(ValueError):
        dg.Decoration("m", "weird")


def test_evaluate_errors():
    cup = dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration("missing"))
    with pytest.raises(ValueError):
        dg.evaluate(cup, 2, {})
    with pytest.raises(linalg.DimensionError):
        dg.evaluate(dg.cup_diagram(), 0)


@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_decoration_of_wrong_size_raises(evaluator):
    # strand and loop decorations are both resolved by the operator table
    strand = dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration("m"))
    loop = dg.DecoratedDiagram(0, 0, (), ((dg.Decoration("m"),),))
    for diag in (strand, loop):
        with pytest.raises(linalg.DimensionError, match="'m' must be 2x2"):
            evaluator(diag, 2, {"m": np.eye(3)})


@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_operator_labels_resolved_once_per_evaluation(evaluator):
    # only the labels a diagram uses are looked up: an unused bad entry is
    # ignored, a missing one refused, and no table is needed without any
    diag = dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration("m"))
    plain = evaluator(diag, 2, {"m": np.eye(2)})
    unused = {"m": np.eye(2), "junk": np.full((3, 3), np.nan), "text": "not a matrix"}
    assert np.array_equal(evaluator(diag, 2, unused), plain)
    with pytest.raises(ValueError, match="unresolvable operator label 'm'"):
        evaluator(diag, 2, {"n": np.eye(2)})
    with pytest.raises(ValueError, match="unresolvable operator label 'm'"):
        evaluator(diag, 2)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        evaluator(diag, 2, {"m": np.full((2, 2), np.nan)})
    assert np.array_equal(evaluator(dg.e_gen(1, 3), 2, None), evaluator(dg.e_gen(1, 3), 2, {}))
    assert max_residual(evaluator(dg.e_gen(1, 3), 2), embed(omega_projector(2), 1, 3)) < 1e-12


def test_contraction_matches_einsum_with_optimize_true_bit_for_bit(contract_calls):
    # linalg.contract runs the steps numpy's einsum runs along the greedy path
    # optimize=True searches for, so every brute-force contraction of the flow
    # check is unchanged; 200 seeded random composed diagrams add steps whose
    # operands are laid out by a transpose or by an einsum, trace steps and
    # steps that close to a scalar
    for d in (2, 3, 4, 5):
        check_flow(d)
    assert len(contract_calls) == 4 * 10
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        dg.brute_force_evaluate(random_composed_diagram(rng), d, random_operator_table(rng, d))
    layouts = {lay and lay.func for spec, operands, _ in contract_calls
               for step in linalg._program(spec, tuple(op.shape for op in operands)) if step[2]
               for lay, _ in step[2]}
    assert layouts == {None, np.transpose, np.einsum}
    for spec, operands, out in contract_calls:  # mirrored from numpy 2.4's kernels
        assert np.array_equal(out, np.einsum(spec, *operands, optimize=True)), f"{spec} on numpy {np.__version__}"


def test_plans_hold_structure_only(rng, monkeypatch):
    # each evaluator plans a diagram once, and every call still looks its
    # operators up and reads each flavor's bits through FLAVORS: one instance
    # gives each table's own result, stacked or single, as a new instance does
    d, diag = 3, closed_flow_diagram()
    tables = [dict(zip(FLOW_LABELS, (random_unitary(rng, d) for _ in FLOW_LABELS))) for _ in range(2)]
    stacked = {label: np.stack([t[label] for t in tables]) for label in FLOW_LABELS}
    before = {}
    for evaluator in (dg.evaluate, dg.brute_force_evaluate):
        got = [evaluator(diag, d, t) for t in tables]
        fresh = [evaluator(dg.loads(dg.dumps(diag)), d, t) for t in tables]
        assert not np.allclose(got[0], got[1])
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))
        before[evaluator] = got[0]
    for matrix, table in zip(dg.evaluate(diag, d, stacked), tables):
        assert np.array_equal(matrix, dg.evaluate(diag, d, table))
    # this order read as index bits turns every dagger into a conjugate
    monkeypatch.setattr(dg, "FLAVORS", ("plain", "transpose", "dagger", "conjugate"))
    for evaluator, want in before.items():
        assert not np.allclose(evaluator(diag, d, tables[0]), want)


def test_random_contractions_match_einsum_with_optimize_true_bit_for_bit(rng, contract_calls):
    # random composed diagrams reach every kind of step: the trace of a loop
    # with one decoration (a repeated letter), empty loops beside a
    # contraction, a strand of its own (letters met nowhere else) and a
    # network that closes to a scalar
    seen = set()
    for _ in range(300):
        d = int(rng.integers(1, 4))
        diag = random_composed_diagram(rng)
        before = len(contract_calls)
        dg.brute_force_evaluate(diag, d, random_operator_table(rng, d))
        if len(contract_calls) == before:  # nothing but empty loops and the scalar
            continue
        terms, out = contract_calls[-1][0].split("->")
        for t in terms.split(","):
            if len(t) == 2 and t[0] == t[1]:
                seen.add("trace")
            if t and all(ix in out and terms.count(ix) == 1 for ix in t):
                seen.add("strand of its own")
        if not out:
            seen.add("scalar")
        if any(not loop for loop in diag.loops):
            seen.add("empty loop")
    assert seen == {"trace", "empty loop", "strand of its own", "scalar"}
    for spec, operands, out in contract_calls:
        assert np.array_equal(out, np.einsum(spec, *operands, optimize=True))


@pytest.mark.parametrize("d", [2, 3])
def test_stacked_table_is_one_call_per_operator_bit_for_bit(d, rng):
    # the decorated idempotents check_tl_decorated evaluates over a stack: a
    # (k, d, d) table entry gives the k single-table matrices, to the bit
    stack = np.stack([random_unitary(rng, d) for _ in range(4)])
    for n in (3, 4):
        for i in range(1, n):
            diag = decorated_e_gen(i, n, "u")
            got = dg.evaluate(diag, d, {"u": stack})
            assert got.shape == (4, d ** n, d ** n)
            for matrix, u in zip(got, stack):
                assert np.array_equal(matrix, dg.evaluate(diag, d, {"u": u}))


def test_stacked_table_broadcasts_over_any_diagram(rng):
    # stacks on strands and in loops: each matrix of the result is the
    # single-table one, to the bit
    for _ in range(40):
        d = int(rng.integers(1, 4))
        diag = random_composed_diagram(rng)
        tables = [random_operator_table(rng, d) for _ in range(3)]
        stacked = {label: np.stack([t[label] for t in tables]) for label in tables[0]}
        got = np.broadcast_to(dg.evaluate(diag, d, stacked), (3, d ** diag.bottom, d ** diag.top))
        for matrix, table in zip(got, tables):
            assert np.array_equal(matrix, dg.evaluate(diag, d, table))


def test_brute_force_refuses_a_stacked_table(rng):
    # the oracle contracts single operators: a (k, d, d) entry is refused,
    # on a strand and in a loop alike, as by scalar_value, which returns one complex
    strand = dg.decorate(dg.cup_diagram(), 0, 0, dg.Decoration("m"))
    loop = dg.DecoratedDiagram(0, 0, (), ((dg.Decoration("m"),),))
    stack = np.stack([random_unitary(rng, 2) for _ in range(3)])
    for diag in (strand, loop):
        with pytest.raises(linalg.DimensionError, match="expected a matrix, got ndim=3"):
            dg.brute_force_evaluate(diag, 2, {"m": stack})
        assert dg.evaluate(diag, 2, {"m": stack}).shape[0] == 3
    with pytest.raises(linalg.DimensionError, match="expected a matrix, got ndim=3"):
        dg.structural_ratio(loop, loop, 2, {"m": stack})


def test_planned_path_gives_the_same_report_on_a_miss_and_a_hit():
    linalg._program.cache_clear()
    first = check_flow(4, seed=7).to_dict()
    missed = linalg._program.cache_info()
    second = check_flow(4, seed=7).to_dict()
    hit = linalg._program.cache_info()
    assert missed.misses > 0 and hit.misses == missed.misses and hit.hits > missed.hits
    assert second == first


def test_path_cache_is_bounded():
    # every d is a new (spec, shapes) key; the oldest plans are dropped
    size = linalg._program.cache_info().maxsize
    assert size is not None
    loop = dg.DecoratedDiagram(0, 0, (), ((dg.Decoration("m"), dg.Decoration("m", "dagger")),))
    for d in range(1, size + 40):
        assert abs(dg.brute_force_evaluate(loop, d, {"m": np.eye(d)})[0, 0] - d) < 1e-9
        assert np.array_equal(dg.evaluate(dg.identity_diagram(1), d), np.eye(d))
    assert linalg._program.cache_info().currsize <= size


def test_matching_validation():
    with pytest.raises(ValueError):
        dg.DecoratedDiagram(2, 0, ())  # unmatched endpoints
    s = dg.Strand(dg.Endpoint("T", 0), dg.Endpoint("T", 1))
    with pytest.raises(ValueError):
        dg.DecoratedDiagram(2, 0, (s, s))  # endpoint used twice
    with pytest.raises(ValueError):
        dg.DecoratedDiagram(1, 0, (s,))  # out of range
    with pytest.raises(ValueError):
        dg.Strand(dg.Endpoint("T", 0), dg.Endpoint("T", 0))


def test_e_gen_evaluations_hermitian_idempotent():
    for d in (2, 3):
        m = dg.evaluate(dg.e_gen(2, 4), d)
        assert max_residual(m @ m, m) < 1e-12
        assert max_residual(m, m.conj().T) < 1e-12


def test_is_planar():
    assert dg.is_planar(dg.e_gen(1, 3))
    assert dg.is_planar(dg.identity_diagram(4))
    assert not dg.is_planar(dg.v_gen(1, 2))
    assert dg.is_planar(dg.compose(dg.e_gen(1, 3), dg.e_gen(2, 3)))


def test_adjoint_diagram(rng):
    d = 3
    ops = random_operator_table(rng, d)
    for _ in range(20):
        diag = random_composed_diagram(rng)
        adj = dg.adjoint_diagram(diag)
        assert max_residual(dg.evaluate(adj, d, ops),
                            dg.evaluate(diag, d, ops).conj().T) < 1e-10
    assert dg.adjoint_diagram(dg.e_gen(1, 3)) == dg.e_gen(1, 3)


@pytest.mark.parametrize("flavor,apply", [("plain", lambda m: m), ("transpose", lambda m: m.T),
                                          ("conjugate", lambda m: m.conj()),
                                          ("dagger", lambda m: m.conj().T)])
def test_flavor_table(rng, flavor, apply):
    # a flavor is bit 0 (transpose) and bit 1 (conjugate) of its index
    m = random_complex_matrix(rng, 3)
    deco = dg.Decoration("m", flavor)
    assert np.array_equal(deco.matrix({"m": m}), apply(m))
    for toggle in (dg.Decoration.toggle_transpose, dg.Decoration.toggle_dagger):
        assert toggle(deco) != deco and toggle(toggle(deco)) == deco
    assert deco.toggle_transpose().toggle_dagger() == dg.Decoration("m", {
        "plain": "conjugate", "transpose": "dagger", "conjugate": "plain", "dagger": "transpose"}[flavor])
    assert np.array_equal(deco.toggle_transpose().matrix({"m": m}), apply(m).T)
    assert np.array_equal(deco.toggle_dagger().matrix({"m": m}), apply(m).conj().T)


@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_functoriality_random_pairs(rng, evaluator):
    # evaluate(compose(a, b)) = evaluate(b) @ evaluate(a)
    for d in (2, 3):
        ops = random_operator_table(rng, d)
        for _ in range(25):
            top = int(rng.integers(0, 5))
            mid = int(rng.integers(0, 5))
            bottom = int(rng.integers(0, 5))
            if (top + mid) % 2:
                mid += 1
            if (mid + bottom) % 2:
                bottom += 1
            a = random_matching_diagram(rng, top, mid)
            b = random_matching_diagram(rng, mid, bottom)
            lhs = evaluator(dg.compose(a, b), d, ops)
            rhs = evaluator(b, d, ops) @ evaluator(a, d, ops)
            assert max_residual(lhs, rhs) < 1e-10


def test_oracle_agreement_generators():
    for gen in (dg.identity_diagram(3), dg.e_gen(1, 3), dg.v_gen(2, 3),
                dg.cup_diagram(), dg.cap_diagram()):
        for d in (2, 3):
            assert max_residual(dg.evaluate(gen, d), dg.brute_force_evaluate(gen, d)) < 1e-12


def test_oracle_agreement_random_composites(rng):
    for d in (2, 3):
        ops = random_operator_table(rng, d)
        for _ in range(40):
            diag = random_composed_diagram(rng)
            assert max_residual(dg.evaluate(diag, d, ops),
                                dg.brute_force_evaluate(diag, d, ops)) < 1e-10


@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_output_size_guard(evaluator):
    # 4^26 output entries: refused before anything is allocated
    with pytest.raises(linalg.DimensionError, match="exceeds"):
        evaluator(dg.identity_diagram(13), 4)


@pytest.mark.parametrize("evaluator", [dg.evaluate, dg.brute_force_evaluate])
def test_endpoint_letter_limit(evaluator):
    # 54 endpoints need more than the 52 einsum letters; at d=1 the output
    # is one entry, so only the lettering can refuse
    with pytest.raises(ValueError, match="diagram too large"):
        evaluator(dg.identity_diagram(27), 1)
    assert evaluator(dg.identity_diagram(26), 1).shape == (1, 1)


# --- diagram laws (Abramsky & Coecke, quant-ph/0402130) --------------------

ROW = st.integers(0, 3)
SEED = st.integers(0, 2 ** 32 - 1)


def _even(*rows):
    """Row sizes with each adjacent pair raised to an even total, so every
    diagram between consecutive rows exists."""
    rows = list(rows)
    for k in range(1, len(rows)):
        rows[k] += (rows[k - 1] + rows[k]) % 2
    return rows


def _close(x, y, tol=1e-10):
    return max_residual(x, y) <= tol * max(1.0, float(np.max(np.abs(y), initial=0.0)))


@settings(deadline=None, max_examples=40)
@given(seed=SEED, left=st.tuples(ROW, ROW, ROW), right=st.tuples(ROW, ROW, ROW))
def test_interchange_law(seed, left, right):
    # (a (x) b) ; (c (x) e) = (a ; c) (x) (b ; e)
    rng = np.random.default_rng(seed)
    (p, q, r), (s, t, u) = _even(*left), _even(*right)
    a, c = random_matching_diagram(rng, p, q), random_matching_diagram(rng, q, r)
    b, e = random_matching_diagram(rng, s, t), random_matching_diagram(rng, t, u)
    ops = random_operator_table(rng, 2)
    lhs = dg.compose(dg.tensor(a, b), dg.tensor(c, e))
    rhs = dg.tensor(dg.compose(a, c), dg.compose(b, e))
    assert _close(dg.brute_force_evaluate(lhs, 2, ops), dg.brute_force_evaluate(rhs, 2, ops))


@settings(deadline=None, max_examples=40)
@given(seed=SEED, rows=st.tuples(ROW, ROW, ROW))
def test_composition_preserves_planarity(seed, rows):
    rng = np.random.default_rng(seed)
    top, mid, bottom = _even(*rows)
    a = random_matching_diagram(rng, top, mid, planar=True)
    c = random_matching_diagram(rng, mid, bottom, planar=True)
    assert dg.is_planar(a) and dg.is_planar(c)
    ac = dg.compose(a, c)
    assert dg.is_planar(ac)
    ops = random_operator_table(rng, 2)
    assert _close(dg.brute_force_evaluate(ac, 2, ops),
                  dg.brute_force_evaluate(c, 2, ops) @ dg.brute_force_evaluate(a, 2, ops))


@settings(deadline=None, max_examples=40)
@given(seed=SEED, rows=st.tuples(ROW, ROW, ROW))
def test_adjoint_reverses_composition(seed, rows):
    # (a ; c)^dag = c^dag ; a^dag
    rng = np.random.default_rng(seed)
    top, mid, bottom = _even(*rows)
    a, c = random_matching_diagram(rng, top, mid), random_matching_diagram(rng, mid, bottom)
    ops = random_operator_table(rng, 2)
    lhs = dg.adjoint_diagram(dg.compose(a, c))
    rhs = dg.compose(dg.adjoint_diagram(c), dg.adjoint_diagram(a))
    assert _close(dg.brute_force_evaluate(lhs, 2, ops), dg.brute_force_evaluate(rhs, 2, ops))


def test_double_composition_associates(rng):
    d = 2
    ops = random_operator_table(rng, d)
    for _ in range(15):
        a = random_matching_diagram(rng, 2, 2)
        b = random_matching_diagram(rng, 2, 4)
        c = random_matching_diagram(rng, 4, 2)
        left = dg.compose(dg.compose(a, b), c)
        right = dg.compose(a, dg.compose(b, c))
        assert max_residual(dg.evaluate(left, d, ops),
                            dg.evaluate(right, d, ops)) < 1e-10


# --- serialization ---------------------------------------------------------


def test_round_trip_generators():
    for diag in (dg.identity_diagram(2), dg.e_gen(1, 3), dg.v_gen(1, 2),
                 dg.cup_diagram(), dg.cap_diagram()):
        assert dg.loads(dg.dumps(diag)) == diag


def test_round_trip_decorated_with_loops(rng):
    for _ in range(25):
        diag = random_composed_diagram(rng)
        text = dg.dumps(diag)
        back = dg.loads(text)
        assert back == diag
        assert dg.dumps(back) == text  # byte-identical re-serialization


def test_round_trip_preserves_scalar_exactly():
    diag = dg.DecoratedDiagram(
        0, 2,
        (dg.Strand(dg.Endpoint("B", 0), dg.Endpoint("B", 1),
                   (dg.Decoration("u", "conjugate"),)),),
        ((dg.Decoration("u", "dagger"), dg.Decoration("u", "plain")),),
        dg.ScalarFactor(0.1 + 0.3j, -7))
    back = dg.loads(dg.dumps(diag))
    assert back.scalar.coeff == diag.scalar.coeff
    assert back.scalar.half_power_of_d == -7
    assert back.loops == diag.loops


def test_loads_rejects_malformed():
    with pytest.raises(ValueError):
        dg.loads('{"top": 1}')
    with pytest.raises(ValueError):
        dg.from_dict({"top": 2, "bottom": 0, "strands": [["T0", "Q1"]],
                      "loops": [], "scalar": {"coeff": [1, 0], "half_power": 0}})
