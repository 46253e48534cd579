import functools
import tracemalloc

import numpy as np
import pytest

from entangle_tl import braid, linalg
from entangle_tl.braid import (Swap, apply_word, braid_teleport_config,
                               check_braid_closed_form, check_braid_relation,
                               check_teleport_swapping, check_virtual_mixed,
                               check_virtual_relations, embed, relation_residual, swap,
                               teleport_swap, teleport_swap_reverse)
from entangle_tl.cli import main
from entangle_tl.linalg import identity, kron, max_residual, product_ket
from entangle_tl.maxent import omega_projector, shift
from entangle_tl.qubit import bell_matrix, permutation_qubit


def test_embed_trivial_and_offset():
    b = bell_matrix()
    assert max_residual(embed(b, 1, 2), b) == 0
    assert max_residual(embed(b, 2, 3), kron(identity(2), b)) == 0
    assert max_residual(embed(b, 1, 3), kron(b, identity(2))) == 0
    with pytest.raises(linalg.DimensionError):
        embed(b, 3, 3)
    with pytest.raises(linalg.DimensionError):
        embed(b, 0, 3)


def test_teleport_swapping_cycles_kets():
    # (P x 1)(1 x P)|ij>|k> = |k>|ij>, checked against an index-permutation
    # oracle for every basis ket
    for d in (2, 3):
        ts = teleport_swap(d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    got = ts @ linalg.kron_vec(product_ket(d, i, j), linalg.basis_ket(d, k))
                    want = np.zeros(d ** 3, dtype=complex)
                    want[(k * d + i) * d + j] = 1.0
                    assert max_residual(got, want) == 0


def test_teleport_swap_reverse_undoes_forward():
    for d in (1, 2, 3):
        assert max_residual(teleport_swap_reverse(d) @ teleport_swap(d), identity(d ** 3)) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_check_teleport_swapping(d):
    report = check_teleport_swapping(d)
    assert report.suite_name == "teleport-swapping"
    assert [c.identity_name for c in report.checks] == [
        "reverse undoes forward", "|k>|ij> = (Px1)(1xP)|ij>|k> and back"]
    assert report.overall_pass and report.max_residual == 0


@pytest.mark.parametrize("d", [2, 3])
def test_check_teleport_swapping_fails_on_reverse_routing(monkeypatch, d):
    monkeypatch.setattr(braid, "teleport_swap", teleport_swap_reverse)
    report = check_teleport_swapping(d)
    routing = {c.identity_name: c for c in report.checks}["|k>|ij> = (Px1)(1xP)|ij>|k> and back"]
    assert not routing.passed and routing.max_residual == 1


@pytest.mark.parametrize("d", [2, 3])
def test_check_teleport_swapping_fails_on_forward_routing_back(monkeypatch, d):
    monkeypatch.setattr(braid, "teleport_swap_reverse", teleport_swap)
    report = check_teleport_swapping(d)
    routing = {c.identity_name: c for c in report.checks}["|k>|ij> = (Px1)(1xP)|ij>|k> and back"]
    assert not routing.passed and routing.max_residual == 1


def test_teleport_swap_d1_is_scalar_one():
    assert teleport_swap(1).shape == (1, 1)
    assert teleport_swap(1)[0, 0] == 1


def test_swap_is_the_permutation_matrix():
    for d in range(1, 6):
        want = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                want[j * d + i, i * d + j] = 1  # |ij> to |ji>
        assert np.array_equal(swap(d), want)
    with pytest.raises(linalg.DimensionError, match="dimension must be >= 1"):
        swap(0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_swap_factor_equals_the_dense_swap_bit_for_bit(rng, d):
    # the factor moves entries where the dense swap multiplies by 0 and 1:
    # applied to the columns of a random operator or of a stack of them, and
    # embedded on all columns or some, the results agree to the bit
    factor, dense = Swap(d), swap(d)
    for n in range(2, 6):
        cols = rng.choice(d ** n, min(5, d ** n), replace=False)
        stack = rng.normal(size=(2, d * d, d * d)) + 1j * rng.normal(size=(2, d * d, d * d))
        for i in range(1, n):
            for first in (stack[0], stack):
                assert np.array_equal(apply_word([(factor, i), (first, n - i)], n, cols),
                                      apply_word([(dense, i), (first, n - i)], n, cols))
            assert np.array_equal(embed(factor, i, n, cols), embed(dense, i, n, cols))
            if d ** n <= 256:
                assert np.array_equal(embed(factor, i, n), embed(dense, i, n))


@pytest.mark.parametrize("suite", ["virtual", "braid"])
@pytest.mark.parametrize("wrong", [lambda c, d: c, lambda c, d: (c + 1) % d ** 2], ids=["identity", "shifted"])
def test_a_wrong_swap_permutation_fails_the_suite(monkeypatch, capsys, suite, wrong):
    monkeypatch.setattr(braid.Swap, "permutation", lambda self: wrong(np.arange(self.d ** 2), self.d))
    assert main(["verify", suite, "--d", "3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_braid_closed_form():
    report = check_braid_closed_form(bell_matrix(), 1e-12)
    assert report.suite_name == "braid-relation"
    assert len(report.checks) == 4 and report.overall_pass
    # the swap satisfies the braid relation but not B's closed form
    names = {c.identity_name: c.passed for c in check_braid_closed_form(swap(2)).checks}
    assert names["b1 b2 b1 = b2 b1 b2"]
    assert not names["b1 b2 b1 equals (1 x B^2 + B^2 x 1)/sqrt(2)"]


def test_braid_relation_bell_matrix():
    b = bell_matrix()
    report = check_braid_relation(b, 1e-12)
    assert report.overall_pass
    # both sides equal the closed form (1 x B^2 + B^2 x 1)/sqrt(2)
    closed = (kron(identity(2), b @ b) + kron(b @ b, identity(2))) / np.sqrt(2)
    b1, b2 = embed(b, 1, 3), embed(b, 2, 3)
    assert max_residual(b1 @ b2 @ b1, closed) < 1e-12
    assert max_residual(b2 @ b1 @ b2, closed) < 1e-12


def test_braid_relation_identity_and_swap():
    assert check_braid_relation(identity(4), 1e-12).overall_pass
    # swap satisfies the braid relation: brute-force 8x8 product oracle
    p = permutation_qubit()
    p1, p2 = kron(p, identity(2)), kron(identity(2), p)
    lhs = np.zeros((8, 8), dtype=complex)
    a = p1 @ p2
    for i in range(8):
        for j in range(8):
            lhs[i, j] = sum(a[i, k] * p1[k, j] for k in range(8))
    assert max_residual(lhs, p2 @ p1 @ p2) < 1e-12
    assert check_braid_relation(p, 1e-12).overall_pass


def test_inverse_braid_also_passes():
    b = bell_matrix()
    assert check_braid_relation(b.T, 1e-12).overall_pass  # B^-1 = B^T


def test_virtual_relations():
    assert check_virtual_relations(permutation_qubit(), 1e-12).overall_pass
    assert check_virtual_relations(identity(4), 1e-12).overall_pass
    assert check_virtual_relations(swap(3), 1e-12).overall_pass


def test_virtual_relations_swap_d3_brute_force():
    # v1 v2 v1 = v2 v1 v2 on 27-dim space via explicit permutation oracle:
    # both sides reverse (i, j, k) -> (k, j, i)
    v = swap(3)
    v1, v2 = embed(v, 1, 3), embed(v, 2, 3)
    lhs = v1 @ v2 @ v1
    for i in range(3):
        for j in range(3):
            for k in range(3):
                got = lhs @ linalg.kron_vec(product_ket(3, i, j), linalg.basis_ket(3, k))
                want = np.zeros(27, dtype=complex)
                want[(k * 3 + j) * 3 + i] = 1.0
                assert max_residual(got, want) == 0
    assert max_residual(lhs, v2 @ v1 @ v2) == 0


def test_virtual_mixed():
    b, p = bell_matrix(), permutation_qubit()
    assert check_virtual_mixed(b, p, 1e-12).overall_pass
    assert check_virtual_mixed(identity(4), identity(4), 1e-12).overall_pass
    # b = v = P: both sides are the same 3-cycle permutation
    report = check_virtual_mixed(p, p, 1e-12)
    assert report.overall_pass
    p2 = embed(p, 2, 3)
    v1v2 = embed(p, 1, 3) @ p2
    cycle = p2 @ v1v2  # = v1 v2 b1 too
    for i in range(2):
        for j in range(2):
            for k in range(2):
                got = cycle @ linalg.kron_vec(product_ket(2, i, j), linalg.basis_ket(2, k))
                idx = np.argmax(np.abs(got))
                assert got[idx] == 1.0


def test_virtual_mixed_dimension_mismatch():
    with pytest.raises(linalg.DimensionError):
        check_virtual_mixed(bell_matrix(), swap(3))


def test_braid_teleport_config():
    b = bell_matrix()
    assert max_residual(braid_teleport_config(identity(4)), identity(8)) == 0
    expected = kron(b.T, identity(2)) @ kron(identity(2), b)
    assert max_residual(braid_teleport_config(b), expected) < 1e-12
    # P is its own inverse, so the configuration is the teleportation swapping
    assert max_residual(braid_teleport_config(permutation_qubit()), teleport_swap(2)) == 0


def test_braid_teleport_config_singular_raises():
    with pytest.raises(np.linalg.LinAlgError):
        braid_teleport_config(np.zeros((4, 4)))


def test_embed_locality_far_commutes(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ea, eb = embed(a, 1, 4), embed(b, 3, 4)
    assert max_residual(ea @ eb, eb @ ea) < 1e-9


def test_strand_operator_validation():
    # as the rightmost factor, embedded, and as a factor applied after it
    x = np.eye(9)
    with pytest.raises(linalg.DimensionError):
        apply_word([(np.eye(3), 1), (x, 1)], 2)  # 3 is not a perfect square
    with pytest.raises(linalg.DimensionError):
        apply_word([(np.eye(3), 1)], 2)
    with pytest.raises(linalg.DimensionError):
        apply_word([(np.eye(9)[:, :3], 1), (x, 1)], 2)  # not square
    with pytest.raises(ValueError, match="finite"):
        apply_word([(np.full((9, 9), np.nan), 1), (x, 1)], 2)
    assert apply_word([(np.eye(9), 1)], 2).shape == (9, 9)  # d = 3 derived from 9 x 9


# --- local strand kernel ------------------------------------------------------

STRAND_CASES = [(d, n, i) for d in (1, 2, 3) for n in range(2, 6) for i in range(1, n)]


def dense_embed(op, i, n, d):
    """The explicit kron(1, op, 1) embedding the local kernel replaces."""
    return np.kron(np.kron(np.eye(d ** (i - 1)), op), np.eye(d ** (n - i - 1)))


def random_op(rng, d):
    return rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))


@pytest.mark.parametrize("d,n,i", STRAND_CASES)
def test_apply_on_strands_matches_kron(rng, d, n, i):
    # a factor applied, not embedded, on strands (i, i+1): the left factor of a two-factor word
    op, first = random_op(rng, d), random_op(rng, d)
    dense = dense_embed(op, i, n, d) @ dense_embed(first, n - i, n, d)
    assert max_residual(apply_word([(op, i), (first, n - i)], n), dense) < 1e-12 * max(1.0, np.abs(dense).max())


@pytest.mark.parametrize("d,n,i", STRAND_CASES)
def test_embed_bit_identical_to_kron(rng, d, n, i):
    op = random_op(rng, d)
    dense = dense_embed(op, i, n, d)
    assert max_residual(embed(op, i, n), dense) == 0
    cols = rng.permutation(d ** n)[:5]  # any columns, in any order
    assert max_residual(embed(op, i, n, cols), dense[:, cols]) == 0


@pytest.mark.parametrize("d,n", [(d, n) for d in (1, 2, 3) for n in range(2, 6)])
def test_strand_product_matches_chained_embeds(rng, d, n):
    # every column of the word's product, with no cols given
    factors = [(random_op(rng, d), int(rng.integers(1, n))) for _ in range(4)]
    dense = np.eye(d ** n)
    for op, i in factors:
        dense = dense @ dense_embed(op, i, n, d)
    assert max_residual(apply_word(factors, n), dense) < 1e-12 * max(1.0, np.abs(dense).max())


def test_strand_positions_out_of_range_raise():
    b = bell_matrix()
    for i in (0, 3):
        with pytest.raises(linalg.DimensionError):
            apply_word([(b, i), (b, 1)], 3)
        with pytest.raises(linalg.DimensionError):
            apply_word([(b, 1), (b, i)], 3)
    with pytest.raises(linalg.DimensionError):
        apply_word([(swap(3), 2), (b, 1)], 3)  # a d = 3 factor applied to 2^3 rows
    with pytest.raises(linalg.DimensionError):
        apply_word([(b, 1), (swap(3), 2)], 3)  # mixed local dimensions
    for cols in ([8], [-1]):
        with pytest.raises(linalg.DimensionError):
            embed(b, 1, 3, cols)
    with pytest.raises(linalg.DimensionError):  # the rhs embeds columns of 27 on 8 rows
        relation_residual([(swap(3), 1), (swap(3), 2)], [(b, 1)])


def test_relation_words_of_different_dimensions_raise():
    # one d is shared by both sides of a relation: a word of another d is
    # refused whichever side it is on and wherever in the word, on 3 strands
    # and on the 4 of a far relation (where only probe columns are walked)
    b, p = bell_matrix(), swap(3)
    for lhs, rhs in (([(p, 1), (p, 2)], [(b, 1)]), ([(b, 1), (b, 2)], [(p, 2)]),
                     ([(b, 1), (b, 2)], [(p, 1), (b, 2)]), ([(b, 1), (b, 3)], [(b, 3), (p, 1)]),
                     ([(p, 1), (p, 3)], [(b, 3), (p, 1)])):
        with pytest.raises(linalg.DimensionError):
            relation_residual(lhs, rhs)
        with pytest.raises(linalg.DimensionError):
            relation_residual(rhs, lhs)


def test_probe_columns_are_cached_read_only_and_drawn_as_before():
    # a far relation compares the same probes on every call: drawn once per
    # (d, n) by the generator each call used to seed afresh, and read-only
    for d, n in ((2, 4), (3, 4), (6, 4), (2, 5)):
        cols = braid._columns(d, n)
        want = np.random.default_rng(braid.PROBE_SEED).choice(d ** n, min(braid.PROBES, d ** n), replace=False)
        assert np.array_equal(cols, want) and braid._columns(d, n) is cols
        assert not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0] = 0
    assert np.array_equal(braid._columns(3, 3), np.arange(27)) and not braid._columns(3, 3).flags.writeable


def test_strand_product_size_guard(monkeypatch):
    # the embedding's d^n x len(cols) entries are counted before anything is
    # scattered, whatever strands op touches
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 63)
    with pytest.raises(linalg.DimensionError, match="2\\^3 x 8 entries exceeds 63"):
        embed(bell_matrix(), 1, 3)
    with pytest.raises(linalg.DimensionError, match="2\\^6 x 1 entries exceeds 63"):
        embed(bell_matrix(), 5, 6, [0])
    assert embed(bell_matrix(), 1, 2).shape == (4, 4)
    assert embed(bell_matrix(), 2, 3, range(7)).shape == (8, 7)  # 56 entries
    assert embed(bell_matrix(), 4, 5, [0]).shape == (32, 1)


# --- relations on the strands they touch --------------------------------------

# (lhs, rhs) words as positions into a list of operators: the same pair,
# adjacent pairs, far pairs and words written with j < i
RELATION_WORDS = [
    ([(0, 2), (1, 2)], [(0, 2)]),
    ([(0, 1), (1, 2), (0, 1)], [(1, 2), (0, 1), (1, 2)]),
    ([(0, 3), (1, 2), (1, 3)], [(0, 2)]),
    ([(0, 1), (1, 4)], [(1, 4), (0, 1)]),
    ([(0, 4), (1, 2)], [(1, 2), (0, 4)]),
    ([(0, 3), (1, 2), (0, 3)], [(1, 2), (0, 3), (1, 2)]),
    ([(0, 5), (1, 1), (0, 5)], [(1, 1), (0, 5)]),
]


def probe_block(d, m):
    """The basis kets relation_residual compares a word on m >= 4 strands on."""
    k = min(braid.PROBES, d ** m)
    kets = np.zeros((d ** m, k))
    kets[np.random.default_rng(braid.PROBE_SEED).choice(d ** m, k, replace=False), range(k)] = 1
    return kets


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lhs,rhs", RELATION_WORDS)
def test_relation_residual_equals_n_strand_residual(rng, d, lhs, rhs):
    # words on <= 3 strands are compared entrywise with the chained dense
    # products on all n strands; wider ones on the probe block, against the
    # chained products applied to it
    ops = [random_op(rng, d) for _ in range(2)]
    n = 6
    scale = complex(rng.normal(), rng.normal())
    lhs = [(ops[k], i) for k, i in lhs]
    rhs = [(ops[k], i) for k, i in rhs]
    m = max(i for _, i in lhs + rhs) + 1
    whole = max_residual(dense_chain(lhs, n, d), scale * dense_chain(rhs, n, d))
    if m <= 3:
        want = whole
    else:
        kets = probe_block(d, m)
        want = max_residual(dense_chain(lhs, m, d) @ kets, scale * dense_chain(rhs, m, d) @ kets)
        assert want <= whole * (1 + 1e-12)
    assert abs(relation_residual(lhs, rhs, scale) - want) <= 1e-12 * want
    assert relation_residual(lhs, lhs) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lhs,rhs", RELATION_WORDS)
def test_stacked_relation_residual_is_one_call_per_operator(rng, d, lhs, rhs):
    # a (3, d^2, d^2) stack in place of operator 0 gives the residuals of one
    # call per stacked operator, to the bit; the unstacked operator 1 broadcasts
    stack, op = np.stack([random_op(rng, d) for _ in range(3)]), random_op(rng, d)
    scale = complex(rng.normal(), rng.normal())
    got = relation_residual([((stack, op)[k], i) for k, i in lhs], [((stack, op)[k], i) for k, i in rhs], scale)
    want = [relation_residual([((u, op)[k], i) for k, i in lhs], [((u, op)[k], i) for k, i in rhs], scale)
            for u in stack]
    assert got.shape == (3,) and np.array_equal(got, want)


def test_relation_residual_stays_on_four_strands(monkeypatch):
    # far commutativity written on the strands it touches walks d^4 x PROBES
    # probe entries, and the braid and virtual checkers' other words sit on at
    # most 3 strands, where they walk d^3 x d^3: each passes at its count of
    # walked entries and is refused one below it
    entries = 2 ** 4 * braid.PROBES
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", entries)
    b = bell_matrix()
    assert relation_residual([(b, 1), (b, 3)], [(b, 3), (b, 1)]) < 1e-15
    assert check_braid_relation(b).overall_pass
    assert check_virtual_relations(swap(2)).overall_pass
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", entries - 1)
    with pytest.raises(linalg.DimensionError, match=f"2\\^4 x 8 entries exceeds {entries - 1}"):
        relation_residual([(b, 1), (b, 3)], [(b, 3), (b, 1)])
    adjacent = [(b, 1), (b, 2), (b, 1)], [(b, 2), (b, 1), (b, 2)]
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 2 ** 6)
    assert relation_residual(*adjacent) < 1e-15
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 2 ** 6 - 1)
    with pytest.raises(linalg.DimensionError, match="2\\^3 x 8 entries exceeds 63"):
        relation_residual(*adjacent)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_word_is_the_identity(rng, d):
    # on either side, as the identity factor it stands for, to the bit
    word, one = [(random_op(rng, d), 1), (random_op(rng, d), 2)], [(identity(d * d), 1)]
    assert relation_residual(word, []) == relation_residual(word, one) > 0
    assert relation_residual([], word) == relation_residual(one, word) > 0
    assert relation_residual([(swap(d), 1), (swap(d), 1)], []) == 0


def test_a_relation_of_two_empty_words_is_refused():
    # no factor gives neither a strand count nor a dimension
    with pytest.raises(linalg.DimensionError, match="a relation needs a factor in at least one of its words"):
        relation_residual([], [])


@pytest.mark.parametrize("n", [2, 3])
def test_apply_word_refuses_an_empty_word_by_name(n):
    # no factor gives no d, so d ** n is never reached
    with pytest.raises(linalg.DimensionError, match="apply_word needs a factor: an empty word has no local dimension"):
        apply_word([], n)


def test_relation_residual_reads_every_block():
    # at d = 5 the 125 columns of 3 strands make blocks of 64 and 61; m x 1
    # differs from the identity only in columns 120..124, all in the last one
    m = identity(25)
    m[24, 24] = 2
    assert relation_residual([(identity(25), 1), (identity(25), 2)], [(m, 1), (identity(25), 2)]) == 1
    assert relation_residual([(m, 1), (identity(25), 2)], [(m, 1)]) == 0


# --- strand products against the chained dense embeddings ----------------------


def dense_chain(word, n, d):
    """The word as the matrix product of its full n-strand kron embeddings."""
    return functools.reduce(np.matmul, [dense_embed(op, i, n, d) for op, i in word])


def decorated_projector(u, d):
    """(U x 1) omega (U x 1)^dag, the projector onto (U x 1)|Omega>."""
    m = kron(u, identity(d))
    return m @ omega_projector(d) @ m.conj().T


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_far_commutation_residual_equals_dense_chain(d):
    # every far-commutation word the suites check (b1 b3, v1 v3, b1 v3,
    # E_i E_j, E_i v_j) at the placements they use, formed on all n strands;
    # the shift keeps the decorated projector real, since with complex entries
    # the chain's BLAS sums may round A x B differently in the last bit
    ops = [swap(d), omega_projector(d), decorated_projector(shift(d), d)]
    if d == 2:
        ops += [bell_matrix(), permutation_qubit()]
    placements = [(n, i, j) for n, i, j in [(4, 1, 3), (5, 1, 4), (5, 2, 4), (6, 2, 5)]
                  if n == 4 or d ** n <= 64]
    for a in ops:
        for b in ops:
            for n, i, j in placements:
                lhs, rhs = [(a, i), (b, j)], [(b, j), (a, i)]
                want = max_residual(dense_chain(lhs, n, d), dense_chain(rhs, n, d))
                assert relation_residual(lhs, rhs) == want


# positions of words on 5 strands, each joining the running product on the
# right, on the left, across a gap (i > hi + 1) or by overlapping it
JOIN_WORDS = [[1, 3], [3, 1], [1, 4], [4, 1], [2, 4, 1], [1, 2, 4], [4, 3, 1],
              [2, 1, 4, 2], [3], [4, 1, 3, 2, 4]]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("positions", JOIN_WORDS)
def test_strand_product_joins_match_dense_chain(rng, d, positions):
    # the word's product on chosen columns, compared with the dense chain
    # applied to those basis kets: the 1024 x 1024 chain at d=4 takes seconds
    word = [(random_op(rng, d), i) for i in positions]
    cols = rng.choice(d ** 5, min(6, d ** 5), replace=False)
    want = np.eye(d ** 5)[:, cols]
    for op, i in reversed(word):
        want = dense_embed(op, i, 5, d) @ want
    assert max_residual(apply_word(word, 5, cols), want) <= 1e-12 * np.abs(want).max()


def test_far_commutation_never_meets_the_identity(monkeypatch):
    # each word's rightmost factor is embedded on the probe columns and the
    # other applied to them: no whole embedding, no identity on a whole
    # 4-strand space, and no allocation past a few probe blocks, a tenth of
    # one complex d^8 product
    d, calls, rows = 6, [], []
    v, block = swap(d), d ** 4 * braid.PROBES
    relation_residual([(v, 1), (v, 3)], [(v, 3), (v, 1)])  # first-call allocations are not traced
    apply, scatter = braid._apply, braid._embed  # the kernels every checked word runs on
    monkeypatch.setattr(braid, "_apply", lambda *args: calls.append(args) or apply(*args))
    monkeypatch.setattr(braid, "_embed", lambda op, i, n, cols, d: scatter(op, i, n, cols, d) if len(cols) < d ** n
                        else pytest.fail("whole embedding formed"))
    monkeypatch.setattr(braid, "identity", lambda k: rows.append(k) or identity(k))
    tracemalloc.start()
    try:
        assert relation_residual([(v, 1), (v, 3)], [(v, 3), (v, 1)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 2 and all(x.size == block for _, _, _, x, _ in calls)
    assert all(k < d ** 4 for k in rows)
    assert peak < 8 * 16 * block < 16 * d ** 8 / 10, peak


@pytest.mark.parametrize("check", ["b1 b2 b1 = b2 b1 b2", "teleport swapping"])
def test_three_strand_checks_hold_no_d6_array(check):
    # both walk BLOCK basis-ket columns at a time: at d = 12 the peak stays
    # below a quarter of one complex d^6 array (47.8 MB)
    d = 12
    b = swap(d)
    run = {"b1 b2 b1 = b2 b1 b2": lambda: relation_residual([(b, 1), (b, 2), (b, 1)], [(b, 2), (b, 1), (b, 2)]),
           "teleport swapping": lambda: check_teleport_swapping(d).max_residual}[check]
    tracemalloc.start()
    try:
        assert run() == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d ** 6 / 4, peak
