import numpy as np
import pytest

from entangle_tl import diagram as dg
from entangle_tl import linalg


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, size=d)))


def random_complex_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_ket(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


OP_LABELS = ("a", "b", "c")
FLAVOR_CHOICES = dg.FLAVORS


def random_operator_table(rng, d):
    return {name: random_complex_matrix(rng, d) for name in OP_LABELS}


def _noncrossing_order(rng, count):
    """Positions 0..count-1 on a circle, listed so that consecutive pairs
    form a random matching with no two chords crossing."""
    order = []

    def match(lo, hi):
        while lo < hi:
            k = lo + 1 + 2 * int(rng.integers(0, (hi - lo) // 2))
            order.extend((lo, k))
            match(lo + 1, k)
            lo = k + 1

    match(0, count)
    return order


def random_matching_diagram(rng, top, bottom, max_decos=2, planar=False):
    """A random perfect matching on top+bottom points with random decorations;
    planar=True draws a non-crossing (Temperley-Lieb) matching."""
    points = [dg.Endpoint(dg.TOP, i) for i in range(top)]
    bottom_row = [dg.Endpoint(dg.BOTTOM, i) for i in range(bottom)]
    # is_planar's circle runs along the bottom row from right to left
    points += bottom_row[::-1] if planar else bottom_row
    order = _noncrossing_order(rng, len(points)) if planar else rng.permutation(len(points))
    strands = []
    arcs = 0
    for k in range(0, len(points), 2):
        e1, e2 = points[order[k]], points[order[k + 1]]
        n_dec = int(rng.integers(0, max_decos + 1))
        decos = tuple(
            dg.Decoration(str(rng.choice(OP_LABELS)), str(rng.choice(FLAVOR_CHOICES)))
            for _ in range(n_dec)
        )
        strand = dg.Strand(e1, e2, decos)
        if strand.is_arc:
            arcs += 1
        strands.append(strand)
    return dg.DecoratedDiagram(top, bottom, tuple(strands),
                               scalar=dg.ScalarFactor(1.0, -arcs))


def random_composed_diagram(rng, max_strands=4):
    """Two random matchings glued along a shared interface, so composite
    strands, flavor toggles and extracted loops all occur."""
    top = int(rng.integers(0, max_strands + 1))
    mid = int(rng.integers(0, max_strands + 1))
    bottom = int(rng.integers(0, max_strands + 1))
    if (top + mid) % 2:
        mid += 1
    if (mid + bottom) % 2:
        bottom += 1
    upper = random_matching_diagram(rng, top, mid)
    lower = random_matching_diagram(rng, mid, bottom)
    return dg.compose(upper, lower)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def _record(monkeypatch, name):
    """Every call of linalg.<name> made during the test, as (spec, operands, result)."""
    calls, entry = [], getattr(linalg, name)

    def record(spec, *operands):
        calls.append((spec, operands, entry(spec, *operands)))
        return calls[-1][2]

    monkeypatch.setattr(linalg, name, record)
    return calls


@pytest.fixture
def contract_calls(monkeypatch):
    """Every linalg.contract call (the oracle's pairwise contraction) made during the test."""
    return _record(monkeypatch, "contract")


@pytest.fixture
def einsum_calls(monkeypatch):
    """Every linalg.einsum call (numpy's einsum along the planned path) made during the test."""
    return _record(monkeypatch, "einsum")
