"""Decorated Temperley-Lieb / Brauer diagram calculus.

A diagram is a perfect matching on two rows of points (top arity n, bottom
arity m) whose strands may carry ordered operator decorations, together with
already-extracted closed loops and an exact scalar bookkeeping record.
Crossings are allowed (no planarity restriction); is_planar() identifies the
Temperley-Lieb sub-case.

Orientation: diagrams consume input at the top and emit at the bottom, so
evaluate() returns a d^bottom x d^top matrix and composing a over b gives
evaluate(b) @ evaluate(a).  Each evaluator plans a diagram once for all d, in a
cached property holding labels, letters, flavor names and subscripts; each call
refuses an output beyond linalg.MAX_OUTPUT_ENTRIES, checks its operators by one
linalg.as_operators and reads flavor bits from FLAVORS.  evaluate()'s table may
hold (..., d, d) stacks; brute_force_evaluate() takes d x d ones.

Decoration semantics: every stored decoration is the operator applied in the
downward (flow) direction at its position on the strand, with arc decorations
normalized onto the branch of the strand's canonical start endpoint (top
endpoints, left to right, precede bottom endpoints).  Walking a strand from
its start, a decoration encountered while moving upward contributes its
transpose.  compose() keeps this normal form in one walk per new strand or
loop: each decoration is stored as it is met, transpose-toggled exactly when
it is walked upward on a strand starting on the top row (or a loop), or
downward on one starting on the bottom row.  Each arc carries a
d^(-1/2) normalization held as an exact half-integer power of d in the scalar
until evaluation.  A flavor is two bits, its index in FLAVORS: bit 0
transposes and bit 1 conjugates, so a toggle is an XOR (dagger is both bits).
"""

from __future__ import annotations

import functools
import json
import string
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import DimensionError

FLAVORS = ("plain", "transpose", "conjugate", "dagger")

TOP = "T"
BOTTOM = "B"

@dataclass(frozen=True, order=True)
class Endpoint:
    side: str
    index: int

    def __post_init__(self):
        if self.side not in (TOP, BOTTOM):
            raise ValueError(f"endpoint side must be 'T' or 'B', got {self.side!r}")
        if self.index < 0:
            raise ValueError("endpoint index must be nonnegative")

    @property
    def sort_key(self):
        return (0 if self.side == TOP else 1, self.index)

    def encode(self) -> str:
        return f"{self.side}{self.index}"

    @staticmethod
    def decode(text: str) -> "Endpoint":
        if len(text) < 2 or text[0] not in (TOP, BOTTOM) or not text[1:].isdigit():
            raise ValueError(f"bad endpoint {text!r}")
        return Endpoint(text[0], int(text[1:]))


@dataclass(frozen=True)
class Decoration:
    op: str
    flavor: str = "plain"

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")

    def toggle_transpose(self) -> "Decoration":
        return Decoration(self.op, FLAVORS[FLAVORS.index(self.flavor) ^ 1])

    def toggle_dagger(self) -> "Decoration":
        return Decoration(self.op, FLAVORS[FLAVORS.index(self.flavor) ^ 3])

    def matrix(self, table: dict) -> np.ndarray:
        """table[op], already validated by _operator_table, with this flavor applied."""
        m = table[self.op]
        bits = FLAVORS.index(self.flavor)
        m = m.swapaxes(-1, -2) if bits & 1 else m
        return m.conj() if bits & 2 else m

    def to_dict(self) -> dict:
        return {"op": self.op, "flavor": self.flavor}

    @staticmethod
    def from_dict(data: dict) -> "Decoration":
        return Decoration(str(data["op"]), str(data["flavor"]))


@dataclass(frozen=True)
class Strand:
    start: Endpoint
    end: Endpoint
    decorations: tuple = ()

    def __post_init__(self):
        if self.start == self.end:
            raise ValueError("a strand cannot connect an endpoint to itself")
        object.__setattr__(self, "decorations", tuple(self.decorations))

    @property
    def is_arc(self) -> bool:
        return self.start.side == self.end.side

    def canonical(self) -> "Strand":
        """Reorder so the canonical start comes first, adjusting flavors.

        Swapping the stored endpoints transposes the strand tensor, so the
        decoration list reverses; on arcs (where the walk parity at the
        decorations is the same from either end) each decoration additionally
        toggles transpose, while on through strands the flipped start side
        absorbs the transpose and the flavors stay put.
        """
        if self.start.sort_key <= self.end.sort_key:
            return self
        decos = tuple(reversed(self.decorations))
        if self.is_arc:
            decos = tuple(d.toggle_transpose() for d in decos)
        return Strand(self.end, self.start, decos)


@dataclass(frozen=True)
class ScalarFactor:
    """coeff * d^(half_power_of_d / 2), kept exact until evaluation."""

    coeff: complex = 1.0 + 0.0j
    half_power_of_d: int = 0

    def numeric(self, d: int) -> complex:
        return complex(self.coeff) * float(d) ** (self.half_power_of_d / 2.0)

    def __mul__(self, other: "ScalarFactor") -> "ScalarFactor":
        return ScalarFactor(complex(self.coeff) * complex(other.coeff),
                            self.half_power_of_d + other.half_power_of_d)


@dataclass(frozen=True)
class DecoratedDiagram:
    top: int
    bottom: int
    strands: tuple = ()
    loops: tuple = ()
    scalar: ScalarFactor = field(default_factory=ScalarFactor)

    def __post_init__(self):
        if self.top < 0 or self.bottom < 0:
            raise DimensionError("arities must be nonnegative")
        if (self.top + self.bottom) % 2 != 0:
            raise ValueError("top + bottom arity must be even")
        strands = tuple(sorted((s.canonical() for s in self.strands),
                               key=lambda s: s.start.sort_key))
        seen = set()
        for s in strands:
            for e in (s.start, s.end):
                limit = self.top if e.side == TOP else self.bottom
                if e.index >= limit:
                    raise ValueError(f"endpoint {e.encode()} out of range")
                if e in seen:
                    raise ValueError(f"endpoint {e.encode()} used twice")
                seen.add(e)
        if len(seen) != self.top + self.bottom:
            raise ValueError("strands must form a perfect matching on all endpoints")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "loops", tuple(tuple(l) for l in self.loops))

    _evaluation_plan = functools.cached_property(lambda self: _plan_evaluation(self))
    _network_plan = functools.cached_property(lambda self: _plan_network(self))


def identity_diagram(n: int) -> DecoratedDiagram:
    strands = tuple(Strand(Endpoint(TOP, i), Endpoint(BOTTOM, i)) for i in range(n))
    return DecoratedDiagram(n, n, strands)


def place(diag: DecoratedDiagram, i: int, n: int) -> DecoratedDiagram:
    """A two-strand diagram on strands i, i+1 (1-based i) of n, beside identity strands."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator position {i} out of range for n={n}")
    return tensor(tensor(identity_diagram(i - 1), diag), identity_diagram(n - i - 1))


@functools.cache
def e_gen(i: int, n: int) -> DecoratedDiagram:
    """TL idempotent generator: a cap over a cup on strands i, i+1 (1-based
    i), whose two arcs give the scalar d^-1."""
    return place(tensor(cap_diagram(), cup_diagram()), i, n)


def v_gen(i: int, n: int) -> DecoratedDiagram:
    """Virtual crossing generator: strands i and i+1 cross (1-based i)."""
    crossing = DecoratedDiagram(2, 2, (Strand(Endpoint(TOP, 0), Endpoint(BOTTOM, 1)),
                                       Strand(Endpoint(TOP, 1), Endpoint(BOTTOM, 0))))
    return place(crossing, i, n)


def cup_diagram() -> DecoratedDiagram:
    """The (0, 2) diagram emitting a maximally entangled pair."""
    return DecoratedDiagram(0, 2, (Strand(Endpoint(BOTTOM, 0), Endpoint(BOTTOM, 1)),),
                            scalar=ScalarFactor(1.0, -1))


def cap_diagram() -> DecoratedDiagram:
    """The (2, 0) diagram absorbing a pair into a maximally entangled bra."""
    return DecoratedDiagram(2, 0, (Strand(Endpoint(TOP, 0), Endpoint(TOP, 1)),),
                            scalar=ScalarFactor(1.0, -1))


def tensor(a: DecoratedDiagram, b: DecoratedDiagram) -> DecoratedDiagram:
    """Side-by-side placement: b's points shift right of a's."""
    def shift(e: Endpoint) -> Endpoint:
        off = a.top if e.side == TOP else a.bottom
        return Endpoint(e.side, e.index + off)

    strands = list(a.strands)
    strands.extend(Strand(shift(s.start), shift(s.end), s.decorations) for s in b.strands)
    return DecoratedDiagram(a.top + b.top, a.bottom + b.bottom, tuple(strands),
                            a.loops + b.loops, a.scalar * b.scalar)


def decorate(diag: DecoratedDiagram, strand_index: int, position: int,
             decoration: Decoration) -> DecoratedDiagram:
    """Insert a decoration at the stated position of a strand's ordered list."""
    if not 0 <= strand_index < len(diag.strands):
        raise ValueError(f"strand index {strand_index} out of range")
    s = diag.strands[strand_index]
    if not 0 <= position <= len(s.decorations):
        raise ValueError(f"decoration position {position} out of range")
    decos = s.decorations[:position] + (decoration,) + s.decorations[position:]
    strands = list(diag.strands)
    strands[strand_index] = Strand(s.start, s.end, decos)
    return DecoratedDiagram(diag.top, diag.bottom, tuple(strands), diag.loops, diag.scalar)


def is_planar(diag: DecoratedDiagram) -> bool:
    """True when no two strands cross (Temperley-Lieb sub-case).

    Points are placed on a circle: top row left to right, then bottom row
    right to left; the matching is planar iff no two chords interleave.
    """
    def pos(e: Endpoint) -> int:
        if e.side == TOP:
            return e.index
        return diag.top + (diag.bottom - 1 - e.index)

    chords = [tuple(sorted((pos(s.start), pos(s.end)))) for s in diag.strands]
    for i, (a1, a2) in enumerate(chords):
        for b1, b2 in chords[i + 1:]:
            if (a1 < b1 < a2 < b2) or (b1 < a1 < b2 < a2):
                return False
    return True


# ---------------------------------------------------------------------------
# composition


def compose(top_diag: DecoratedDiagram, bottom_diag: DecoratedDiagram) -> DecoratedDiagram:
    """Glue top_diag's bottom row to bottom_diag's top row.

    Each new strand is walked from its canonical start (top_diag's top row,
    then bottom_diag's bottom row) across the interface to the boundary; the
    segments no strand walks close into loops.  Decorations are stored as
    they are walked.  evaluate(compose(a, b)) equals evaluate(b) @
    evaluate(a): the diagram placed on top consumes the input first.
    """
    if top_diag.bottom != bottom_diag.top:
        raise DimensionError(
            f"cannot glue bottom arity {top_diag.bottom} to top arity {bottom_diag.top}")
    at = ({}, {})   # per layer (0: top_diag, 1: bottom_diag): endpoint -> (segment, is its start)
    for layer, diag in enumerate((top_diag, bottom_diag)):
        for s in diag.strands:
            at[layer][s.start], at[layer][s.end] = (s, True), (s, False)
    walked = set()

    def walk(layer: int, entry: Endpoint, start_is_bottom: bool):
        """The stored decorations met from entry, and the boundary endpoint
        reached, or None when the walk comes back to entry (a loop)."""
        first, decos = (layer, entry), []
        while True:
            seg, forward = at[layer][entry]
            walked.add((layer, seg.start))
            # moving up at the decorations: from the bottom row, or against
            # that when an arc is entered at its end (extremum crossed first)
            up = entry.side == BOTTOM
            if not forward and seg.is_arc:
                up = not up
            flip = up != start_is_bottom
            for deco in (seg.decorations if forward else reversed(seg.decorations)):
                decos.append(deco.toggle_transpose() if flip else deco)
            exit_ = seg.end if forward else seg.start
            if (exit_.side == TOP) == (layer == 0):
                return decos, exit_
            # layer 0's bottom point k is layer 1's top point k
            layer, entry = 1 - layer, Endpoint(TOP if layer == 0 else BOTTOM, exit_.index)
            if (layer, entry) == first:
                return decos, None

    strands = []
    for layer, side, count in ((0, TOP, top_diag.top), (1, BOTTOM, bottom_diag.bottom)):
        for i in range(count):
            start = Endpoint(side, i)
            if (layer, at[layer][start][0].start) not in walked:
                decos, end = walk(layer, start, side == BOTTOM)
                strands.append(Strand(start, end, decos))

    loops = list(top_diag.loops) + list(bottom_diag.loops)
    for layer, diag in enumerate((top_diag, bottom_diag)):
        for seg in diag.strands:
            if (layer, seg.start) not in walked:
                loops.append(tuple(walk(layer, seg.start, False)[0]))

    return DecoratedDiagram(top_diag.top, bottom_diag.bottom, tuple(strands),
                            tuple(loops), top_diag.scalar * bottom_diag.scalar)


# ---------------------------------------------------------------------------
# evaluation


def _check_size(diag: DecoratedDiagram, d: int) -> tuple:
    """Both evaluators' start, before any plan: the output shape, or a refusal of d, the diagram or the output."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    count = diag.top + diag.bottom
    if count > len(string.ascii_letters):
        raise ValueError("diagram too large to evaluate")
    linalg.within_limit(d ** count, f"output of {d}^{count}")
    return d ** diag.bottom, d ** diag.top


def _labels(diag: DecoratedDiagram) -> tuple:
    """The operator labels the decorations use, in first use: loops, then strands."""
    return tuple(dict.fromkeys(deco.op for deco in sum((*diag.loops, *(s.decorations for s in diag.strands)), ())))


def _letters(diag: DecoratedDiagram) -> tuple:
    """One einsum letter per endpoint (top row, then bottom row) and the output subscript (bottom, then top)."""
    ends = [Endpoint(TOP, i) for i in range(diag.top)] + [Endpoint(BOTTOM, i) for i in range(diag.bottom)]
    letter = dict(zip(ends, string.ascii_letters))
    return letter, "".join(letter[e] for e in ends[diag.top:] + ends[:diag.top])


def _operator_table(labels: tuple, d: int, ops: dict | None, stacked: bool) -> list:
    """ops[label] for each label, checked by one linalg.as_operators(..., stacked); a
    missing label is refused after the labels before it, as a check in order would."""
    ops = ops or {}
    known = next((k for k, label in enumerate(labels) if label not in ops), len(labels))
    table = linalg.as_operators([ops[label] for label in labels[:known]], d,
                                (f"operator {label!r}" for label in labels), stacked)
    if known < len(labels):
        raise ValueError(f"unresolvable operator label {labels[known]!r}")
    return table


def _plan_evaluation(diag: DecoratedDiagram) -> tuple:
    """evaluate()'s plan: the table's labels, the output subscript, the outer product's
    spec, and each loop's and strand's walk as (label index, flavor name, flip) per
    decoration, where a strand starting on the bottom row flips each to its transpose."""
    labels = _labels(diag)
    loops = tuple(tuple((labels.index(deco.op), deco.flavor, False) for deco in loop) for loop in diag.loops)
    strands = tuple(tuple((labels.index(deco.op), deco.flavor, s.start.side == BOTTOM) for deco in s.decorations)
                    for s in diag.strands)
    letter, out_sub = _letters(diag)
    # each endpoint's letter appears once in the operands and once in the output: nothing is summed
    spec = ",".join("..." + letter[s.end] + letter[s.start] for s in diag.strands) + "->..." + out_sub
    return labels, out_sub, spec, loops, strands


def _walk_product(walk: tuple, table: list, d: int) -> np.ndarray:
    """The operator product along a walk, its first step rightmost, reading FLAVORS on
    every call: it starts from that step's operator, and is the identity only for an
    empty walk."""
    out = None
    for k, flavor, flip in walk:
        bits = FLAVORS.index(flavor) ^ flip
        m = table[k].swapaxes(-1, -2) if bits & 1 else table[k]
        m = m.conj() if bits & 2 else m
        out = m if out is None else m @ out
    return np.eye(d, dtype=np.complex128) if out is None else out


def _scalar_value(value: complex, loops: tuple, table: list, d: int):
    return functools.reduce(np.multiply, (_walk_product(walk, table, d).trace(axis1=-2, axis2=-1)
                                          for walk in loops), value)


def scalar_value(diag: DecoratedDiagram, d: int, ops: dict | None = None) -> complex:
    """coeff * d^(k/2) * product of loop traces."""
    labels = tuple(dict.fromkeys(deco.op for loop in diag.loops for deco in loop))
    loops = [[(labels.index(deco.op), deco.flavor, False) for deco in loop] for loop in diag.loops]
    table = _operator_table(labels, d, ops, stacked=False)
    return _scalar_value(diag.scalar.numeric(d), loops, table, d)


def evaluate(diag: DecoratedDiagram, d: int, ops: dict | None = None) -> np.ndarray:
    """Dense d^bottom x d^top matrix of the diagram (input at top), the outer
    product of its strand tensors.  States and effects enter as cups and
    caps composed onto the diagram, as in tlalgebra.closed_flow_diagram."""
    shape = _check_size(diag, d)
    labels, out_sub, spec, loops, strands = diag._evaluation_plan
    table = _operator_table(labels, d, ops, stacked=True)
    value = np.asarray(_scalar_value(diag.scalar.numeric(d), loops, table, d))[..., None, None]
    if not strands:
        return value
    out = np.einsum(spec, *(_walk_product(walk, table, d) for walk in strands))
    return value * out.reshape(out.shape[:out.ndim - len(out_sub)] + shape)


def _plan_network(diag: DecoratedDiagram) -> tuple:
    """brute_force_evaluate()'s plan: the table's labels, the network's subscripts (None
    when it needs more letters than there are), its nodes (per operand its Decoration, or
    whether its plain wire is an arc), arc count and empty loops."""
    labels, (letter, out_sub) = _labels(diag), _letters(diag)
    if len(letter) + len(sum((*diag.loops, *(s.decorations for s in diag.strands)), ())) > len(string.ascii_letters):
        return labels, None, (), 0, 0
    pool = iter(string.ascii_letters[len(letter):])
    nodes, subs = [], []
    for s in diag.strands:
        # chain from the start endpoint; decorations are downward-flow matrices on the
        # start branch, extremum (if any) before the end, each oriented along physical flow
        chain = [letter[s.start]] + [next(pool) for _ in s.decorations]
        subs += [b + a if s.start.side == TOP else a + b for a, b in zip(chain, chain[1:])]
        subs.append(chain[-1] + letter[s.end])
        nodes += [*s.decorations, s.is_arc]
    for loop in diag.loops:
        wires = [next(pool) for _ in loop]
        subs += [b + a for a, b in zip(wires, wires[1:] + wires[:1])]
        nodes += loop
    return (labels, ",".join(subs) + "->" + out_sub, tuple(nodes), sum(s.is_arc for s in diag.strands),
            sum(not loop for loop in diag.loops))


def brute_force_evaluate(diag: DecoratedDiagram, d: int, ops: dict | None = None) -> np.ndarray:
    """Oracle evaluation: build the full tensor network node by node
    (normalized cup/cap tensors, one matrix node per decoration) and contract
    every internal index by linalg.contract: plain pairwise einsums along numpy's
    greedy path, planned once per (subscripts, shapes).

    Shares no strand walking or flavor logic with evaluate(), only the size
    check, labels, letters and operator lookup; agreement between the two is
    the correctness test for the normal-form bookkeeping.
    """
    shape = _check_size(diag, d)
    labels, spec, nodes, arcs, empty_loops = diag._network_plan
    table = dict(zip(labels, _operator_table(labels, d, ops, stacked=False)))
    if spec is None:
        raise ValueError("diagram too large for brute-force contraction")
    prefactor = diag.scalar.numeric(d) * float(d) ** (arcs / 2.0) * ((1.0 + 0.0j) * d ** empty_loops)
    if not nodes:
        return np.array([[prefactor]], dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    wires = (eye, eye / np.sqrt(d))  # plain, arc
    operands = [node.matrix(table) if isinstance(node, Decoration) else wires[node] for node in nodes]
    return prefactor * linalg.contract(spec, *operands).reshape(shape)


def adjoint_diagram(diag: DecoratedDiagram) -> DecoratedDiagram:
    """The diagram of the adjoint map: evaluate(adjoint) = evaluate(diag)^dag.

    Endpoint sides flip and every decoration dagger-toggles in place; the
    canonicalization flip supplies the order reversal through strands need.
    """
    strands = []
    for s in diag.strands:
        start = Endpoint(BOTTOM if s.start.side == TOP else TOP, s.start.index)
        end = Endpoint(BOTTOM if s.end.side == TOP else TOP, s.end.index)
        decos = tuple(d.toggle_dagger() for d in s.decorations)
        strands.append(Strand(start, end, decos))
    loops = tuple(tuple(d.toggle_dagger() for d in reversed(loop)) for loop in diag.loops)
    scalar = ScalarFactor(complex(diag.scalar.coeff).conjugate(), diag.scalar.half_power_of_d)
    return DecoratedDiagram(diag.bottom, diag.top, tuple(strands), loops, scalar)


def structural_ratio(a: DecoratedDiagram, b: DecoratedDiagram, d: int,
                     ops: dict | None = None) -> complex | None:
    """If a and b have identical strand structure, the scalar ratio a/b at
    dimension d (loop traces evaluated); None when the structures differ."""
    if (a.top, a.bottom) != (b.top, b.bottom) or a.strands != b.strands:
        return None
    va, vb = scalar_value(a, d, ops), scalar_value(b, d, ops)
    if vb == 0:
        return None
    return va / vb


# ---------------------------------------------------------------------------
# serialization


def to_dict(diag: DecoratedDiagram) -> dict:
    return {
        "top": diag.top,
        "bottom": diag.bottom,
        "strands": [
            [s.start.encode(), s.end.encode()] + [d.to_dict() for d in s.decorations]
            for s in diag.strands
        ],
        "loops": [[d.to_dict() for d in loop] for loop in diag.loops],
        "scalar": {
            "coeff": [float(np.real(diag.scalar.coeff)), float(np.imag(diag.scalar.coeff))],
            "half_power": diag.scalar.half_power_of_d,
        },
    }


def _json_int(value, key: str) -> int:
    """A count read from JSON: 2.7, "2" or true is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def from_dict(data: dict) -> DecoratedDiagram:
    try:
        strands = []
        for entry in data["strands"]:
            start, end = Endpoint.decode(entry[0]), Endpoint.decode(entry[1])
            decos = tuple(Decoration.from_dict(d) for d in entry[2:])
            strands.append(Strand(start, end, decos))
        loops = tuple(tuple(Decoration.from_dict(d) for d in loop) for loop in data["loops"])
        re, im = data["scalar"]["coeff"]
        coeff = complex(float(re), float(im))
        if not np.isfinite(coeff):
            # json would write it back as Infinity or NaN, which is not JSON
            raise ValueError(f"coeff must be finite, got {[re, im]!r}")
        scalar = ScalarFactor(coeff, _json_int(data["scalar"]["half_power"], "half_power"))
        return DecoratedDiagram(_json_int(data["top"], "top"), _json_int(data["bottom"], "bottom"),
                                tuple(strands), loops, scalar)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed diagram data: {exc}") from exc


def dumps(diag: DecoratedDiagram) -> str:
    return json.dumps(to_dict(diag), sort_keys=True)


def loads(text: str) -> DecoratedDiagram:
    return from_dict(json.loads(text))
