"""ASCII rendering of decorated diagrams.

Glyphs: through strands |, cups (top-row arcs) \\_/, caps (bottom-row arcs)
/~\\ drawn with overlines, virtual crossings x, decorations as a bullet with
the operator label. Deterministic layout: top arcs by nesting depth, a
crossing band for the through strands, bottom arcs mirrored.
"""

from __future__ import annotations

from .diagram import BOTTOM, TOP, DecoratedDiagram

COL_WIDTH = 6


def _col(i: int) -> int:
    return 2 + COL_WIDTH * i


def _deco_text(decorations) -> str:
    marks = []
    for d in decorations:
        suffix = {"plain": "", "transpose": "^T", "dagger": "^+", "conjugate": "^*"}[d.flavor]
        marks.append(f"\u2022{d.op}{suffix}")
    return " ".join(marks)


def _write(row: list[str], c: int, text: str) -> None:
    """Write text into row from column c, clipped to the row."""
    for k, ch in enumerate(text):
        if 0 <= c + k < len(row):
            row[c + k] = ch


def _label_row(letter: str, count: int, width: int) -> str:
    """The T0.. or B0.. row naming the boundary points."""
    row = [" "] * width
    for i in range(count):
        _write(row, _col(i), f"{letter}{i}")
    return "".join(row).rstrip()


def _arc_row(s, glyphs: str, verticals, width: int) -> str:
    """One arc as its (left end, fill, right end) glyphs with its label
    centred on it, keeping a | at each free column in verticals."""
    row = [" "] * width
    a, b = _col(s.start.index), _col(s.end.index)
    row[a], row[a + 1:b], row[b] = glyphs[0], glyphs[1] * (b - a - 1), glyphs[2]
    label = _deco_text(s.decorations)
    _write(row, (a + b) // 2 - len(label) // 2, label)
    for c in verticals:
        if row[c] == " ":
            row[c] = "|"
    return "".join(row).rstrip()


def render(diag: DecoratedDiagram) -> str:
    n, m = diag.top, diag.bottom
    longest_label = max((len(_deco_text(s.decorations)) for s in diag.strands), default=0)
    width = _col(max(n, m, 1)) + 2 + longest_label  # a label fits right of any column

    top_arcs, bottom_arcs, throughs = [], [], []
    for s in diag.strands:
        if s.is_arc and s.start.side == TOP:
            top_arcs.append(s)
        elif s.is_arc:
            bottom_arcs.append(s)
        else:
            throughs.append(s)

    lines = [_label_row("T", n, width)]
    # top arcs, innermost (narrowest) first so nesting reads naturally; keep
    # verticals for arcs further out and for through strands
    for s in sorted(top_arcs, key=lambda s: s.end.index - s.start.index):
        lines.append(_arc_row(s, "\\_/", [_col(t.start.index) for t in throughs], width))

    # crossing band for through strands
    depth = max((abs(s.start.index - s.end.index) for s in throughs), default=0)
    # the longest diagonal arrives on the last row, 2 * depth
    band = [[" "] * width for _ in range(2 * depth + 1 if throughs else 0)]
    for s in throughs:
        a, b = s.start.index, s.end.index
        # a diagonal char per half column of travel, then | down to the last row
        steps = 2 * abs(b - a)
        glyphs = [(r, _col(a) + r * (_col(b) - _col(a)) // steps, "\\" if b > a else "/") for r in range(steps)]
        for r, c, glyph in glyphs + [(r, _col(b), "|") for r in range(steps, len(band))]:
            band[r][c] = glyph if band[r][c] in (" ", glyph) else "×"  # a crossing over another strand
    labels = []  # a label that would cover a glyph goes on its own line under the band
    for s in throughs:
        label, c = _deco_text(s.decorations), _col(s.end.index)
        # right of the bottom column, mid-band or on the row a diagonal arrives
        row = band[2 * abs(s.end.index - s.start.index) or len(band) // 2]
        if label and set(row[c + 1:c + 1 + len(label)]) == {" "}:
            _write(row, c + 1, label)
        elif label:
            labels.append(" " * c + label)
    lines += ["".join(row).rstrip() for row in band] + labels

    for s in sorted(bottom_arcs, key=lambda s: s.end.index - s.start.index, reverse=True):
        # \u203e is the overline
        lines.append(_arc_row(s, "/\u203e\\", [_col(t.end.index) for t in throughs], width))
    lines.append(_label_row("B", m, width))

    for loop in diag.loops:
        label = _deco_text(loop) or "(plain circle)"
        lines.append(f"loop: {label}")
    k = diag.scalar.half_power_of_d
    coeff = complex(diag.scalar.coeff)
    lines.append(f"scalar: {coeff.real:g}{coeff.imag:+g}i * d^({k}/2)")
    return "\n".join(lines)
