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


class _Canvas:
    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[str]] = []

    def put(self, r: int, c: int, text: str):
        while len(self.rows) <= r:
            self.rows.append([" "] * self.width)
        row = self.rows[r]
        for k, ch in enumerate(text):
            pos = c + k
            if 0 <= pos < self.width:
                if ch != " ":
                    row[pos] = "×" if (row[pos] not in (" ", ch) and ch in "\\/") else ch

    def text(self) -> str:
        return "\n".join("".join(r).rstrip() for r in self.rows)


def render(diag: DecoratedDiagram) -> str:
    n, m = diag.top, diag.bottom
    longest_label = max((len(_deco_text(s.decorations)) for s in diag.strands), default=0)
    width = max(_col(max(n, m, 1)) + 2, 20, _col(0) + longest_label + 4)

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
    band = _Canvas(width)
    depth = max((abs(s.start.index - s.end.index) for s in throughs), default=0)
    band_rows = max(2 * depth, 1) if throughs else 0
    for s in throughs:
        a, b = s.start.index, s.end.index
        label = _deco_text(s.decorations)
        if a == b:
            for r in range(band_rows):
                band.put(r, _col(a), "|")
            if label:
                band.put(band_rows // 2, _col(a) + 1, label)
        else:
            step = 1 if b > a else -1
            # one diagonal char per half column of horizontal travel
            r, c = 0, _col(a)
            target = _col(b)
            glyph = "\\" if step > 0 else "/"
            while (c < target if step > 0 else c > target) and r < band_rows:
                band.put(r, c, glyph)
                c += step * (COL_WIDTH // 2)
                r += 1
            for rr in range(r, band_rows):
                band.put(rr, target, "|")
            if label:
                band.put(max(r - 1, 0), min(_col(a), target) + 1, label)
    if throughs:
        lines.append(band.text())

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
