"""Frozen text renders: the whole drawing is compared, not substrings of it."""

import pytest

from entangle_tl import diagram as dg, tlalgebra
from entangle_tl.render import _col, render

DIAGRAMS = {
    "flow_diagram": tlalgebra.flow_diagram,
    "e_gen_2_4": lambda: dg.e_gen(2, 4),
    "v_gen_1_3": lambda: dg.v_gen(1, 3),
    "decorated_e_gen_1_3": lambda: tlalgebra.decorated_e_gen(1, 3, "U"),
}

GOLDEN = {
    "flow_diagram": """\
  T0    T1    T2    T3    T4
  |     \\•u6^+/
  |                 \\•u8^+/
  \\
     \\
        \\
           \\
              \\
                 \\
                    \\
                       \\
                          |•u1^+ •u2^T •u3^+ •u4 •u5^* •u6^T •u7^+ •u8^T
  /‾•u1‾\\                 |
              /‾•u3‾\\     |
  B0    B1    B2    B3    B4
loop: •u5^T •u2^*
loop: •u7^T •u4^*
scalar: 1+0i * d^(-16/2)""",
    "e_gen_2_4": """\
  T0    T1    T2    T3
  |     \\_____/     |
  |                 |
  |     /‾‾‾‾‾\\     |
  B0    B1    B2    B3
scalar: 1+0i * d^(-2/2)""",
    "v_gen_1_3": """\
  T0    T1    T2
  \\     /     |
     ×        |
  |     |     |
  B0    B1    B2
scalar: 1+0i * d^(0/2)""",
    "decorated_e_gen_1_3": """\
  T0    T1    T2
  \\•U^+_/     |
              |
  /‾•U‾‾\\     |
  B0    B1    B2
scalar: 1+0i * d^(-2/2)""",
}


@pytest.mark.parametrize("name", DIAGRAMS)
def test_render_matches_golden(name):
    assert render(DIAGRAMS[name]()) == GOLDEN[name]



THREE_CYCLES = {
    "v1_v2": lambda: dg.compose(dg.v_gen(1, 3), dg.v_gen(2, 3)),
    "v2_v1": lambda: dg.compose(dg.v_gen(2, 3), dg.v_gen(1, 3)),
}

# a label longer than a column's width: it may not run over the next column's strand
LONG_LABEL = {"long_label": lambda: dg.decorate(dg.v_gen(1, 3), 0, 0, dg.Decoration("long_label", "plain"))}


@pytest.mark.parametrize("name", THREE_CYCLES)
def test_a_diagonal_meeting_a_vertical_crosses_it(name):
    # whichever strand is drawn first, the cell where the T0 -> B2 (or
    # T2 -> B0) diagonal meets the middle vertical shows a crossing
    band = render(THREE_CYCLES[name]()).split("\n")[1:]
    assert band[2][8] == "×", band


@pytest.mark.parametrize("name", [*DIAGRAMS, *THREE_CYCLES, *LONG_LABEL])
def test_every_through_strand_ends_in_its_bottom_column(name):
    diag = {**DIAGRAMS, **THREE_CYCLES, **LONG_LABEL}[name]()
    throughs = [s for s in diag.strands if not s.is_arc]
    assert throughs
    lines = render(diag).split("\n")
    # below the band: the labels that did not fit in it, the bottom arcs, the
    # B row, the loops and the scalar line
    labels = [line for line in lines if line.lstrip().startswith("\u2022")]
    below = (len(labels) + sum(s.is_arc and s.start.side == dg.BOTTOM for s in diag.strands)
             + len(diag.loops) + 2)
    last_band_row = lines[-below - 1]
    for s in throughs:
        c = _col(s.end.index)
        assert last_band_row[c:c + 1] == "|", (s, last_band_row)
    for line in labels:  # each on its own line, whole, under its strand's bottom column
        assert [_col(s.end.index) for s in throughs].count(len(line) - len(line.lstrip())) == 1
    if name in LONG_LABEL:
        assert labels == [" " * _col(1) + "\u2022long_label"]
