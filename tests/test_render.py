"""Frozen text renders: the whole drawing is compared, not substrings of it."""

import pytest

from entangle_tl import diagram as dg, tlalgebra
from entangle_tl.render import render

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
   •u1^+ •u2^T •u3^+ •u4 •u5^* •u6^T •u7^+ •u8^T
  /‾•u1‾\\                 |
              /‾•u3‾\\     |
  B0    B1    B2    B3    B4
loop: •u2^+ •u5
loop: •u4^+ •u7
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
