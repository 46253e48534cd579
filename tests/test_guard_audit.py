"""Each input rule has one home, and every entry that takes that kind of input
reaches it: a mutant of the home that raises a sentinel is raised by each entry
(or, through the CLI, names the sentinel on exit 2).  An entry with its own copy
of a rule would pass its input on without reaching the mutant.

The mutant replaces the home wherever the package binds it (as `linalg.as_state`
or as a name imported into a module), as an edit of the home's source would."""

import json
import sys

import numpy as np
import pytest

from entangle_tl import linalg, maxent, teleport
from entangle_tl.cli import main
from entangle_tl.linalg import identity
from entangle_tl.qubit import pauli


class Sentinel(ValueError):
    """Raised by a mutant home only."""


def _mutate(monkeypatch, module, name, refuses=lambda *args, **kwargs: True):
    """Replace module.name, wherever entangle_tl binds it, by a mutant raising Sentinel
    when refuses(*args) holds and otherwise calling the home itself."""
    home = getattr(module, name)  # an AttributeError when the home does not exist
    message = f"mutant of {module.__name__}.{name} reached"

    def mutant(*args, **kwargs):
        if refuses(*args, **kwargs):
            raise Sentinel(message)
        return home(*args, **kwargs)

    for mod in [m for key, m in sys.modules.items() if key.startswith("entangle_tl")]:
        for attr, value in list(vars(mod).items()):
            if value is home:
                monkeypatch.setattr(mod, attr, mutant)
    return message


PSI = np.ones(3) / np.sqrt(3)

STATE_ENTRIES = {
    "teleport_equation_qubit_check": lambda: teleport.teleport_equation_qubit_check(0.6, 0.8),
    "measurement_form": lambda: teleport.measurement_form(3, PSI),
    "branch_weights_check": lambda: teleport.branch_weights_check(3, PSI),
    "qudit_resolution_check": lambda: teleport.qudit_resolution_check(3, PSI),
    "simulate": lambda: teleport.simulate(3, PSI, trials=8),
}


@pytest.mark.parametrize("entry", STATE_ENTRIES)
def test_every_state_entry_reaches_as_state(monkeypatch, entry):
    _mutate(monkeypatch, linalg, "as_state")
    with pytest.raises(Sentinel):
        STATE_ENTRIES[entry]()


def _flow_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"d": 2, "operators": ["identity"] * 8, "phi": "1,0"}))
    return ["flow", "--spec", str(path)]


@pytest.mark.parametrize("argv", [lambda tmp_path: ["simulate", "--psi", "1,0"], _flow_spec],
                         ids=["simulate --psi", "flow --spec phi"])
def test_every_cli_state_reaches_as_state(monkeypatch, capsys, tmp_path, argv):
    sentinel = _mutate(monkeypatch, linalg, "as_state")
    assert main(argv(tmp_path)) == 2
    assert sentinel in capsys.readouterr().err


BASIS_ENTRIES = {
    "measurement_form": lambda: teleport.measurement_form(3, PSI),
    "branch_weights_check": lambda: teleport.branch_weights_check(3, PSI),
    "qudit_resolution_check": lambda: teleport.qudit_resolution_check(3, PSI),
    "simulate": lambda: teleport.simulate(3, PSI, trials=8),
    "tight_teleportation_check": lambda: teleport.tight_teleportation_check(3, identity(3), identity(3)),
    "dense_coding_check": lambda: teleport.dense_coding_check(3),
}


@pytest.mark.parametrize("entry", BASIS_ENTRIES)
def test_every_default_basis_comes_from_resolve_basis(monkeypatch, entry):
    # the mutant changes the default only: a given basis passes through it
    _mutate(monkeypatch, maxent, "resolve_basis", lambda d, basis: basis is None)
    with pytest.raises(Sentinel):
        BASIS_ENTRIES[entry]()


def test_the_unitary_pair_reaches_as_operators(monkeypatch):
    _mutate(monkeypatch, linalg, "as_operators")
    with pytest.raises(Sentinel):
        maxent.transfer_composition(identity(2), pauli(3), 2)

