import argparse
import json
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

from entangle_tl import braid, cli, linalg, tlalgebra
from entangle_tl import diagram as dg
from entangle_tl.cli import main
from entangle_tl.render import render
from entangle_tl.report import validate_report_dict


def run_cli(args, env=None):
    cmd = [sys.executable, "-m", "entangle_tl.cli"] + args
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def test_verify_bell_passes(capsys):
    assert main(["verify", "bell"]) == 0
    out = capsys.readouterr().out
    assert "B^4 = -1" in out
    assert "pass" in out


def test_verify_unknown_suite_exits_2():
    result = run_cli(["verify", "nonsense"])
    assert result.returncode == 2


@pytest.mark.parametrize("suite", ["bell", "braid", "virtual", "maxent", "teleport",
                                   "tight", "dense", "tl", "brauer", "flow"])
def test_verify_each_suite_d2(capsys, suite):
    assert main(["verify", suite, "--d", "2"]) == 0
    capsys.readouterr()


def test_verify_all_d2_to_d4(capsys):
    for d in (2, 3, 4):
        assert main(["verify", "all", "--d", str(d)]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("d", [2, 3])
def test_verify_all_runs_every_registry_entry(d):
    cfg = cli.RunConfig(dimension=d)
    report = cli.run_suite("all", cfg)
    expected = Counter(f"{r.suite_name}: {c.identity_name}"
                       for entry in cli.REGISTRY.values()
                       for r in entry(cfg, np.random.default_rng(0)) for c in r.checks)
    assert Counter(c.identity_name for c in report.checks) == expected
    assert report.details == []  # the dense-coding table is shown by `verify dense` only


@pytest.mark.parametrize("argv", [["verify", "maxent"], ["verify", "teleport"],
                                  ["verify", "bell"], ["simulate"]])
def test_zero_dimension_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--d", "0"])
    assert exc.value.code == 2
    assert "error: argument --d: expected a positive integer" in capsys.readouterr().err


def test_verify_json_schema_and_agreement(capsys):
    assert main(["verify", "tl", "--d", "3", "--n", "4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    validate_report_dict(data)
    assert data["overall_pass"] is True
    assert main(["verify", "tl", "--d", "3", "--n", "4"]) == 0
    text = capsys.readouterr().out
    # text and json agree on residuals to printed precision
    for check in data["checks"]:
        token = f"{check['max_residual']:.3e}"
        assert token in text


def test_verify_dense_prints_delta_table(capsys):
    assert main(["verify", "dense", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "delta table" in out
    assert out.count("1.000") >= 4


def test_simulate_text_and_json(capsys):
    assert main(["simulate", "--d", "2", "--trials", "1000", "--seed", "7",
                 "--psi", "0.6,0.8"]) == 0
    out = capsys.readouterr().out
    assert "min fidelity: 1.0000" in out
    assert main(["simulate", "--d", "2", "--trials", "64", "--seed", "7",
                 "--psi", "0.6,0.8", "--format", "json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"d", "seed", "trials", "histogram", "min_fidelity"}


def test_simulate_rejects_unnormalized(capsys):
    assert main(["simulate", "--psi", "1,1"]) == 2
    capsys.readouterr()


def test_psi_amplitudes_follow_the_ket_rules(capsys):
    # the listed amplitudes are refused by linalg.as_ket as they are parsed
    with pytest.raises(ValueError, match="^vector entries must be finite$"):
        cli._parse_psi("nan,0", 2)
    with pytest.raises(linalg.DimensionError, match="^psi must have dimension 2$"):
        cli._parse_psi("1,0,0", 2)
    assert main(["simulate", "--psi", "nan,0"]) == 2
    assert capsys.readouterr().err == "error: vector entries must be finite\n"


def test_simulate_deterministic():
    a = run_cli(["simulate", "--d", "3", "--seed", "7", "--psi", "uniform"])
    b = run_cli(["simulate", "--d", "3", "--seed", "7", "--psi", "uniform"])
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_seed_env_var_override():
    import os
    env = dict(os.environ)
    env["ENTANGLE_TL_SEED"] = "7"
    with_env = run_cli(["simulate", "--d", "2", "--psi", "uniform", "--format", "json"], env=env)
    explicit = run_cli(["simulate", "--d", "2", "--psi", "uniform", "--seed", "7",
                        "--format", "json"])
    assert with_env.stdout == explicit.stdout
    # explicit --seed beats the environment
    env["ENTANGLE_TL_SEED"] = "99"
    overridden = run_cli(["simulate", "--d", "2", "--psi", "uniform", "--seed", "7",
                          "--format", "json"], env=env)
    assert overridden.stdout == explicit.stdout


def test_flow_command_identities(tmp_path, capsys):
    spec = tmp_path / "flow.json"
    spec.write_text(json.dumps({"d": 2, "operators": ["identity"] * 8, "phi": "basis0"}))
    assert main(["flow", "--spec", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "closed-form residual" in out
    # phi_C / d^4 = (1/16, 0)
    assert "+0.062500000000" in out


def test_flow_command_json_and_matrices(tmp_path, capsys):
    ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    spec = tmp_path / "flow.json"
    spec.write_text(json.dumps({"d": 2, "operators": [ident] * 4 + ["sigma1"] * 4}))
    assert main(["flow", "--spec", str(spec), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["residual"] <= 1e-9
    assert len(data["output"]) == 2


def test_flow_command_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json\n")
    assert main(["flow", "--spec", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json:1" in err
    missing = tmp_path / "missing.json"
    assert main(["flow", "--spec", str(missing)]) == 2
    capsys.readouterr()
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"d": 2, "operators": ["identity"] * 5}))
    assert main(["flow", "--spec", str(wrong)]) == 2
    capsys.readouterr()


def test_flow_spec_not_an_object_exits_2(tmp_path, capsys):
    spec = tmp_path / "list.json"
    spec.write_text("[1, 2]")
    assert main(["flow", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", [5, [[1, 0]], [[[1, 0], [0, 0]], [[0, 0]]]])
def test_flow_spec_malformed_operator_exits_2(tmp_path, capsys, entry):
    spec = tmp_path / "op.json"
    spec.write_text(json.dumps({"d": 2, "operators": [entry] + ["identity"] * 7}))
    assert main(["flow", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: ") and err.count("\n") == 1


@pytest.mark.parametrize("spec_data, message", [
    pytest.param({"d": 2}, "the spec has no operators: it needs a list of eight", id="no-operators"),
    pytest.param({"d": 2, "operators": ["weyl:1"] + ["identity"] * 7},
                 "a Weyl operator is weyl:a,b with integers a and b, got 'weyl:1'", id="weyl-one-index"),
    pytest.param({"d": 2, "operators": ["identity"] * 8, "phi": "basisx"},
                 "a basis state is basisK with an integer K, got 'basisx'", id="basis-without-index"),
])
def test_flow_spec_refusal_names_the_fault(tmp_path, capsys, spec_data, message):
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps(spec_data))
    assert main(["flow", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {spec}: {message}\n"


def test_flow_spec_boolean_d_exits_2(tmp_path, capsys):
    # true is a JSON boolean, not the dimension 1
    spec = tmp_path / "d.json"
    spec.write_text(json.dumps({"d": True, "operators": ["identity"] * 8}))
    assert main(["flow", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: d must be a positive integer") and err.count("\n") == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
def test_non_finite_tol_exits_2(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bell", f"--tol={tol}"])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_non_positive_flow_tol_exits_2(tmp_path, capsys, tol):
    # a bound of zero or below used to read as a failed check (exit 1)
    spec = tmp_path / "flow.json"
    spec.write_text(json.dumps({"d": 2, "operators": ["identity"] * 8}))
    with pytest.raises(SystemExit) as exc:
        main(["flow", "--spec", str(spec), f"--tol={tol}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1 and "finite positive number" in captured.err


def test_simulate_takes_no_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--tol", "1e-10"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "unrecognized arguments: --tol" in err


def test_bad_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ENTANGLE_TL_SEED", "abc")
    assert main(["verify", "bell"]) == 2
    assert capsys.readouterr().err == "error: ENTANGLE_TL_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("argv", [["verify", "flow"], ["simulate"], ["flow", "--spec", "unread.json"]])
def test_negative_seed_exits_2(capsys, argv):
    # refused by the parser, naming the option, before numpy sees it
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: expected a non-negative integer, got '-5'" in err
    assert err.count("error:") == 1


def test_negative_seed_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("ENTANGLE_TL_SEED", "-5")
    assert main(["verify", "flow"]) == 2
    assert capsys.readouterr().err == "error: ENTANGLE_TL_SEED must be a non-negative integer, got '-5'\n"
    monkeypatch.setenv("ENTANGLE_TL_SEED", "0")
    assert main(["verify", "flow", "--seed", "5"]) == 0


def test_main_builds_one_parser_and_reads_the_seed_each_call(monkeypatch, capsys):
    parsers, parse_args = [], argparse.ArgumentParser.parse_args

    def recording(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    cli.build_parser.cache_clear()
    seeds = []
    for env, argv in (("3", []), ("4", []), ("4", ["--seed", "9"])):
        monkeypatch.setenv("ENTANGLE_TL_SEED", env)
        assert main(["simulate", "--trials", "1", "--format", "json", *argv]) == 0
        seeds.append(json.loads(capsys.readouterr().out)["seed"])
    assert seeds == [3, 4, 9]
    assert len(parsers) == 3 and parsers[0] is parsers[1] is parsers[2]


def test_output_over_size_limit_exits_2(monkeypatch, capsys):
    # the d=2, n=3 decorated idempotents evaluate to 64 entries; with the
    # limit set below that the guard refuses them before allocating
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 63)
    assert main(["verify", "tl", "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exceeds 63" in err and err.count("\n") == 1


def test_strand_product_over_size_limit_exits_2(monkeypatch, capsys):
    # the 3-strand braid relations at d=3 walk 3^3 x 27 entries, the most of
    # the suite; with the limit set below that the guard refuses them before
    # applying a factor
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 3 ** 6 - 1)
    assert main(["verify", "braid", "--d", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: relation on 3^3 x 27 entries exceeds 728\n"
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 3 ** 6)  # relations at the limit are compared
    assert main(["verify", "braid", "--d", "3"]) == 0


def test_weyl_basis_over_size_limit_exits_2(monkeypatch, capsys):
    # the d=2 basis has 2^4 entries; with the limit set below that the guard
    # refuses it before allocating
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 15)
    assert main(["verify", "maxent", "--d", "2"]) == 2
    assert capsys.readouterr().err == "error: Weyl basis of 2^4 entries exceeds 15\n"
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 16)  # a basis at the limit is built
    assert main(["verify", "maxent", "--d", "2"]) == 0


def test_flow_over_size_limit_exits_2_before_any_operator(tmp_path, monkeypatch, capsys):
    # the closed flow's 5^2 output entries exceed a limit of 16: the spec is
    # refused before any of its operators is built, with the evaluator's message
    parsed = []
    monkeypatch.setattr(cli, "_parse_operator", lambda entry, d: parsed.append(entry))
    monkeypatch.setattr(linalg, "MAX_OUTPUT_ENTRIES", 16)
    spec = tmp_path / "flow.json"
    spec.write_text(json.dumps({"d": 5, "operators": ["identity"] * 8}))
    assert main(["flow", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {spec}: output of 5^2 entries exceeds 16\n"
    assert parsed == []
    assert main(["verify", "flow", "--d", "5"]) == 2
    assert capsys.readouterr().err == "error: output of 5^2 entries exceeds 16\n"


@pytest.mark.parametrize("argv", [["verify", "maxent"], ["verify", "teleport"], ["verify", "tight"],
                                  ["verify", "dense"], ["verify", "all"], ["simulate"]])
def test_basis_commands_beyond_limit_exit_2(argv, capsys):
    # 65^4 entries exceed the limit of 2^24: one error line, nothing allocated
    assert main(argv + ["--d", "65"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify", "braid", "--d", "17"],
                                  ["verify", "tl", "--d", "17", "--n", "4"]])
def test_strand_products_beyond_limit_exit_2(argv, capsys):
    # the 3-strand relations walk 17^3 x 17^3 entries, over the limit of 2^24:
    # they are refused before a factor is applied
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: relation on 17^3 x 4913 entries exceeds 16777216\n"


@pytest.mark.parametrize("suite", ["braid", "virtual"])
def test_far_commutation_past_the_old_strand_guard_passes(suite, capsys):
    # far commutativity on 9^4 x 8 probe entries, refused while both words were
    # formed as 9^8-entry products
    assert main(["verify", suite, "--d", "9"]) == 0
    assert capsys.readouterr().out.endswith("checks)\n")


# far-commutation checks at n = 4, where (1, 3) is the only far pair
FAR_CHECKS = {"b1 b3 = b3 b1", "v1 v3 = v3 v1", "b1 v3 = v3 b1", "E_1E_3 = E_3E_1 (dense)",
              "Et_1Et_3 = Et_3Et_1", "E_1 v_3 = v_3 E_1", "E_3 v_1 = v_1 E_3"}


@pytest.mark.parametrize("d", [2, 3])
def test_far_commutation_fails_a_misplaced_factor(monkeypatch, capsys, d):
    # a factor at i >= 2 lands one strand to the left: each far word then
    # meets an overlapping pair, which does not commute
    apply = braid._apply  # the kernel every checked word applies its factors with
    monkeypatch.setattr(braid, "_apply",
                        lambda op, i, n, x, d: apply(op, i - 1 if i >= 2 else i, n, x, d))
    seen = set()
    for suite in ("braid", "virtual", "tl", "brauer"):
        assert main(["verify", suite, "--d", str(d), "--n", "4", "--format", "json"]) == 1
        for check in json.loads(capsys.readouterr().out)["checks"]:
            name = check["identity_name"].split(": ", 1)[1]
            if name in FAR_CHECKS:
                assert not check["pass"], (suite, check)
                seen.add(name)
    decorated = tlalgebra.check_tl_decorated(4, d)[1]  # basis element 2
    for check in decorated.checks:
        if check.identity_name in FAR_CHECKS:
            assert not check.passed, check
            seen.add(check.identity_name)
    assert seen == FAR_CHECKS


@pytest.mark.parametrize("d", [2, 3])
def test_tl_diagrams_fail_a_misplaced_generator(monkeypatch, capsys, d):
    # dg.place puts a pair at i >= 2 one strand to the left: the four diagram lines of
    # the adjacent relations and the far one fail (the decorated diagram, compared on
    # the two strands it touches, i = 1, does not see this mutant)
    place, caches = dg.place, (dg.e_gen, tlalgebra.decorated_e_gen, tlalgebra.closed_flow_diagram)
    monkeypatch.setattr(dg, "place", lambda diag, i, n: place(diag, i - 1 if i >= 2 else i, n))
    for cached in caches:
        cached.cache_clear()
    try:
        assert main(["verify", "tl", "--d", str(d), "--n", "4", "--format", "json"]) == 1
    finally:
        for cached in caches:
            cached.cache_clear()
    failed = [c["identity_name"].split(": ", 1)[1] for c in json.loads(capsys.readouterr().out)["checks"]
              if not c["pass"] and "(diagram" in c["identity_name"]]
    assert len(failed) == 5, failed


@pytest.mark.parametrize("suite", ["tl", "brauer"])
def test_relations_past_the_old_strand_guard_pass(suite, capsys):
    # d^(2n) = 3^18 entries, refused while each relation was formed on all n strands
    assert main(["verify", suite, "--d", "3", "--n", "9"]) == 0
    assert capsys.readouterr().out.endswith("checks)\n")


@pytest.mark.parametrize("suite, n", [("tl", tlalgebra.MAX_STRANDS + 1),
                                      ("brauer", tlalgebra.MAX_STRANDS + 1),
                                      ("all", tlalgebra.MAX_STRANDS + 1), ("braid", 1000), ("flow", 2)])
def test_strand_count_out_of_range_exits_2(suite, n, capsys):
    # refused before any suite runs, also by the suites that never read --n
    t0 = time.perf_counter()
    assert main(["verify", suite, "--n", str(n)]) == 2
    assert time.perf_counter() - t0 < 5
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: strand count needs 3 <= n <= {tlalgebra.MAX_STRANDS}, got {n}\n")


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhaust(suite, cfg):
        raise MemoryError("Unable to allocate 16.0 GiB")
    monkeypatch.setattr(cli, "run_suite", exhaust)
    assert main(["verify", "flow", "--d", "8"]) == 2
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 16.0 GiB\n"


def test_verify_flow_beyond_dense_sizes(capsys):
    # the d^5 x d^5 flow matrix would need 16 GiB at d=8
    assert main(["verify", "flow", "--d", "8"]) == 0
    capsys.readouterr()


def test_render_command_generator(tmp_path, capsys):
    f = tmp_path / "e13.json"
    f.write_text(dg.dumps(dg.e_gen(1, 3)))
    assert main(["render", "--diagram", str(f)]) == 0
    out = capsys.readouterr().out
    assert "\\_" in out and "_/" in out          # cup
    assert "/‾" in out and "‾\\" in out  # cap
    assert "T2" in out and "B2" in out


def test_render_command_crossing(tmp_path, capsys):
    f = tmp_path / "v12.json"
    f.write_text(dg.dumps(dg.v_gen(1, 2)))
    assert main(["render", "--diagram", str(f)]) == 0
    assert "×" in capsys.readouterr().out


def test_render_round_trips_through_json(tmp_path, capsys):
    diag = dg.decorate(dg.e_gen(1, 3), 0, 0, dg.Decoration("U", "dagger"))
    f = tmp_path / "d.json"
    f.write_text(dg.dumps(diag))
    assert main(["render", "--diagram", str(f), "--format", "json"]) == 0
    assert dg.loads(capsys.readouterr().out.strip()) == diag


def test_render_malformed_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"top": 1, "bottom": 0, "strands": [], "loops": [], '
                 '"scalar": {"coeff": [1, 0], "half_power": 0}}')
    assert main(["render", "--diagram", str(f)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("coeff", ["1e400", "NaN"])
def test_render_non_finite_coeff_exits_2(tmp_path, capsys, coeff):
    # json.dumps would print Infinity or NaN back, which is not JSON
    f = tmp_path / "d.json"
    f.write_text(dg.dumps(dg.cup_diagram()).replace('"coeff": [1.0, 0.0]', f'"coeff": [{coeff}, 0.0]'))
    assert main(["render", "--diagram", str(f), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {f}: coeff must be finite") and captured.err.count("\n") == 1


@pytest.mark.parametrize("key, value", [("top", 2.7), ("bottom", "2"), ("top", True),
                                        ("half_power", 0.5)])
def test_render_non_integer_count_exits_2(tmp_path, capsys, key, value):
    # int() would truncate these, and the JSON output would no longer round-trip
    data = dg.to_dict(dg.e_gen(1, 2))
    (data["scalar"] if key == "half_power" else data)[key] = value
    f = tmp_path / "d.json"
    f.write_text(json.dumps(data))
    assert main(["render", "--diagram", str(f), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {f}: {key} must be an integer") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command, flag", [("flow", "--spec"), ("render", "--diagram")])
@pytest.mark.parametrize("content, message", [
    (None, "error: cannot read {}: "),
    (b"{not json\n", "error: {}:1:2: Expecting property name"),
    (b'{"d": "\xe9"}', "error: {}: 'utf-8' codec can't decode byte 0xe9"),
])
def test_unreadable_file_exits_2(tmp_path, capsys, command, flag, content, message):
    f = tmp_path / "input.json"
    if content is not None:
        f.write_bytes(content)
    assert main([command, flag, str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(f)) and captured.err.count("\n") == 1


def test_render_shows_decorations(capsys):
    diag = dg.decorate(dg.e_gen(1, 2), 0, 0, dg.Decoration("U2", "dagger"))
    art = render(diag)
    assert "•U2" in art


def test_teleport_form_lines_do_not_depend_on_the_seed(capsys):
    # the B-matrix and virtual forms are compared as maps of Charlie's qubit,
    # so no ket is drawn and their figures are the same at every seed
    forms = []
    for seed in ("0", "7"):
        assert main(["verify", "teleport", "--d", "2", "--seed", seed]) == 0
        forms.append([line for line in capsys.readouterr().out.splitlines()
                      if "teleport-bell-matrix-form:" in line or "teleport-virtual-form:" in line])
    assert len(forms[0]) == 17 and forms[0] == forms[1]


@pytest.mark.parametrize("argv", [["verify", "teleport", "--d", "3"], ["verify", "all", "--d", "2"]])
def test_tol_below_roundoff_fails_checks_and_exits_1(argv, capsys):
    # --tol bounds the reported checks only: the measurement guard keeps its
    # own bound, so no input is refused
    assert main(argv + ["--tol", "1e-20"]) == 1
    out, err = capsys.readouterr()
    assert "[FAIL]" in out and "error:" not in out + err


OCTUPLE_CHECKS = ("random octuples: evaluate vs closed form",
                  "random octuples: brute-force contraction vs closed form")


def _octuple_verdicts(out, d):
    verdicts = {c["identity_name"]: c["pass"] for c in json.loads(out)["checks"]}
    return [verdicts[f"flow d={d}: {name}"] for name in OCTUPLE_CHECKS]


@pytest.mark.parametrize("d", [2, 8, 32])
def test_verify_flow_fails_a_zero_output(monkeypatch, capsys, d):
    # the closed-form output is about 7e-10 at d = 32: the default bound
    # sees a zero flow, where a 1e-9 floor did not
    apply = tlalgebra.flow_apply
    monkeypatch.setattr(tlalgebra, "flow_apply", lambda ops, phi, d, evaluator=dg.evaluate: apply(
        ops, phi, d, evaluator=lambda diag, d, table: np.zeros((d, d))))
    assert main(["verify", "flow", "--d", str(d), "--format", "json"]) == 1
    assert _octuple_verdicts(capsys.readouterr().out, d) == [False, False]


def test_verify_flow_takes_tol_as_flow_spec_does(tmp_path, capsys):
    rng = np.random.default_rng(1)
    ops = [np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0] for _ in range(8)]
    spec = tmp_path / "flow.json"
    spec.write_text(json.dumps({"d": 2, "operators": [np.stack([u.real, u.imag], -1).tolist() for u in ops]}))
    assert main(["flow", "--spec", str(spec), "--tol", "1e-20"]) == 1
    capsys.readouterr()
    assert main(["verify", "flow", "--d", "2", "--tol", "1e-20", "--format", "json"]) == 1
    assert _octuple_verdicts(capsys.readouterr().out, 2) == [False, False]


@pytest.mark.parametrize("suite", ["flow", "tl"])
def test_flavors_in_the_old_order_fail(monkeypatch, capsys, suite):
    # this order read as index bits turns every dagger into a conjugate; the cached diagrams are
    # built and planned afresh in the right order first, so that in any test order an evaluation
    # plan that kept flavor bits, instead of reading FLAVORS at call time, fails this test
    caches = (tlalgebra.closed_flow_diagram, tlalgebra.decorated_e_gen)
    for cached in caches:
        cached.cache_clear()
    try:
        assert main(["verify", suite, "--d", "3"]) == 0
        capsys.readouterr()
        monkeypatch.setattr(dg, "FLAVORS", ("plain", "transpose", "dagger", "conjugate"))
        assert main(["verify", suite, "--d", "3"]) == 1
    finally:
        for cached in caches:
            cached.cache_clear()
    assert "FAIL" in capsys.readouterr().out


def _swap_layers(layers, a, b):
    """FLOW_LAYERS with the layers labelled a and b exchanged."""
    at = {label: k for k, (label, _) in enumerate(layers)}
    out = list(layers)
    out[at[a]], out[at[b]] = layers[at[b]], layers[at[a]]
    return tuple(out)


@pytest.mark.parametrize("mutate, fails", [
    pytest.param(lambda layers: _swap_layers(layers, "u2", "u5"), 2, id="u2-u5-exchanged"),
    pytest.param(lambda layers: tuple(("u8", 3) if label == "u8" else (label, i) for label, i in layers),
                 3, id="u8-on-strand-3"),
])
def test_flow_layout_mutants_fail(monkeypatch, capsys, mutate, fails):
    tlalgebra.closed_flow_diagram.cache_clear()
    monkeypatch.setattr(tlalgebra, "FLOW_LAYERS", mutate(tlalgebra.FLOW_LAYERS))
    try:
        assert main(["verify", "flow", "--d", "3"]) == 1
    finally:
        tlalgebra.closed_flow_diagram.cache_clear()
    assert capsys.readouterr().out.count("[FAIL]") == fails


def test_flow_layers_on_disjoint_strands_commute(monkeypatch):
    # u1 on strands (1, 2) and u3 on (3, 4): their order does not change the diagram
    flow = tlalgebra.flow_diagram()
    monkeypatch.setattr(tlalgebra, "FLOW_LAYERS", _swap_layers(tlalgebra.FLOW_LAYERS, "u1", "u3"))
    assert tlalgebra.flow_diagram() == flow
