import pytest

from entangle_tl.report import VerificationReport, validate_report_dict


def test_overall_pass_is_conjunction():
    r = VerificationReport("demo")
    r.add("a", 1e-14, 1e-12)
    r.add("b", 1e-3, 1e-12)
    assert not r.overall_pass
    assert [c.passed for c in r.checks] == [True, False]
    assert r.max_residual == 1e-3


def test_checks_sorted_by_name():
    r = VerificationReport("demo")
    r.add("zeta", 0.0, 1.0)
    r.add("alpha", 0.0, 1.0)
    assert [c.identity_name for c in r.checks] == ["alpha", "zeta"]
    # equal names keep the order they were added in
    r.add("beta", 0.5, 1.0)
    r.add_bool("alpha", False)
    r.add("beta", 0.25, 1.0)
    r.add("alpha", 0.125, 1.0)
    r.add_bool("zeta", True)
    assert [(c.identity_name, c.max_residual) for c in r.checks] == [
        ("alpha", 0.0), ("alpha", float("inf")), ("alpha", 0.125), ("beta", 0.5),
        ("beta", 0.25), ("zeta", 0.0), ("zeta", 0.0)]


def test_tolerance_must_be_positive():
    r = VerificationReport("demo")
    with pytest.raises(ValueError):
        r.add("a", 0.0, 0.0)
    with pytest.raises(ValueError):
        r.add("a", 0.0, -1e-9)
    # nan would fail a zero residual and inf pass any residual
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            r.add("a", 0.0, tol)
    assert r.checks == []


def test_to_dict_validates():
    r = VerificationReport("demo")
    r.add("a", 1e-14, 1e-12)
    validate_report_dict(r.to_dict())


@pytest.mark.parametrize("broken", [
    {},
    {"suite_name": 3, "checks": [], "overall_pass": True},
    {"suite_name": "s", "checks": {}, "overall_pass": True},
    {"suite_name": "s", "checks": [{"identity_name": "x"}], "overall_pass": True},
    {"suite_name": "s", "checks": [], "overall_pass": "yes"},
    {"suite_name": "s", "checks": [{"identity_name": "x", "max_residual": True, "pass": True}],
     "overall_pass": True},
    {"suite_name": "s", "checks": [{"identity_name": "x", "max_residual": 0.0, "pass": 1}],
     "overall_pass": True},
])
def test_validate_rejects_malformed(broken):
    with pytest.raises(ValueError):
        validate_report_dict(broken)
