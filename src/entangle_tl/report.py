"""Structured pass/fail reports shared by every verification suite."""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    identity_name: str
    max_residual: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "max_residual": self.max_residual,
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    """Outcome of one verification suite.

    ``overall_pass`` is the conjunction of the individual check results;
    checks are kept in sorted order by name so report assembly is
    deterministic regardless of execution order.
    """

    suite_name: str
    checks: list[CheckResult] = field(default_factory=list)
    details: list[Callable[[], Iterable[str]]] = field(default_factory=list)

    def add(self, identity_name: str, max_residual: float, tol: float) -> CheckResult:
        if not 0 < tol < float("inf"):  # nan would fail every check and inf pass every one
            raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
        return self._insert(CheckResult(identity_name, float(max_residual), float(max_residual) <= tol))

    def add_bool(self, identity_name: str, ok: bool) -> CheckResult:
        # For yes/no checks with no meaningful residual (residual 0 or inf).
        return self._insert(CheckResult(identity_name, 0.0 if ok else float("inf"), bool(ok)))

    def _insert(self, result: CheckResult) -> CheckResult:
        # after any equal names, so those keep their insertion order
        bisect.insort(self.checks, result, key=lambda c: c.identity_name)
        return result

    def note(self, lines: Callable[[], Iterable[str]]) -> None:
        self.details.append(lines)  # a function giving lines, called by lines() only

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        finite = [c.max_residual for c in self.checks if c.max_residual != float("inf")]
        return max(finite) if finite else 0.0

    def to_dict(self) -> dict:
        return {
            "suite_name": self.suite_name,
            "checks": [c.to_dict() for c in self.checks],
            "overall_pass": self.overall_pass,
        }

    def lines(self) -> Iterator[str]:
        """The text report one line at a time, a detail function's lines as it gives them."""
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield f"  [{status}] {c.identity_name}  residual={c.max_residual:.3e}"
        for d in self.details:
            yield from ("  " + line for line in d())
        verdict = "pass" if self.overall_pass else "FAIL"
        yield f"suite {self.suite_name}: {verdict} ({len(self.checks)} checks)"

    def to_text(self) -> str:
        return "\n".join(self.lines())


# Shape of VerificationReport.to_dict(), published so scripts can validate
# reports without importing this package.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["suite_name", "checks", "overall_pass"],
    "properties": {
        "suite_name": {"type": "string"},
        "overall_pass": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["identity_name", "max_residual", "pass"],
                "properties": {
                    "identity_name": {"type": "string"},
                    "max_residual": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
               "number": (int, float)}


def _validate(value, schema: dict, where: str) -> None:
    kind = schema["type"]
    # bool is an int subclass, but true is not a JSON number
    if not isinstance(value, _JSON_TYPES[kind]) or (kind == "number" and isinstance(value, bool)):
        raise ValueError(f"{where} must be of type {kind}")
    for key in schema.get("required", ()):
        if key not in value:
            raise ValueError(f"{where} missing key {key!r}")
    for key, sub in schema.get("properties", {}).items():
        if key in value:
            _validate(value[key], sub, key)
    if "items" in schema:
        for item in value:
            _validate(item, schema["items"], f"{where} entry")


def validate_report_dict(data: dict) -> None:
    """Structural validation against REPORT_SCHEMA; raises ValueError."""
    _validate(data, REPORT_SCHEMA, "report")
