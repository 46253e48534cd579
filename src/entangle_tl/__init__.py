"""Verification library for the algebra of quantum teleportation: the
entangling Bell matrix, braid and virtual-braid relations, maximally
entangled qudit states, Temperley-Lieb / Brauer diagram calculus, and the
characteristic equations of tight teleportation and dense-coding schemes,
all checkable numerically at any finite dimension."""

from . import braid, diagram, linalg, maxent, qubit, render, report, teleport, tlalgebra
from .linalg import DEFAULT_TOL, approx_eq, is_unitary, kron, max_residual
from .report import CheckResult, VerificationReport

__all__ = [
    "braid",
    "diagram",
    "linalg",
    "maxent",
    "qubit",
    "render",
    "report",
    "teleport",
    "tlalgebra",
    "DEFAULT_TOL",
    "approx_eq",
    "is_unitary",
    "kron",
    "max_residual",
    "CheckResult",
    "VerificationReport",
]

__version__ = "0.1.0"
