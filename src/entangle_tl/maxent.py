"""Maximally entangled qudit states, the trace-orthonormal unitary basis,
slide/trace identities and transfer composition.

The unitary basis is the clock-and-shift family U = X^a Z^b with
X|j> = |j+1 mod d> and Z|j> = exp(2 pi i j / d)|j>, ordered so (a, b) = (0, 0)
comes first.  It is trace-orthogonal, tr(U_n^dag U_m) = d delta_nm, for every
d; any other basis with that property works too and can be passed anywhere a
WeylBasis is accepted.  A WeylBasis holds its unitaries as one read-only
(d^2, d, d) array, and the kets |Omega_n> are the rows of one d^2 x d^2 array
(omega_kets), so every identity over the basis is one batched contraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, DimensionError, identity
from .report import VerificationReport


def omega(d: int) -> np.ndarray:
    """(1/sqrt(d)) sum_i |i i>."""
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    return identity(d).reshape(-1) / math.sqrt(d)


def omega_projector(d: int) -> np.ndarray:
    """|Omega><Omega| as a d^2 x d^2 matrix."""
    w = omega(d)
    return np.outer(w, w.conj())


def clock(d: int) -> np.ndarray:
    """Z with Z|j> = exp(2 pi i j / d)|j>."""
    phases = np.exp(2j * np.pi * np.arange(d) / d)
    return np.diag(phases).astype(np.complex128)


def shift(d: int) -> np.ndarray:
    """X with X|j> = |j+1 mod d>."""
    return np.roll(identity(d), 1, axis=0)


def _identity_residual(g: np.ndarray, scale: float = 1.0) -> float:
    """max|g - scale 1| of a square matrix, formed in g itself; nan stays nan."""
    g[np.diag_indices(len(g))] -= scale
    return float(np.abs(g, out=g).real.max())


@dataclass(frozen=True)
class WeylBasis:
    """d^2 unitaries with U_1 = 1 and tr(U_n^dag U_m) = d delta_nm, held as
    one read-only (d^2, d, d) array whose entry n - 1 is U_n."""

    d: int
    unitaries: np.ndarray

    def __post_init__(self):
        d = self.d
        if d < 1:
            raise DimensionError("dimension must be >= 1")
        mats = np.array(self.unitaries, dtype=np.complex128)  # a copy, so the caller's stays writable
        if mats.shape != (d * d, d, d):
            raise DimensionError(f"need {d * d} unitaries of shape {d}x{d}, got an array of shape {mats.shape}")
        bad = linalg.non_unitary(mats)
        if bad.size:
            raise ValueError(f"U_{bad[0] + 1} is not unitary")
        if linalg.max_residual(mats[0], identity(d)) > 1e-12:
            raise ValueError("U_1 must be the identity")
        flat = mats.reshape(d * d, d * d)
        gram = flat.conj() @ flat.T  # tr(U_n^dag U_m) for all n, m, less d 1 in place
        if not _identity_residual(gram, d) <= 1e-9:
            raise ValueError("basis is not trace-orthogonal")
        mats.setflags(write=False)
        object.__setattr__(self, "unitaries", mats)

    def unitary(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.d ** 2:
            raise ValueError(f"index {n} out of range 1..{self.d ** 2}")
        return self.unitaries[n - 1]


def weyl_basis(d: int) -> WeylBasis:
    """Clock-and-shift basis {X^a Z^b : 0 <= a, b < d}, (0,0) first; its d^4
    entries obey the output limit."""
    linalg.within_limit(d ** 4, f"Weyl basis of {d}^4")
    x, z = shift(d), clock(d)
    mats = []
    xa = identity(d)
    for a in range(d):
        zb = identity(d)
        for b in range(d):
            mats.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return WeylBasis(d, mats)


def pauli_weyl_basis() -> WeylBasis:
    """The d=2 set {1, s1, i s2, s3} used throughout the qubit discussion."""
    from .qubit import pauli

    return WeylBasis(2, (pauli(0), pauli(1), 1j * pauli(2), pauli(3)))


def resolve_basis(d: int, basis: WeylBasis | None) -> WeylBasis:
    """basis, or weyl_basis(d) when it is None; refused when its dimension is not d."""
    basis = basis if basis is not None else weyl_basis(d)
    if basis.d != d:
        raise DimensionError("basis dimension mismatch")
    return basis


def omega_n(d: int, n: int, basis: WeylBasis | None = None) -> np.ndarray:
    """|Omega_n> = (U_n x 1)|Omega>."""
    return phi_of(resolve_basis(d, basis).unitary(n), d)


def phi_of(u, d: int) -> np.ndarray:
    """(U x 1)|Omega>, which is vec(U)/sqrt(d) with U read row by row."""
    return linalg.as_operator(u, d, "operator").reshape(-1) / math.sqrt(d)


def slide_identity_check(m, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """(M x 1)|Omega> = (1 x M^T)|Omega>."""
    m = linalg.as_operator(m, d, "operator")
    report = VerificationReport("slide-identity")
    left = linalg.kron(m, identity(d)) @ omega(d)
    right = linalg.kron(identity(d), m.T) @ omega(d)
    report.add("(M x 1)|Omega> = (1 x M^T)|Omega>", linalg.max_residual(left, right), tol)
    return report


def trace_identities_check(m, mp, n1, n2, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """tr(M^dag M') = d <psi|psi'> and <psi|N1 x N2|psi'> = (1/d) tr(M^dag N1 M' N2^T)."""
    m, mp, n1, n2 = (linalg.as_operator(a, d, name)
                     for a, name in ((m, "M"), (mp, "M'"), (n1, "N1"), (n2, "N2")))
    report = VerificationReport("trace-identities")
    psi = phi_of(m, d)
    psi_p = phi_of(mp, d)
    lhs = np.trace(m.conj().T @ mp)
    report.add("tr(M^dag M') = d <psi|psi'>", abs(lhs - d * linalg.inner(psi, psi_p)), tol)
    sandwiched = linalg.inner(psi, linalg.kron(n1, n2) @ psi_p)
    rhs = np.trace(m.conj().T @ n1 @ mp @ n2.T) / d
    report.add("<psi|N1 x N2|psi'> = tr(M^dag N1 M' N2^T)/d", abs(sandwiched - rhs), tol)
    return report


def partial_inner_ca_ab(bra_ca, ket_ab, d: int) -> np.ndarray:
    """Contract <chi|_CA with |xi>_AB over the shared system A.

    Returns the resulting Charlie-to-Bob map as a d x d matrix R with
    R[b, c] = sum_a conj(chi[c, a]) xi[a, b].
    """
    chi = linalg.as_vector(bra_ca).reshape(d, d)
    xi = linalg.as_vector(ket_ab).reshape(d, d)
    return np.einsum("ca,ab->bc", chi.conj(), xi)


def transfer_composition(u, v, d: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """<Phi(U)|_CA |Phi(V^T)>_AB = (1/d) (V U^dag) composed with the transfer map."""
    u, v = linalg.as_operator(u, d, "operators"), linalg.as_operator(v, d, "operators")
    if not (linalg.is_unitary(u, tol=1e-9) and linalg.is_unitary(v, tol=1e-9)):
        raise ValueError("transfer composition expects unitary operators")
    report = VerificationReport("transfer-composition")
    got = partial_inner_ca_ab(phi_of(u, d), phi_of(v.T, d), d)
    expected = (v @ u.conj().T) / d
    report.add("<Phi(U)|Phi(V^T)> = (V U^dag) T / d", linalg.max_residual(got, expected), tol)
    if linalg.approx_eq(u, v, 1e-14):
        report.add("U=V special case = T/d", linalg.max_residual(got, identity(d) / d), tol)
    return report


def omega_kets(d: int, basis: WeylBasis | None = None) -> np.ndarray:
    """Every |Omega_n> = (U_n x 1)|Omega> at once: row n - 1 of the d^2 x d^2
    array K is vec(U_n)/sqrt(d), as phi_of gives it."""
    return resolve_basis(d, basis).unitaries.reshape(d * d, d * d) / math.sqrt(d)


def completeness_check(d: int, basis: WeylBasis | None = None, tol: float = DEFAULT_TOL) -> VerificationReport:
    """<Omega_n|Omega_m> = delta_nm and sum_n |Omega_n><Omega_n| = identity
    as K K^dag and K^T K^*, with the ket |Omega_n> as row n of K.

    The completeness sum lives on the d^2-dimensional bipartite space (the
    only dimensionally consistent reading of the orthogonality relation).
    """
    kets = omega_kets(d, basis)
    report = VerificationReport("maxent-completeness")
    report.add("<Omega_n|Omega_m> = delta_nm", _identity_residual(kets @ kets.conj().T), tol)
    report.add("sum_n omega_n = 1", _identity_residual(kets.T @ kets.conj()), tol)
    return report
