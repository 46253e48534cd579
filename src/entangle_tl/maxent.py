"""Maximally entangled qudit states, the trace-orthonormal unitary basis,
slide/trace identities and transfer composition.

The unitary basis is the clock-and-shift family U = X^a Z^b with
X|j> = |j+1 mod d> and Z|j> = exp(2 pi i j / d)|j>, ordered so (a, b) = (0, 0)
comes first.  It is trace-orthogonal, tr(U_n^dag U_m) = d delta_nm, for every
d; any other basis with that property works too and can be passed anywhere a
WeylBasis is accepted.  A WeylBasis holds its unitaries as one read-only
(d^2, d, d) array, and the kets |Omega_n> are the rows of one d^2 x d^2 array
(omega_kets), so every identity over the basis is one batched contraction.
A basis built by shift_and_multiply from Werner's tables, the Weyl basis too, is
checked by its tables in O(d^3); one given as unitaries by its d^6 Gram.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, GUARD_TOL, DimensionError, identity
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
        if not _identity_residual(gram, d) <= GUARD_TOL:
            raise ValueError("basis is not trace-orthogonal")
        mats.setflags(write=False)
        object.__setattr__(self, "unitaries", mats)

    def unitary(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.d ** 2:
            raise ValueError(f"index {n} out of range 1..{self.d ** 2}")
        return self.unitaries[n - 1]


def shift_and_multiply(h, latin) -> WeylBasis:
    """The basis U_(j d + i + 1)|k> = h[i, k] |latin[j, k]> (Werner, J. Phys. A 34, 7081 (2001)): unitary and
    trace-orthogonal exactly when every |h_ik| = 1, h h^dag = d 1 and latin is a Latin square, each checked here."""
    h, latin = linalg.as_matrix(h), np.asarray(latin)
    d, ks = len(h), np.arange(len(h))
    if d < 1 or h.shape != (d, d) or latin.shape != (d, d):
        raise DimensionError(f"h and latin must be d x d with d >= 1, got {h.shape} and {latin.shape}")
    linalg.within_limit(d ** 4, f"Weyl basis of {d}^4")  # the scatter's entries
    if not (latin.dtype.kind in "iu" and (np.sort(latin, 0) == ks[:, None]).all() and (np.sort(latin, 1) == ks).all()):
        raise ValueError("latin is not a Latin square: a row or column repeats an entry")
    if not (np.abs(np.abs(h) ** 2 - 1) <= GUARD_TOL).all():
        raise ValueError("h has an entry off the unit circle")
    if not _identity_residual(h @ h.conj().T, d) <= GUARD_TOL:
        raise ValueError("h h^dag is not d 1: the rows of h are not orthogonal")
    if not ((np.abs(h[0] - 1) <= 1e-12).all() and (latin[0] == ks).all()):
        raise ValueError("U_1 is not the identity: h[0] must be all ones and latin[0] 0..d-1")
    return _scatter(h, latin)


def _scatter(h: np.ndarray, latin: np.ndarray) -> WeylBasis:
    """The basis of tables shift_and_multiply checked, its unitaries formed by one scatter."""
    d, ks = len(h), np.arange(len(h))
    mats = np.zeros((d, d, d, d), dtype=np.complex128)
    mats[ks[:, None, None], ks[:, None], latin[:, None, :], ks] = h  # U_(j d + i + 1)[latin[j, k], k] = h[i, k]
    mats.setflags(write=False)
    basis = object.__new__(WeylBasis)  # checked by its tables, so not by __post_init__
    basis.__dict__.update(d=d, unitaries=mats.reshape(d * d, d, d))
    return basis


def weyl_basis(d: int) -> WeylBasis:
    """Clock-and-shift basis {X^a Z^b : 0 <= a, b < d}, (0,0) first, within the output limit: the cyclic square
    a + k mod d, h's row b the diagonal of Z^b by repeated products, so each entry has the bits of X^a Z^b."""
    linalg.within_limit(d ** 4, f"Weyl basis of {d}^4")
    powers = itertools.accumulate([clock(d)] * (d - 1), np.matmul, initial=identity(d))  # Z^b = Z^(b-1) Z
    return shift_and_multiply(np.diagonal(list(powers), axis1=1, axis2=2), np.add.outer(range(d), range(d)) % d)


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
    u, v = linalg.as_operators([u, v], d, ("U", "V"), unitary=True)
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
