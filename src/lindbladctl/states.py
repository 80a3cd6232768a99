"""Density matrices as coherence vectors.

A density matrix rho on C^N expands as

    rho = rho_0 lambda_0 + sum_j rho_j lambda_j,

with rho_0 = 1/sqrt(N) fixed by unit trace.  The real coefficient vector
rho = (rho_1, ..., rho_n) lives in the closed ball ||rho||^2 <= 1 - 1/N,
and tr(rho^2) = 1/N + ||rho||^2.  The homogeneous vector (rho_0, rho) has
squared norm equal to the purity.
"""

from typing import NamedTuple

import numpy as np

from .su_basis import gellmann_basis

__all__ = ["CoherenceVector", "to_coherence", "from_coherence", "purity",
           "is_physical", "PhysicalityReport"]

BALL_TOL = 1e-9

#: How far below zero is_physical lets the smallest eigenvalue go.
PHYSICALITY_TOL = 1e-9

#: Largest |tr(rho^2) - 1| at which a fixed point reads as a pure state.
UNIT_PURITY_TOL = 1e-9


class CoherenceVector:
    """Coherence-vector representation of a unit-trace Hermitian matrix.

    Parameters
    ----------
    N : Hilbert-space dimension.
    rho : real vector of length N^2 - 1.
    tol : slack allowed on the ball constraint ||rho||^2 <= 1 - 1/N.
    """

    __slots__ = ("N", "rho")

    def __init__(self, N, rho, tol=BALL_TOL):
        N = int(N)
        if N < 2:
            raise ValueError("N must be >= 2")
        rho = np.asarray(rho, dtype=float)
        n = N * N - 1
        if rho.shape != (n,):
            raise ValueError("rho must have length %d for N=%d" % (n, N))
        excess = float(rho @ rho) - (1.0 - 1.0 / N)
        if not excess <= tol:
            raise ValueError(
                "coherence vector lies outside the ball: ||rho||^2 exceeds "
                "1 - 1/N by %.3e" % excess)
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "rho", rho)

    def __setattr__(self, name, value):
        raise AttributeError("CoherenceVector is immutable")

    @property
    def n(self):
        return self.N * self.N - 1

    @property
    def rho0(self):
        """The fixed homogeneous coordinate, 1/sqrt(N)."""
        return 1.0 / np.sqrt(self.N)

    @property
    def bar(self):
        """Homogeneous vector (rho0, rho_1, ..., rho_n)."""
        return np.concatenate(([self.rho0], self.rho))

    def norm(self):
        return float(np.linalg.norm(self.rho))

    def __repr__(self):
        return "CoherenceVector(N=%d, rho=%r)" % (self.N, self.rho.tolist())


def to_coherence(rho_matrix, basis):
    """Expand a density matrix in the Hermitian basis.

    The input must be Hermitian to 1e-10 and have unit trace to 1e-10;
    positivity is not required here (see is_physical).
    """
    rho_matrix = np.asarray(rho_matrix, dtype=complex)
    N = basis.N
    if rho_matrix.shape != (N, N):
        raise ValueError("matrix must be %d x %d" % (N, N))
    if np.max(np.abs(rho_matrix - rho_matrix.conj().T)) > 1e-10:
        raise ValueError("matrix is not Hermitian to 1e-10")
    if abs(np.trace(rho_matrix).real - 1.0) > 1e-10 or abs(np.trace(rho_matrix).imag) > 1e-10:
        raise ValueError("matrix trace must equal 1 to 1e-10")
    # tr(rho lambda_j) = sum_ab rho_ab (lambda_j)_ba for every j at once
    coeffs = np.einsum("ab,jba->j", rho_matrix, basis.lambdas).real
    return CoherenceVector(N, coeffs)


def from_coherence(v, basis):
    """Reconstruct the N x N matrix rho0 lambda_0 + sum_j rho_j lambda_j."""
    if basis.N != v.N:
        raise ValueError("basis dimension %d does not match state dimension %d"
                         % (basis.N, v.N))
    # The leading-axis sum adds the terms in index order, bit-identical to
    # a term-by-term loop (analyze prints an eigenvalue to 17 digits).
    terms = np.concatenate([(v.rho0 * basis.lambda0)[None],
                            v.rho[:, None, None] * basis.lambdas])
    return terms.sum(axis=0)


def purity(v):
    """tr(rho^2) = 1/N + ||rho||^2, equal to the squared homogeneous norm."""
    return 1.0 / v.N + float(v.rho @ v.rho)


class PhysicalityReport(NamedTuple):
    is_physical: bool
    min_eigenvalue: float


def is_physical(v):
    """Check positive semidefiniteness of the reconstructed matrix.

    Returns a (is_physical, min_eigenvalue) pair; the state is physical when
    the smallest eigenvalue is >= -PHYSICALITY_TOL.  Ball membership alone
    does not guarantee this for N > 2.
    """
    basis = gellmann_basis(v.N)
    eigs = np.linalg.eigvalsh(from_coherence(v, basis))
    min_eig = float(eigs[0])
    return PhysicalityReport(min_eig >= -PHYSICALITY_TOL, min_eig)
