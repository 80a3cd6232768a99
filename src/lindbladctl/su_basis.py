"""Orthonormal Hermitian operator basis and its structure tensors.

The basis consists of the n = N^2 - 1 traceless generalized Gell-Mann
matrices, normalized so that tr(lambda_j lambda_k) = delta_jk, together
with lambda_0 = I/sqrt(N).  Ordering: symmetric off-diagonal matrices
first, then antisymmetric ones, then diagonal ones, each block in
lexicographic index order.  For N = 2 this gives (x, y, z), i.e. the Pauli
matrices divided by sqrt(2).

The antisymmetric structure tensor f and the symmetric tensor d are

    f_jkl = -i tr([lambda_j, lambda_k] lambda_l)
    d_jkl =    tr({lambda_j, lambda_k} lambda_l)

With this normalization f is fully antisymmetric with f_xyz = sqrt(2) at
N = 2, and the anticommutator expands as

    {lambda_j, lambda_k} = (2/sqrt(N)) delta_jk lambda_0 + sum_l d_jkl lambda_l.

The basis stores f; structure_tensors computes d on demand.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .affine import AffineGenerator

__all__ = ["HermitianBasis", "gellmann_basis", "structure_tensors",
           "adjoint_generator"]


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal traceless Hermitian basis for N x N matrices.

    Fields
    ------
    N : Hilbert-space dimension.
    n : number of traceless basis elements, N^2 - 1.
    lambda0 : the normalized identity I/sqrt(N).
    lambdas : tuple of the n traceless basis matrices.
    f : antisymmetric structure tensor of shape (n, n, n).
    """

    N: int
    n: int
    lambda0: np.ndarray
    lambdas: tuple
    f: np.ndarray = field(repr=False)


def _gellmann_matrices(N):
    """The traceless generalized Gell-Mann matrices, unit Frobenius norm."""
    mats = []
    # Symmetric off-diagonal: (E_jk + E_kj)/sqrt(2) for j < k.
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            mats.append(m / np.sqrt(2.0))
    # Antisymmetric off-diagonal: -i(E_jk - E_kj)/sqrt(2) for j < k.
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m / np.sqrt(2.0))
    # Diagonal: diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)).
    for l in range(1, N):
        m = np.zeros((N, N), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        mats.append(m / np.sqrt(l * (l + 1.0)))
    return mats


def _structure_from_matrices(lams):
    """Compute (f, d) from a stacked (n, N, N) array of basis matrices."""
    # t[j, k, l] = tr(lambda_j lambda_k lambda_l) = vec(lambda_j lambda_k) .
    # vec(lambda_l^T): one batched product, then one GEMM.
    n, N = lams.shape[0], lams.shape[1]
    prods = (lams[:, None] @ lams[None]).reshape(n * n, N * N)
    t = (prods @ lams.transpose(0, 2, 1).reshape(n, N * N).T).reshape(n, n, n)
    ts = np.swapaxes(t, 0, 1)
    f = -1.0j * (t - ts)
    d = t + ts
    if np.max(np.abs(f.imag)) > 1e-12 or np.max(np.abs(d.imag)) > 1e-12:
        raise RuntimeError("structure tensors are not real to working precision")
    return np.ascontiguousarray(f.real), np.ascontiguousarray(d.real)


@lru_cache(maxsize=None)
def gellmann_basis(N):
    """Build the orthonormal Hermitian basis for dimension N >= 2.

    The returned object is cached per N; all arrays are read-only.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError("N must be an integer >= 2")
    N = int(N)
    mats = _gellmann_matrices(N)
    stacked = np.array(mats)
    f, _ = _structure_from_matrices(stacked)
    lambda0 = np.eye(N, dtype=complex) / np.sqrt(N)
    for arr in (lambda0, f, *mats):
        arr.flags.writeable = False
    return HermitianBasis(N=N, n=N * N - 1, lambda0=lambda0,
                          lambdas=tuple(mats), f=f)


def structure_tensors(basis):
    """Compute (f, d) from the basis matrices; the only source of d.

    f shares its code with basis.f; the independent checks are the
    commutator and anticommutator expansions in the module docstring.
    """
    return _structure_from_matrices(np.array(basis.lambdas))


def adjoint_generator(basis, h):
    """Coherence-space generator of the unitary flow for H = sum_l h_l lambda_l.

    For rho = sum_k rho_k lambda_k the von Neumann term -i[H, rho] acts on
    the coefficient vector as rho' = G rho with

        G_jk = sum_l h_l f_lkj,

    which is real and antisymmetric.  Returns the corresponding
    AffineGenerator (zero translation).
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (basis.n,):
        raise ValueError("h must be a real vector of length %d" % basis.n)
    linear = np.einsum("l,lkj->jk", h, basis.f)
    return AffineGenerator(linear)
