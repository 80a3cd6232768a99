"""Orthonormal Hermitian operator basis and its structure tensors.

The basis consists of the n = N^2 - 1 traceless generalized Gell-Mann
matrices, normalized so that tr(lambda_j lambda_k) = delta_jk, together
with lambda_0 = I/sqrt(N).  Ordering: symmetric off-diagonal matrices
first, then antisymmetric ones, then diagonal ones, each block in
lexicographic index order.  For N = 2 this gives (x, y, z), i.e. the Pauli
matrices divided by sqrt(2).

The antisymmetric structure tensor f and the symmetric tensor d are

    f_jkl = -i tr([lambda_j, lambda_k] lambda_l) = Im t_jkl - Im t_kjl
    d_jkl =    tr({lambda_j, lambda_k} lambda_l) = Re t_jkl + Re t_kjl

with t_jkl = tr(lambda_j lambda_k lambda_l) = conj t_kjl; the basis never
forms d.  With this normalization f is fully antisymmetric with f_xyz =
sqrt(2) at N = 2, and the anticommutator expands as

    {lambda_j, lambda_k} = (2/sqrt(N)) delta_jk lambda_0 + sum_l d_jkl lambda_l.
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
    lambdas : the n traceless basis matrices, one (n, N, N) array.
    f : antisymmetric structure tensor of shape (n, n, n).
    """

    N: int
    n: int
    lambda0: np.ndarray
    lambdas: np.ndarray
    f: np.ndarray = field(repr=False)


def _gellmann_matrices(N):
    """The traceless Gell-Mann matrices of unit norm, one (n, N, N) array."""
    j, k = np.triu_indices(N, 1)   # j < k in lexicographic order
    p = len(j)
    off = np.arange(p)
    mats = np.zeros((2 * p + N - 1, N, N), dtype=complex)
    # (E_jk + E_kj)/sqrt(2), then -i(E_jk - E_kj)/sqrt(2)
    mats[off, j, k] = mats[off, k, j] = 1.0
    mats[p + off, j, k], mats[p + off, k, j] = -1.0j, 1.0j
    mats[:2 * p] /= np.sqrt(2.0)
    # diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)) for l = 1..N-1
    l, i = np.arange(1, N)[:, None], np.arange(N)
    mats[2 * p:, i, i] = (i < l) - l * (i == l)
    mats[2 * p:] /= np.sqrt(l * (l + 1.0))[:, None]
    return mats


def _triple_traces(lams):
    """(Im t, Re t), t_jkl = tr(lambda_j lambda_k lambda_l); ^T swaps j and k:
    f = Im t - Im t^T, d = Re t + Re t^T, and the basis never forms d."""
    n, N = lams.shape[:2]
    # vec(lambda_j lambda_k) . vec(lambda_l^T): one batched product, one GEMM
    prods = (lams[:, None] @ lams[None]).reshape(n * n, N * N)
    t = (prods @ lams.transpose(0, 2, 1).reshape(n, N * N).T).reshape(n, n, n)
    return t.imag, t.real


def _read(op, half, other):
    """op(half, half^T), once op(other, other^T) vanishes to 1e-12."""
    out = op(other, np.swapaxes(other, 0, 1))
    if np.max(np.abs(out, out=out)) > 1e-12:
        raise RuntimeError("structure tensors are not real to working precision")
    return op(half, np.swapaxes(half, 0, 1), out=out)


@lru_cache(maxsize=None)
def gellmann_basis(N):
    """Build the orthonormal Hermitian basis for dimension N >= 2.

    The returned object is cached per N; all arrays are read-only.
    """
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise ValueError("N must be an integer >= 2")
    N = int(N)
    lambdas = _gellmann_matrices(N)
    f = _read(np.subtract, *_triple_traces(lambdas))
    lambda0 = np.eye(N, dtype=complex) / np.sqrt(N)
    for arr in (lambda0, f, lambdas):
        arr.flags.writeable = False
    return HermitianBasis(N=N, n=N * N - 1, lambda0=lambda0,
                          lambdas=lambdas, f=f)


def structure_tensors(basis):
    """(f, d) read off one triple-trace array; the only source of d.  f shares
    its code with basis.f; the independent checks are the commutator and
    anticommutator expansions in the module docstring."""
    im, re = _triple_traces(basis.lambdas)
    return _read(np.subtract, im, re), _read(np.add, re, im)


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
    return AffineGenerator(np.einsum("l,lkj->jk", h, basis.f))
