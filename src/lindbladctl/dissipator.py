"""Dissipative part of the master equation in coherence coordinates.

For a Hermitian coefficient matrix A = (a_jk) the dissipator

    D(rho) = (1/2) sum_jk a_jk (2 lambda_j rho lambda_k - {lambda_k lambda_j, rho})

acts on the coherence vector as sum_jk a_jk (L_jk rho + v_jk rho_0) with

    (L_jk)_lr = -(1/4) sum_m [(f_jmr + i d_jmr) f_kml + (f_kmr - i d_kmr) f_jml]
    v_jk      = (i/sqrt(N)) (f_jk1, ..., f_jkn)^T.

assemble_dissipator does not form the L_jk: it computes the linear part as
G_lr = tr(lambda_l D(lambda_r)), with D written once as an N^2 x N^2
supermatrix, in O(N^6) time and O(N^4) memory (the stacked L_jk take
O(N^8)).  The translation is the paper's sum_jk a_jk v_jk, one contraction
against f, which is exactly zero for a real symmetric A.  The L_jk formula
itself is evaluated only by the conjugate-pair self-check
(selfcheck.paper_Ljk), and the tests compare the assembly against it.

L_kj is the entrywise conjugate of L_jk, so the assembled generator is real
whenever A is Hermitian.  A is admissible when it is positive semidefinite;
inadmissible matrices still assemble to a well-defined real generator.
"""

from typing import NamedTuple

import numpy as np

from .affine import AffineGenerator, _negligible
from .states import CoherenceVector

__all__ = ["GksMatrix", "AffineGenerator", "assemble_dissipator",
           "check_psd", "PsdReport", "check_minors_2level", "MinorsReport",
           "two_level_gks", "is_unital", "split_trace", "fixed_point"]

#: Relative tolerance of check_psd's smallest eigenvalue.
PSD_TOL = 1e-10

#: Relative tolerance of check_minors_2level's principal minors.
MINORS_TOL = 1e-12

#: Relative tolerance of is_unital's translation (and of the trace
#: certificate, see liealg.noncontrollability_certificates).
UNITAL_TOL = 1e-12

#: Smallest ratio of extreme singular values for which fixed_point solves.
FIXED_POINT_RCOND = 1e-10


def _scaled_tol(entries):
    """Rounding allowance 1e-12 * max|A| for symmetry checks."""
    return 1e-12 * float(np.max(np.abs(entries), initial=0.0))


class GksMatrix:
    """Hermitian coefficient matrix of the dissipator.

    Parameters
    ----------
    entries : (n, n) array_like, Hermitian to 1e-12 * max|A|.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("GKS matrix must be square")
        if np.max(np.abs(entries - entries.conj().T)) > _scaled_tol(entries):
            raise ValueError("GKS matrix must be Hermitian to "
                             "1e-12 * max|A|")
        entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("GksMatrix is immutable")

    @property
    def n(self):
        return self.entries.shape[0]

    @classmethod
    def from_real_imag(cls, a_real, a_imag):
        """Build from the symmetric real part and antisymmetric imaginary part."""
        a_real = np.asarray(a_real, dtype=float)
        a_imag = np.asarray(a_imag, dtype=float)
        entries = a_real + 1.0j * a_imag
        tol = _scaled_tol(entries)
        if np.max(np.abs(a_real - a_real.T)) > tol:
            raise ValueError("real part must be symmetric to "
                             "1e-12 * max|A|")
        if np.max(np.abs(a_imag + a_imag.T)) > tol:
            raise ValueError("imaginary part must be antisymmetric to "
                             "1e-12 * max|A|")
        return cls(entries)

    def __repr__(self):
        return "GksMatrix(n=%d)" % self.n


def assemble_dissipator(A, basis):
    """Real affine generator sum_jk a_jk (L_jk, v_jk) for Hermitian A.

    A may be a GksMatrix or a plain Hermitian array.  The linear part is
    G_lr = tr(lambda_l D(lambda_r)), with D written as an N^2 x N^2
    Liouville supermatrix acting on row-major vec(X).  A residual imaginary
    part above 1e-12 * max|A| indicates a non-Hermitian input and
    raises ValueError.  The assembly runs on A scaled by the power of two
    that puts max|A| in [1/2, 1), and the generator is scaled back: the
    assembly is linear in A and such scaling is exact, so results are the
    same bits at ordinary scales, and subnormal entries assemble without
    rounding in absolute steps.  Entries so large that the generator or
    its trace (the volume contraction rate) overflows a double raise
    FloatingPointError, without RuntimeWarnings.
    """
    entries = A.entries if isinstance(A, GksMatrix) else np.asarray(A, dtype=complex)
    n, N = basis.n, basis.N
    if entries.shape != (n, n):
        raise ValueError("A must be %d x %d" % (n, n))
    # np.ldexp takes no complex input
    exponent = np.frexp(np.max(np.abs(entries), initial=0.0))[1]
    entries = (np.ldexp(entries.real, -exponent)
               + 1.0j * np.ldexp(entries.imag, -exponent))
    with np.errstate(over="ignore", invalid="ignore"):
        vecs = basis.lambdas.reshape(n, N * N)
        c = (entries @ vecs).reshape(n, N, N)    # c_j = sum_k a_jk lambda_k
        # K = sum_jk a_jk lambda_k lambda_j
        K = np.einsum("jab,jbc->ac", c, basis.lambdas)
        # sum_jk a_jk lambda_j X lambda_k maps X[b, c] to out[a, d] with
        # weight sum_j lambda_j[a, b] c_j[c, d].
        jump = (vecs.T @ c.reshape(n, N * N)).reshape(N, N, N, N)
        eye = np.eye(N)
        sup = (jump.transpose(0, 3, 1, 2).reshape(N * N, N * N)
               - 0.5 * (np.kron(K, eye) + np.kron(eye, K.T)))
        linear = vecs.conj() @ sup @ vecs.T
        # Translation: sum_jk a_jk v_jk = (i/sqrt(N)) sum_jk a_jk f_jkl.
        # Re A and Im A are contracted separately, so f is never copied to
        # complex and a real A gives a translation of exactly zero.
        f = basis.f.reshape(n * n, n)
        translation = (1.0j / np.sqrt(N)) * (
            entries.real.ravel() @ f + 1.0j * (entries.imag.ravel() @ f))
        linear_real = np.ldexp(linear.real, exponent)
        translation_real = np.ldexp(translation.real, exponent)
        trace = np.trace(linear_real)
    if not (np.all(np.isfinite(linear_real))
            and np.all(np.isfinite(translation_real)) and np.isfinite(trace)):
        raise FloatingPointError("the assembled dissipator overflows a "
                                 "double: the GKS entries are too large")
    tol = _scaled_tol(entries)
    if np.max(np.abs(linear.imag)) > tol or np.max(np.abs(translation.imag)) > tol:
        raise ValueError("assembled dissipator has an imaginary part; "
                         "A is not Hermitian to working precision")
    return AffineGenerator(linear_real, translation_real)


class PsdReport(NamedTuple):
    is_psd: bool
    min_eigenvalue: float
    on_boundary: bool


def check_psd(A):
    """Positive-semidefiniteness report for a Hermitian matrix.

    PSD_TOL is relative: the smallest eigenvalue is compared with PSD_TOL
    times the largest |eigenvalue| (see affine._negligible), so the verdict
    does not change with the scale of A.  on_boundary flags a smallest
    eigenvalue that small, i.e. A lies on an exposed face of the PSD cone;
    is_psd holds then or when it is positive.  A zero A is on the boundary.
    """
    entries = A.entries if isinstance(A, GksMatrix) else np.asarray(A, dtype=complex)
    eigs = np.linalg.eigvalsh(entries)
    min_eig = float(eigs[0])
    on_boundary = _negligible(min_eig, np.max(np.abs(eigs)), PSD_TOL)
    return PsdReport(on_boundary or min_eig > 0.0, min_eig, on_boundary)


class MinorsReport(NamedTuple):
    values: dict
    passed: dict
    all_pass: bool


def check_minors_2level(params):
    """Principal-minor inequalities for the two-level GKS matrix.

    params is the sequence (a4, a5, a6, a7, a8, a9, a10, a11, a12)
    parameterizing

        A = [[a10,       a4 + i a5,  a6 + i a7],
             [a4 - i a5, a11,        a8 + i a9],
             [a6 - i a7, a8 - i a9,  a12     ]].

    Evaluates the three 1x1, three 2x2 and one 3x3 principal minors; A is
    positive semidefinite iff all seven are nonnegative.  MINORS_TOL is
    relative, as PSD_TOL is: a minor of degree k passes when it is at least
    -MINORS_TOL * max|a|**k, so the verdict does not change with the scale
    of A.
    """
    a4, a5, a6, a7, a8, a9, a10, a11, a12 = (float(x) for x in params)
    scale = max(abs(a) for a in (a4, a5, a6, a7, a8, a9, a10, a11, a12))
    values = {
        "minor1_xx": a10,
        "minor1_yy": a11,
        "minor1_zz": a12,
        "minor2_xy": a10 * a11 - a4 ** 2 - a5 ** 2,
        "minor2_xz": a10 * a12 - a6 ** 2 - a7 ** 2,
        "minor2_yz": a11 * a12 - a8 ** 2 - a9 ** 2,
        "minor3": (a10 * a11 * a12
                   - a10 * (a8 ** 2 + a9 ** 2)
                   - a11 * (a6 ** 2 + a7 ** 2)
                   - a12 * (a4 ** 2 + a5 ** 2)
                   + 2.0 * a4 * (a6 * a8 + a7 * a9)
                   - 2.0 * a5 * (a6 * a9 - a7 * a8)),
    }
    # the degree of a minor is the digit in its name
    passed = {name: value >= -MINORS_TOL * scale ** int(name[5])
              for name, value in values.items()}
    return MinorsReport(values, passed, all(passed.values()))


def two_level_gks(params):
    """Assemble the 3 x 3 GksMatrix from the nine two-level parameters."""
    a4, a5, a6, a7, a8, a9, a10, a11, a12 = (float(x) for x in params)
    entries = np.array([
        [a10, a4 + 1.0j * a5, a6 + 1.0j * a7],
        [a4 - 1.0j * a5, a11, a8 + 1.0j * a9],
        [a6 - 1.0j * a7, a8 - 1.0j * a9, a12],
    ])
    return GksMatrix(entries)


def is_unital(L):
    """True when the generator has no translation part (fixes the identity).

    UNITAL_TOL is relative: the translation is compared with the whole
    homogeneous generator by affine._negligible, which no scale of the
    rates changes and no entry overflows.  A zero generator is unital."""
    return _negligible(L.translation, L.homogeneous, UNITAL_TOL)


def split_trace(L):
    """Split L into alpha * Ibar + traceless part, Ibar = diag(0, I_n).

    alpha = tr(linear part)/n controls the purity contraction rate of the
    trace-normalized flow.
    """
    n = L.n
    alpha = float(np.trace(L.linear)) / n
    traceless = AffineGenerator(L.linear - alpha * np.eye(n), L.translation)
    return alpha, traceless


def fixed_point(drift):
    """Unique stationary coherence vector of the drift, or None.

    Solves B rho = -b rho0 for the affine drift (B, b).  Returns None when
    the linear part is singular to FIXED_POINT_RCOND (ratio of extreme
    singular values), in which case fixed points are absent or non-unique.
    The returned state is not validated against the ball constraint;
    inadmissible systems can have formal fixed points outside it.
    """
    n = drift.n
    N = int(round(np.sqrt(n + 1)))
    if N * N - 1 != n:
        raise ValueError("generator dimension %d is not N^2 - 1 for integer N" % n)
    s = np.linalg.svd(drift.linear, compute_uv=False)
    if s[0] == 0.0 or s[-1] / s[0] < FIXED_POINT_RCOND:
        return None
    rho0 = 1.0 / np.sqrt(N)
    rho = np.linalg.solve(drift.linear, -rho0 * drift.translation)
    return CoherenceVector(N, rho, tol=float("inf"))
