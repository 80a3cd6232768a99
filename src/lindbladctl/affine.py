"""Affine generators on the coherence space in homogeneous coordinates.

An affine vector field x -> B x + b x0 (with x0 a fixed real constant) is
represented by the (n+1) x (n+1) real matrix

    [ 0  0 ]
    [ b  B ]

acting on the homogeneous state [x0, x]^T.  The first row is identically
zero, so the flow never changes x0.  The commutator of two such matrices is
again of this form, which is what makes the Lie-closure machinery work on
plain matrices.
"""

import numpy as np

__all__ = ["AffineGenerator", "bracket"]


class AffineGenerator:
    """A real affine generator stored in homogeneous (n+1) x (n+1) form.

    Parameters
    ----------
    linear : (n, n) array_like of reals
        The linear part B.
    translation : (n,) array_like of reals, optional
        The translation part b.  Defaults to zero.
    """

    __slots__ = ("homogeneous",)

    def __init__(self, linear, translation=None):
        linear = np.asarray(linear, dtype=float)
        if linear.ndim != 2 or linear.shape[0] != linear.shape[1]:
            raise ValueError("linear part must be a square matrix")
        n = linear.shape[0]
        if translation is None:
            translation = np.zeros(n)
        translation = np.asarray(translation, dtype=float)
        if translation.shape != (n,):
            raise ValueError("translation must be a vector of length %d" % n)
        mat = np.zeros((n + 1, n + 1))
        mat[1:, 1:] = linear
        mat[1:, 0] = translation
        mat.flags.writeable = False
        object.__setattr__(self, "homogeneous", mat)

    def __setattr__(self, name, value):
        raise AttributeError("AffineGenerator is immutable")

    @classmethod
    def from_homogeneous(cls, mat, tol=1e-12):
        """Build from an (n+1) x (n+1) matrix whose first row vanishes."""
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise ValueError("homogeneous form must be a square matrix of size >= 2")
        if np.max(np.abs(mat[0, :])) > tol:
            raise ValueError("first row of a homogeneous affine generator must be zero")
        return cls(mat[1:, 1:], mat[1:, 0])

    @classmethod
    def zero(cls, n):
        return cls(np.zeros((n, n)))

    @property
    def n(self):
        return self.homogeneous.shape[0] - 1

    @property
    def linear(self):
        return self.homogeneous[1:, 1:]

    @property
    def translation(self):
        return self.homogeneous[1:, 0]

    def norm(self):
        """Frobenius norm of the homogeneous form, taken on its
        _pow2_scaled entries and scaled back; inf only when the norm itself
        exceeds the largest double."""
        exponent = np.frexp(np.max(np.abs(self.homogeneous)))[1]
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.norm(
                np.ldexp(self.homogeneous, -exponent)), exponent))

    def is_zero(self, tol=1e-12):
        return np.max(np.abs(self.homogeneous)) <= tol

    def bracket(self, other):
        return bracket(self, other)

    def __add__(self, other):
        self._check_compatible(other)
        return AffineGenerator(self.linear + other.linear,
                               self.translation + other.translation)

    def __sub__(self, other):
        self._check_compatible(other)
        return AffineGenerator(self.linear - other.linear,
                               self.translation - other.translation)

    def __neg__(self):
        return AffineGenerator(-self.linear, -self.translation)

    def __mul__(self, c):
        c = float(c)
        return AffineGenerator(c * self.linear, c * self.translation)

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if not isinstance(other, AffineGenerator):
            raise TypeError("expected an AffineGenerator")
        if other.n != self.n:
            raise ValueError("dimension mismatch: %d vs %d" % (self.n, other.n))

    def __repr__(self):
        return "AffineGenerator(n=%d, linear=%r, translation=%r)" % (
            self.n, self.linear.tolist(), self.translation.tolist())


def _pow2_scaled(x, axis=None):
    """x times the power of two that puts its largest |entry| in [1/2, 1).

    With axis, each slice along it gets its own power.  Scaling by a power
    of two is exact (short of subnormals), so norms and their ratios taken
    afterwards neither overflow nor underflow in the squares, and at
    ordinary scales they compare exactly as the unscaled ones do.  A zero
    or non-finite slice is left as it is.
    """
    x = np.asarray(x, dtype=float)
    big = np.max(np.abs(x), axis=axis, keepdims=True, initial=0.0)
    return np.ldexp(x, -np.frexp(big)[1])


def _negligible(part, whole, tol):
    """True when |part| <= tol * |whole| in the Frobenius norm.

    Both sides are scaled first by the power of two that _pow2_scaled
    gives whole, which is exact, so the test neither overflows nor
    underflows and reads the same at every scale of the rates.  Against a
    zero whole only a zero part is negligible.
    """
    exponent = np.frexp(np.max(np.abs(whole), initial=0.0))[1]
    return bool(np.linalg.norm(np.ldexp(part, -exponent))
                <= tol * np.linalg.norm(np.ldexp(whole, -exponent)))


def bracket(x, y):
    """Lie bracket of two affine generators.

    In homogeneous form this is the plain matrix commutator; explicitly the
    linear part is [X, Y] and the translation part is X b_Y - Y b_X.
    """
    x._check_compatible(y)
    return AffineGenerator(
        x.linear @ y.linear - y.linear @ x.linear,
        x.linear @ y.translation - y.linear @ x.translation,
    )
