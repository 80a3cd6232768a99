"""Affine generators in homogeneous form: construction and bracket algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lindbladctl import AffineGenerator, bracket


def test_homogeneous_layout():
    lin = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = AffineGenerator(lin, [5.0, 6.0])
    assert g.n == 2
    expected = np.array([[0.0, 0.0, 0.0],
                         [5.0, 1.0, 2.0],
                         [6.0, 3.0, 4.0]])
    np.testing.assert_array_equal(g.homogeneous, expected)
    np.testing.assert_array_equal(g.linear, lin)
    np.testing.assert_array_equal(g.translation, [5.0, 6.0])


def test_default_translation_is_zero():
    g = AffineGenerator(np.eye(3))
    np.testing.assert_array_equal(g.translation, np.zeros(3))


def test_from_homogeneous_round_trip():
    lin = np.arange(9.0).reshape(3, 3)
    g = AffineGenerator(lin, [1.0, -1.0, 2.0])
    h = AffineGenerator.from_homogeneous(g.homogeneous)
    np.testing.assert_array_equal(g.homogeneous, h.homogeneous)


def test_from_homogeneous_rejects_nonzero_first_row():
    mat = np.zeros((3, 3))
    mat[0, 1] = 1e-6
    with pytest.raises(ValueError):
        AffineGenerator.from_homogeneous(mat)


def test_immutable():
    g = AffineGenerator(np.eye(2))
    with pytest.raises(AttributeError):
        g.homogeneous = np.zeros((3, 3))
    with pytest.raises(ValueError):
        g.homogeneous[1, 1] = 5.0


def test_arithmetic():
    a = AffineGenerator([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0])
    b = AffineGenerator([[1.0, 0.0], [0.0, -1.0]], [0.0, 2.0])
    s = a + 2.0 * b - b
    np.testing.assert_allclose(s.linear, a.linear + b.linear)
    np.testing.assert_allclose(s.translation, a.translation + b.translation)
    np.testing.assert_allclose((-a).homogeneous, -a.homogeneous)
    assert a.norm() == pytest.approx(np.sqrt(3.0))


def test_bracket_matches_homogeneous_commutator():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = AffineGenerator(rng.normal(size=(4, 4)), rng.normal(size=4))
        b = AffineGenerator(rng.normal(size=(4, 4)), rng.normal(size=4))
        c = bracket(a, b)
        comm = a.homogeneous @ b.homogeneous - b.homogeneous @ a.homogeneous
        np.testing.assert_allclose(c.homogeneous, comm, atol=1e-12)


def test_bracket_component_formula():
    # linear part [A, B], translation part A b - B a
    a = AffineGenerator([[0.0, 2.0], [0.0, 0.0]], [1.0, 3.0])
    b = AffineGenerator([[0.0, 0.0], [1.0, 0.0]], [4.0, 0.0])
    c = bracket(a, b)
    np.testing.assert_allclose(
        c.linear, a.linear @ b.linear - b.linear @ a.linear)
    np.testing.assert_allclose(
        c.translation,
        a.linear @ b.translation - b.linear @ a.translation)


def test_jacobi_identity():
    rng = np.random.default_rng(11)
    a = AffineGenerator(rng.normal(size=(3, 3)), rng.normal(size=3))
    b = AffineGenerator(rng.normal(size=(3, 3)), rng.normal(size=3))
    c = AffineGenerator(rng.normal(size=(3, 3)), rng.normal(size=3))
    total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
    assert total.norm() < 1e-12


@settings(derandomize=True, max_examples=50, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       exponent=st.floats(-4.0, 4.0))
def test_jacobi_identity_property(n, seed, exponent):
    """The Jacobi identity holds for random generators of any size and
    scale, to rounding relative to the product of their norms."""
    rng = np.random.default_rng(seed)
    a, b, c = (AffineGenerator(10.0 ** exponent * rng.normal(size=(n, n)),
                               rng.normal(size=n)) for _ in range(3))
    total = (bracket(a, bracket(b, c)) + bracket(b, bracket(c, a))
             + bracket(c, bracket(a, b)))
    assert total.norm() <= 1e-13 * n * a.norm() * b.norm() * c.norm()


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        bracket(AffineGenerator(np.eye(2)), AffineGenerator(np.eye(3)))
