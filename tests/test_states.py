"""Coherence vectors: expansion round trips, purity, physicality."""

import numpy as np
import pytest

from lindbladctl import (CoherenceVector, from_coherence, gellmann_basis,
                        is_physical, purity, to_coherence)


def test_expansion_round_trip():
    basis = gellmann_basis(3)
    rng = np.random.default_rng(3)
    b = rng.normal(size=(3, 3)) + 1.0j * rng.normal(size=(3, 3))
    rho = b @ b.conj().T
    rho /= np.trace(rho).real
    v = to_coherence(rho, basis)
    np.testing.assert_allclose(from_coherence(v, basis), rho, atol=1e-12)
    assert purity(v) == pytest.approx(np.trace(rho @ rho).real, abs=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_coherence_maps_match_per_term_loops(N):
    basis = gellmann_basis(N)
    rng = np.random.default_rng(N)
    for _ in range(20):
        b = rng.normal(size=(N, N)) + 1.0j * rng.normal(size=(N, N))
        rho = b @ b.conj().T
        rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
        v = to_coherence(rho, basis)
        np.testing.assert_allclose(
            v.rho, [np.trace(rho @ lam).real for lam in basis.lambdas],
            rtol=0, atol=1e-15)
        mat = v.rho0 * basis.lambda0
        for c, lam in zip(v.rho, basis.lambdas):
            mat = mat + c * lam
        # bit for bit: analyze prints eigenvalues of this matrix to 17 digits
        np.testing.assert_array_equal(from_coherence(v, basis), mat)


def test_rho0_fixed_by_unit_trace():
    v = CoherenceVector(2, np.zeros(3))
    assert v.rho0 == pytest.approx(1.0 / np.sqrt(2.0))
    np.testing.assert_allclose(v.bar, [1.0 / np.sqrt(2.0), 0.0, 0.0, 0.0])
    assert purity(v) == pytest.approx(0.5)   # maximally mixed qubit


def test_pure_state_on_ball_boundary():
    # |0><0| has coherence vector (0, 0, 1/sqrt(2)) and purity 1
    basis = gellmann_basis(2)
    v = to_coherence(np.diag([1.0, 0.0]).astype(complex), basis)
    np.testing.assert_allclose(v.rho, [0.0, 0.0, 1.0 / np.sqrt(2.0)],
                               atol=1e-14)
    assert purity(v) == pytest.approx(1.0)
    assert v.norm() ** 2 == pytest.approx(1.0 - 0.5)


def test_ball_constraint_enforced():
    CoherenceVector(2, [0.7071, 0.0, 0.0])      # just inside
    with pytest.raises(ValueError):
        CoherenceVector(2, [0.8, 0.0, 0.0])     # ||rho||^2 > 1/2
    # explicit tolerance relaxes the check
    CoherenceVector(2, [0.8, 0.0, 0.0], tol=1.0)


def test_non_finite_vector_is_outside_the_ball():
    for rho in ([np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
        with pytest.raises(ValueError, match="outside the ball"):
            CoherenceVector(2, rho)


def test_length_validation():
    with pytest.raises(ValueError):
        CoherenceVector(2, np.zeros(8))
    with pytest.raises(ValueError):
        CoherenceVector(3, np.zeros(3))


def test_to_coherence_validates_hermiticity_and_trace():
    basis = gellmann_basis(2)
    with pytest.raises(ValueError):
        to_coherence(np.array([[0.5, 1e-6], [0.0, 0.5]]), basis)
    with pytest.raises(ValueError):
        to_coherence(np.diag([0.6, 0.5]).astype(complex), basis)


def test_is_physical_two_level_matches_ball():
    # for N=2 ball membership and positivity coincide
    ok, min_eig = is_physical(CoherenceVector(2, [0.4, 0.3, 0.2]))
    assert ok and min_eig > 0.0
    boundary = CoherenceVector(2, [0.0, 0.0, 1.0 / np.sqrt(2.0)])
    ok, min_eig = is_physical(boundary)
    assert ok and abs(min_eig) < 1e-12


def test_is_physical_inside_ball_but_negative_for_qutrit():
    # along the second diagonal direction diag(1,1,-2)/sqrt(6) the ball
    # reaches radius sqrt(2/3) ~ 0.816 but positivity fails beyond 1/sqrt(6)
    rho = np.zeros(8)
    rho[7] = 0.5
    v = CoherenceVector(3, rho)
    ok, min_eig = is_physical(v)
    assert not ok
    assert min_eig == pytest.approx(1.0 / 3.0 - 1.0 / np.sqrt(6.0), abs=1e-12)
    rho = np.zeros(8)
    rho[7] = -0.4
    ok, min_eig = is_physical(CoherenceVector(3, rho))
    assert ok
    assert min_eig == pytest.approx(1.0 / 3.0 - 0.4 / np.sqrt(6.0), abs=1e-12)


def test_immutability():
    v = CoherenceVector(2, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        v.rho[0] = 9.0
    with pytest.raises(AttributeError):
        v.N = 5
