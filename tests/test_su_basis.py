"""Hermitian operator basis: normalization, ordering, structure tensors."""

import tracemalloc

import numpy as np
import pytest

from lindbladctl import (adjoint_generator, gellmann_basis, m_matrix,
                        structure_tensors)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_orthonormal_traceless(N):
    basis = gellmann_basis(N)
    assert basis.n == N * N - 1
    assert len(basis.lambdas) == basis.n
    for j, lam in enumerate(basis.lambdas):
        assert abs(np.trace(lam)) < 1e-14
        np.testing.assert_allclose(lam, lam.conj().T, atol=1e-14)
        for k, mu in enumerate(basis.lambdas):
            expected = 1.0 if j == k else 0.0
            assert abs(np.trace(lam @ mu) - expected) < 1e-13
        # orthogonal to the normalized identity as well
        assert abs(np.trace(basis.lambda0 @ lam)) < 1e-14
    np.testing.assert_allclose(basis.lambda0,
                               np.eye(N) / np.sqrt(N), atol=1e-15)


def test_two_level_basis_is_scaled_pauli_in_xyz_order():
    basis = gellmann_basis(2)
    for lam, sigma in zip(basis.lambdas, (SX, SY, SZ)):
        np.testing.assert_array_equal(lam, sigma / np.sqrt(2.0))


def test_ordering_symmetric_antisymmetric_diagonal():
    basis = gellmann_basis(3)
    # first block: real symmetric, second: imaginary antisymmetric, third: diagonal
    for lam in basis.lambdas[0:3]:
        np.testing.assert_allclose(lam.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(lam, lam.T, atol=1e-15)
    for lam in basis.lambdas[3:6]:
        np.testing.assert_allclose(lam.real, 0.0, atol=1e-15)
    for lam in basis.lambdas[6:8]:
        np.testing.assert_allclose(lam, np.diag(np.diag(lam)), atol=1e-15)
    # lexicographic index order within the symmetric block
    assert basis.lambdas[0][0, 1] == pytest.approx(1.0 / np.sqrt(2.0))
    assert basis.lambdas[1][0, 2] == pytest.approx(1.0 / np.sqrt(2.0))
    assert basis.lambdas[2][1, 2] == pytest.approx(1.0 / np.sqrt(2.0))


def _loop_gellmann(N):
    """The basis matrices built one entry at a time, in the module's order."""
    mats = []
    for entries in (((1.0, 1.0),), ((-1.0j, 1.0j),)):
        for j in range(N):
            for k in range(j + 1, N):
                m = np.zeros((N, N), dtype=complex)
                m[j, k], m[k, j] = entries[0]
                mats.append(m / np.sqrt(2.0))
    for l in range(1, N):
        m = np.zeros((N, N), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        mats.append(m / np.sqrt(l * (l + 1.0)))
    return np.array(mats)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_basis_is_one_read_only_array_equal_to_the_loop_build(N):
    lambdas = gellmann_basis(N).lambdas
    assert lambdas.shape == (N * N - 1, N, N)
    assert not lambdas.flags.writeable
    # same bits, signed zeros included
    assert lambdas.tobytes() == _loop_gellmann(N).tobytes()


def test_structure_constant_f_two_level():
    basis = gellmann_basis(2)
    root2 = np.sqrt(2.0)
    # fully antisymmetric, cyclic value sqrt(2)
    expected = np.zeros((3, 3, 3))
    for (j, k, l), sgn in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                           ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)):
        expected[j, k, l] = sgn * root2
    np.testing.assert_allclose(basis.f, expected, atol=1e-13)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_structure_tensor_symmetries(N):
    basis = gellmann_basis(N)
    f, d = structure_tensors(basis)
    # f fully antisymmetric, d fully symmetric
    np.testing.assert_allclose(f, -np.swapaxes(f, 0, 1), atol=1e-12)
    np.testing.assert_allclose(f, np.moveaxis(f, (0, 1, 2), (1, 2, 0)),
                               atol=1e-12)
    np.testing.assert_allclose(d, np.swapaxes(d, 0, 1), atol=1e-12)
    np.testing.assert_allclose(d, np.moveaxis(d, (0, 1, 2), (1, 2, 0)),
                               atol=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_commutator_and_anticommutator_expansions(N):
    basis = gellmann_basis(N)
    d = structure_tensors(basis)[1]
    rng = np.random.default_rng(N)
    for _ in range(4):
        j, k = rng.integers(0, basis.n, size=2)
        lj, lk = basis.lambdas[j], basis.lambdas[k]
        comm = lj @ lk - lk @ lj
        expansion = 1.0j * sum(basis.f[j, k, l] * basis.lambdas[l]
                               for l in range(basis.n))
        np.testing.assert_allclose(comm, expansion, atol=1e-12)
        anti = lj @ lk + lk @ lj
        expansion = ((2.0 / np.sqrt(N)) * (1.0 if j == k else 0.0)
                     * basis.lambda0
                     + sum(d[j, k, l] * basis.lambdas[l]
                           for l in range(basis.n)))
        np.testing.assert_allclose(anti, expansion, atol=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_structure_tensors_cross_check(N):
    # f and d against their defining traces, entry by entry
    basis = gellmann_basis(N)
    f, d = structure_tensors(basis)
    np.testing.assert_array_equal(f, basis.f)
    lams = basis.lambdas
    for j, k, l in np.ndindex(f.shape):
        prod = lams[j] @ lams[k]
        rev = lams[k] @ lams[j]
        assert f[j, k, l] == pytest.approx(
            (-1.0j * np.trace((prod - rev) @ lams[l])).real, abs=1e-13)
        assert d[j, k, l] == pytest.approx(
            np.trace((prod + rev) @ lams[l]).real, abs=1e-13)


def test_structure_tensor_memory_at_N8():
    # f alone takes n^3 * 8 B = 2.0 MB here.  Both builds peak near 4x
    # that: the complex triple traces (2x) next to the batched products
    # (2x), or next to f and d; forming d in complex arithmetic on the
    # way to f takes 10x
    limit = 5 * 63 ** 3 * 8
    basis = gellmann_basis(8)
    for build in (lambda: gellmann_basis.__wrapped__(8),
                  lambda: structure_tensors(basis)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


def test_basis_cached_and_read_only():
    a = gellmann_basis(3)
    assert gellmann_basis(3) is a
    with pytest.raises(ValueError):
        a.f[0, 0, 0] = 1.0


def test_adjoint_generator_is_skew_with_zero_translation():
    basis = gellmann_basis(3)
    rng = np.random.default_rng(7)
    h = rng.normal(size=basis.n)
    g = adjoint_generator(basis, h)
    np.testing.assert_allclose(g.linear, -g.linear.T, atol=1e-12)
    np.testing.assert_array_equal(g.translation, np.zeros(basis.n))


def test_adjoint_generator_bloch_precession_sign():
    # H = (omega/2) sigma_z, i.e. h = (0, 0, omega/sqrt(2)) in this basis,
    # must give xdot = -omega y, ydot = omega x.
    basis = gellmann_basis(2)
    omega = 1.7
    g = adjoint_generator(basis, np.array([0.0, 0.0, omega / np.sqrt(2.0)]))
    expected = np.array([[0.0, -omega, 0.0],
                         [omega, 0.0, 0.0],
                         [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(g.linear, expected, atol=1e-12)


def test_adjoint_generator_matches_rotation_generators():
    basis = gellmann_basis(2)
    s = 1.0 / np.sqrt(2.0)
    for k in range(3):
        g = adjoint_generator(basis, s * np.eye(3)[k])
        np.testing.assert_allclose(g.homogeneous,
                                   m_matrix(k + 1).homogeneous, atol=1e-12)


def test_adjoint_generator_input_validation():
    basis = gellmann_basis(2)
    with pytest.raises(ValueError):
        adjoint_generator(basis, np.zeros(4))


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError):
        gellmann_basis(1)
