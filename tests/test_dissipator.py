"""Dissipator assembly against the density-matrix oracle and known channels."""

import itertools
import tracemalloc

import numpy as np
import pytest

from _oracles import naive_Ljk, random_hermitian, random_psd, superoperator_generator
from lindbladctl import (AffineGenerator, GksMatrix, adjoint_generator,
                        assemble_dissipator, check_minors_2level, check_psd,
                        fixed_point, gellmann_basis, is_unital, m_matrix,
                        purity, split_trace, two_level_gks)
from lindbladctl.selfcheck import paper_Ljk


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_assembly_matches_density_matrix_oracle(N):
    """The key consistency check: coefficient-space assembly equals the
    generator obtained by probing the density-matrix master equation."""
    basis = gellmann_basis(N)
    rng = np.random.default_rng(100 + N)
    for _ in range(3):
        h = rng.normal(size=basis.n)
        A = random_hermitian(rng, basis.n)
        left = (adjoint_generator(basis, h)
                + assemble_dissipator(GksMatrix(A), basis)).homogeneous
        right = superoperator_generator(h, A, basis)
        np.testing.assert_allclose(left, right, atol=1e-12)
        assert np.max(np.abs(right[0, :])) < 1e-12  # trace preserved


def test_paper_Ljk_against_naive_loops():
    basis = gellmann_basis(3)
    L = paper_Ljk(basis)
    for j, k in ((1, 1), (1, 2), (2, 5), (4, 7), (8, 3)):
        np.testing.assert_allclose(L[j - 1, k - 1], naive_Ljk(basis, j, k),
                                   atol=1e-12)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_conjugate_pair_symmetry(N):
    """L_kj = conj(L_jk) on the loop oracle, which sums the two terms of
    each pair in its own order (paper_Ljk is symmetric by construction)."""
    basis = gellmann_basis(N)
    for j in range(1, basis.n + 1):
        for k in range(j, basis.n + 1):
            np.testing.assert_allclose(naive_Ljk(basis, k, j),
                                       naive_Ljk(basis, j, k).conj(),
                                       atol=1e-13)


def test_pairwise_real_form_equals_full_sum():
    # the paper's formula: summing L_jk and v_jk = (i/sqrt(N)) f_jk over
    # j <= k with the conjugate pair folded in, (2 - delta_jk) Re(a_jk)
    # Re(L_jk) parts plus the imaginary cross terms, reproduces the
    # assembled generator
    for N in (2, 3, 4, 5):
        basis = gellmann_basis(N)
        rng = np.random.default_rng(42)
        A = random_hermitian(rng, basis.n)
        full = assemble_dissipator(GksMatrix(A), basis)
        n = basis.n
        paper_L = paper_Ljk(basis)
        acc = AffineGenerator.zero(n)
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                L = paper_L[j - 1, k - 1]
                v = (1.0j / np.sqrt(N)) * basis.f[j - 1, k - 1]
                weight = 1.0 if j == k else 2.0
                re = AffineGenerator(L.real, np.zeros(n))
                acc = acc + weight * A[j - 1, k - 1].real * re
                if j != k:
                    im = AffineGenerator(-L.imag, (1.0j * v).real)
                    acc = acc + 2.0 * A[j - 1, k - 1].imag * im
        np.testing.assert_allclose(acc.homogeneous, full.homogeneous,
                                   atol=1e-12, err_msg="N=%d" % N)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
def test_real_symmetric_gks_has_exactly_zero_translation(N):
    basis = gellmann_basis(N)
    rng = np.random.default_rng(60 + N)
    for scale in (1.0, 1e3, 1e5):
        A = random_psd(rng, basis.n, scale=scale).real
        diss = assemble_dissipator(GksMatrix(A), basis)
        assert np.all(diss.translation == 0.0)
        assert is_unital(diss)


def test_assembly_memory_at_N7():
    # the (n, n, n, n) tensor of the paper's L_jk would take 85 MB here
    basis = gellmann_basis(7)
    A = GksMatrix(random_psd(np.random.default_rng(7), basis.n))
    tracemalloc.start()
    try:
        assemble_dissipator(A, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("N", [3, 4, 6])
def test_assembly_is_linear_in_the_rate_scale(N):
    basis = gellmann_basis(N)
    A = random_psd(np.random.default_rng(80 + N), basis.n)
    ref = assemble_dissipator(GksMatrix(A), basis).homogeneous
    for exponent in range(-9, 10):
        s = 10.0 ** exponent
        got = assemble_dissipator(GksMatrix(s * A), basis).homogeneous
        np.testing.assert_allclose(got / s, ref, rtol=0,
                                   atol=1e-12 * np.max(np.abs(ref)))
        # a grossly non-Hermitian matrix is still rejected at every scale
        bad = s * A
        bad[0, 1] += s * np.max(np.abs(A))
        with pytest.raises(ValueError):
            GksMatrix(bad)
        with pytest.raises(ValueError):
            assemble_dissipator(bad, basis)
        with pytest.raises(ValueError):
            GksMatrix.from_real_imag(bad.real, bad.imag)


def test_single_entry_assemblies_reproduce_elementary_generators():
    basis = gellmann_basis(2)
    def single(j, k, value):
        a = np.zeros((3, 3), dtype=complex)
        a[j - 1, k - 1] = value
        a[k - 1, j - 1] = np.conj(value)
        return assemble_dissipator(GksMatrix(a), basis)

    np.testing.assert_allclose(single(1, 2, 1.0).homogeneous,
                               m_matrix(4).homogeneous, atol=1e-12)
    np.testing.assert_allclose(single(1, 2, 1.0j).homogeneous,
                               m_matrix(5).homogeneous, atol=1e-12)
    np.testing.assert_allclose(single(1, 3, 1.0).homogeneous,
                               m_matrix(6).homogeneous, atol=1e-12)
    np.testing.assert_allclose(single(1, 3, 1.0j).homogeneous,
                               m_matrix(7).homogeneous, atol=1e-12)
    np.testing.assert_allclose(single(2, 3, 1.0).homogeneous,
                               m_matrix(8).homogeneous, atol=1e-12)
    np.testing.assert_allclose(single(2, 3, 1.0j).homogeneous,
                               m_matrix(9).homogeneous, atol=1e-12)
    for d, m in ((1, 10), (2, 11), (3, 12)):
        np.testing.assert_allclose(single(d, d, 1.0).homogeneous,
                                   m_matrix(m).homogeneous, atol=1e-12)


def test_non_hermitian_input_rejected():
    basis = gellmann_basis(2)
    with pytest.raises(ValueError):
        GksMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        assemble_dissipator(bad, basis)


def test_symmetry_checks_are_relative_below_scale_one():
    """A matrix whose asymmetry is of its own size is refused at any scale,
    also where 1e-12 in absolute terms would let it pass."""
    rng = np.random.default_rng(5)
    B = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(ValueError, match=r"Hermitian to 1e-12 \* max\|A\|"):
        GksMatrix(1e-13 * B)
    with pytest.raises(ValueError, match="real part must be symmetric"):
        GksMatrix.from_real_imag(1e-13 * B.real, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="imaginary part must be antisym"):
        GksMatrix.from_real_imag(np.zeros((3, 3)), 1e-13 * B.imag)
    with pytest.raises(ValueError, match="imaginary part"):
        assemble_dissipator(1e-13 * B, gellmann_basis(2))
    GksMatrix(1e-13 * (B + B.conj().T))


@pytest.mark.parametrize("N, scale", [(2, 1e-315), (3, 1e-315),
                                      (4, 1e-315), (3, 1e-320), (4, 1e-320)])
def test_subnormal_gks_matrices_assemble(N, scale):
    """A full-rank PSD A with subnormal entries assembles to its generator
    at scale 1 times the scale, to the precision subnormals keep, and a
    non-Hermitian one is still refused there."""
    basis = gellmann_basis(N)
    A = random_psd(np.random.default_rng(N), basis.n)
    tiny = assemble_dissipator(GksMatrix(A * scale), basis).homogeneous
    unit = assemble_dissipator(GksMatrix(A), basis).homogeneous
    exponent = np.frexp(scale)[1]
    err = np.max(np.abs(np.ldexp(tiny, -exponent)
                        - np.ldexp(scale, -exponent) * unit))
    assert err <= 1e-3 * np.max(np.abs(unit))
    with pytest.raises(ValueError, match="not Hermitian"):
        assemble_dissipator(scale * np.triu(A), basis)


@pytest.mark.parametrize("exponent", [-1000, -40, 40, 1000])
def test_assembly_commutes_with_powers_of_two(exponent):
    """The assembly is linear in A, so A times a power of two gives the
    generator times that power, bit for bit, while neither side leaves
    the normal range."""
    basis = gellmann_basis(3)
    A = random_psd(np.random.default_rng(8), basis.n)
    scaled = assemble_dissipator(np.ldexp(A.real, exponent)
                                 + 1j * np.ldexp(A.imag, exponent), basis)
    assert np.array_equal(scaled.homogeneous, np.ldexp(
        assemble_dissipator(A, basis).homogeneous, exponent))


def test_check_psd():
    r = check_psd(np.diag([1.0, 2.0, 3.0]))
    assert r.is_psd and not r.on_boundary and r.min_eigenvalue == 1.0
    r = check_psd(np.diag([0.0, 1.0, 2.0]))
    assert r.is_psd and r.on_boundary
    r = check_psd(np.diag([-0.5, 1.0, 2.0]))
    assert not r.is_psd and r.min_eigenvalue == pytest.approx(-0.5)


def _indefinite(rng, n):
    """A Hermitian matrix with eigenvalue -1 and the others in (0, 2)."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    eigs = np.concatenate([[-1.0], rng.uniform(0.1, 2.0, size=n - 1)])
    return (q * eigs) @ q.conj().T


def test_check_minors_matches_eigenvalues():
    """Full-rank PSD, rank-2 PSD and Hermitian matrices at the scales
    1e-12, 1 and 1e12: the minors and the eigenvalues give one verdict."""
    rng = np.random.default_rng(9)
    for scale, kind in itertools.product((1e-12, 1.0, 1e12), (0, 1, 2) * 200):
        A = scale * (random_psd(rng, 3) if kind == 0 else
                     random_psd(rng, 3, rank=2) if kind == 1 else
                     random_hermitian(rng, 3))
        params = (A[0, 1].real, A[0, 1].imag, A[0, 2].real, A[0, 2].imag,
                  A[1, 2].real, A[1, 2].imag,
                  A[0, 0].real, A[1, 1].real, A[2, 2].real)
        np.testing.assert_allclose(two_level_gks(params).entries, A,
                                   rtol=0, atol=1e-12 * scale)
        report = check_minors_2level(params)
        assert report.all_pass == check_psd(A).is_psd
        if kind == 1:
            assert report.all_pass
        # the 3x3 minor is the determinant
        assert report.values["minor3"] == pytest.approx(
            np.linalg.det(A).real, abs=1e-10 * scale ** 3)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_check_psd_is_scale_free(N):
    """Rank-2 PSD matrices at 1e6 and 1e9 are admissible and on the
    boundary; clearly indefinite ones at 1e-12 are not admissible."""
    n = N * N - 1
    for k in range(20):
        rng = np.random.default_rng([77, N, k])
        rank2, indefinite = random_psd(rng, n, rank=2), _indefinite(rng, n)
        for scale in (1e6, 1e9):
            assert check_psd(scale * rank2)[::2] == (True, True), (k, scale)
        report = check_psd(1e-12 * indefinite)
        assert not report.is_psd and not report.on_boundary, k
        assert report.min_eigenvalue == pytest.approx(-1e-12)
        assert check_psd(1e-12 * (indefinite + 2.0 * np.eye(n)))[::2] \
            == (True, False)


def test_is_unital_is_scale_free():
    """A translation of 1e-11 relative to the linear part is not unital at
    any scale, and a zero one is unital at every scale."""
    linear = -np.eye(3)
    for scale in (1e-300, 1e-13, 1.0, 1e13, 1e300):
        assert not is_unital(AffineGenerator(scale * linear,
                                             [0.0, 0.0, 1e-11 * scale]))
        assert is_unital(AffineGenerator(scale * linear))


def test_minors_all_zero_pass_with_equality():
    report = check_minors_2level(np.zeros(9))
    assert report.all_pass
    assert all(v == 0.0 for v in report.values.values())


def test_amplitude_damping_gks_spectrum_and_fixed_point():
    gamma = 0.8
    basis = gellmann_basis(2)
    A = 0.5 * gamma * np.array([[1.0, -1.0j, 0.0],
                                [1.0j, 1.0, 0.0],
                                [0.0, 0.0, 0.0]])
    eigs = np.linalg.eigvalsh(A)
    np.testing.assert_allclose(eigs, [0.0, 0.0, gamma], atol=1e-12)
    diss = assemble_dissipator(GksMatrix(A), basis)
    np.testing.assert_allclose(diss.linear,
                               np.diag([-gamma / 2, -gamma / 2, -gamma]),
                               atol=1e-12)
    np.testing.assert_allclose(diss.translation, [0.0, 0.0, gamma],
                               atol=1e-12)
    assert not is_unital(diss)
    fp = fixed_point(diss)
    np.testing.assert_allclose(fp.rho, [0.0, 0.0, 1.0 / np.sqrt(2.0)],
                               atol=1e-12)
    assert purity(fp) == pytest.approx(1.0, abs=1e-12)


def test_unital_and_split_trace():
    gamma = 0.3
    basis = gellmann_basis(2)
    diss = assemble_dissipator(np.diag([0.0, 0.0, gamma]).astype(complex),
                               basis)
    assert is_unital(diss)
    alpha, traceless = split_trace(diss)
    assert alpha == pytest.approx(-2.0 * gamma / 3.0, abs=1e-12)
    assert abs(np.trace(traceless.linear)) < 1e-12
    np.testing.assert_allclose(
        (alpha * AffineGenerator(np.eye(3)) + traceless).homogeneous,
        diss.homogeneous, atol=1e-12)


def test_dissipator_trace_is_minus_N_times_gks_trace():
    for N in (2, 3):
        basis = gellmann_basis(N)
        rng = np.random.default_rng(N + 50)
        A = random_hermitian(rng, basis.n)
        diss = assemble_dissipator(GksMatrix(A), basis)
        assert np.trace(diss.linear) == pytest.approx(
            -N * np.trace(A).real, abs=1e-10)


def test_fixed_point_none_for_singular_linear_part():
    # phase flip leaves the z axis free: no unique fixed point
    gamma = 0.4
    basis = gellmann_basis(2)
    diss = assemble_dissipator(np.diag([0.0, 0.0, gamma]).astype(complex),
                               basis)
    assert fixed_point(diss) is None


def test_depolarizing_fixed_point_is_maximally_mixed():
    basis = gellmann_basis(2)
    diss = assemble_dissipator((0.5 * np.eye(3)).astype(complex), basis)
    fp = fixed_point(diss)
    np.testing.assert_allclose(fp.rho, np.zeros(3), atol=1e-14)
