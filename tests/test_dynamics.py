"""Flows: exact relaxation curves, volume law, purity rate, sampling."""

import tracemalloc

import numpy as np
import pytest

from scipy.linalg import expm as scipy_expm

from _oracles import (random_piecewise, random_psd, sample_reachable_loop,
                      two_level_system)
from lindbladctl import (BallExitError, CoherenceVector, GksMatrix,
                        PRESET_NAMES, PiecewiseControl, adjoint_generator,
                        assemble_dissipator, determinant_check,
                        gellmann_basis, preset, propagate, purity,
                        purity_rate, sample_reachable)
from lindbladctl.dynamics import _SAMPLE_BLOCK, expm


def test_piecewise_control_validation():
    with pytest.raises(ValueError):
        PiecewiseControl(())
    with pytest.raises(ValueError):
        PiecewiseControl(((0.0, [1.0]),))
    with pytest.raises(ValueError):
        PiecewiseControl(((0.5, [1.0]), (0.5, [1.0, 2.0])))
    ctrl = PiecewiseControl.constant([1.0, 2.0], 0.3)
    assert ctrl.num_controls == 2
    assert ctrl.total_duration == pytest.approx(0.3)
    assert PiecewiseControl.zero(3, 1.0).segments[0][1].tolist() == [0, 0, 0]


def test_amplitude_damping_closed_form_relaxation():
    # with no controls: x, y decay at gamma/2, z relaxes to 1/sqrt(2) at gamma
    gamma = 0.9
    system = preset("amplitude_damping", gamma=gamma)
    v0 = CoherenceVector(2, [0.3, -0.2, -0.1])
    traj = propagate(system, PiecewiseControl.zero(3, 2.0), v0,
                     samples_per_segment=16)
    rho0 = 1.0 / np.sqrt(2.0)
    for t, state in zip(traj.times, traj.states):
        decay = np.exp(-gamma * t)
        np.testing.assert_allclose(
            state.rho,
            [0.3 * np.exp(-0.5 * gamma * t),
             -0.2 * np.exp(-0.5 * gamma * t),
             rho0 + (-0.1 - rho0) * decay],
            atol=1e-12)
    assert purity(traj.states[-1]) == pytest.approx(
        purity(CoherenceVector(2, traj.states[-1].rho)))


def test_bloch_precession_with_control():
    # pure Hamiltonian system: unit-amplitude z control spins x into y
    system = preset("phase_flip", gamma=0.0)
    v0 = CoherenceVector(2, [0.5, 0.0, 0.0])
    traj = propagate(system, PiecewiseControl.constant([0.0, 0.0, 1.0],
                                                       np.pi / 2),
                     v0, samples_per_segment=8)
    np.testing.assert_allclose(traj.states[-1].rho, [0.0, 0.5, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(traj.purities, 0.75, atol=1e-12)


def test_trajectory_shapes_and_monotone_time():
    system = preset("depolarizing", gamma=0.2)
    ctrl = PiecewiseControl(((0.3, [1.0, 0.0, 0.0]), (0.7, [0.0, 2.0, 0.0])))
    traj = propagate(system, ctrl, CoherenceVector(2, [0.1, 0.1, 0.1]),
                     samples_per_segment=5)
    assert len(traj.times) == len(traj.states) == len(traj.dets) == 11
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.dets[0] == 1.0


def test_depolarizing_norm_law_under_any_control():
    gamma = 0.4
    system = preset("depolarizing", gamma=gamma)
    rng = np.random.default_rng(21)
    v0 = CoherenceVector(2, [0.3, -0.2, 0.5])
    for _ in range(5):
        ctrl = random_piecewise(rng, 1.0, 3, bound=5.0)
        traj = propagate(system, ctrl, v0)
        norms = np.array([s.norm() for s in traj.states])
        np.testing.assert_allclose(
            norms, v0.norm() * np.exp(-2.0 * gamma * traj.times), atol=1e-12)


def test_determinant_check_random_systems():
    rng = np.random.default_rng(31)
    for _ in range(5):
        system = two_level_system(random_psd(rng, 3),
                                  h0=0.5 * rng.normal(size=3))
        ctrl = random_piecewise(rng, 1.0, 3)
        traj = propagate(system, ctrl,
                         CoherenceVector(2, 0.3 * rng.normal(size=3)))
        assert determinant_check(traj, system) < 1e-10


def test_purity_rate_centered_difference():
    h = 1e-6
    for name in ("depolarizing", "phase_flip", "amplitude_damping"):
        system = preset(name, gamma=0.8)
        v = CoherenceVector(2, [0.25, -0.15, 0.35])
        traj = propagate(system, PiecewiseControl.zero(3, 2.0 * h), v,
                         samples_per_segment=2)
        midpoint = traj.states[1]
        fd = (traj.purities[2] - traj.purities[0]) / (2.0 * h)
        rate = purity_rate(system, midpoint)
        assert rate == pytest.approx(fd, rel=1e-7)


def test_purity_rate_signs():
    ad = preset("amplitude_damping", gamma=0.7)
    assert purity_rate(ad, CoherenceVector(2, [0.0, 0.0, 0.3])) > 0
    dp = preset("depolarizing", gamma=0.7)
    assert purity_rate(dp, CoherenceVector(2, [0.0, 0.0, 0.3])) < 0
    # unital systems never purify anywhere
    rng = np.random.default_rng(12)
    for _ in range(20):
        v = CoherenceVector(2, 0.4 * rng.uniform(-1, 1, 3))
        assert purity_rate(dp, v) <= 0


def test_ball_exit_raises_for_inadmissible_system():
    entries = np.diag([-1.0, 0.0, 0.0])  # negative rate: norm grows
    system = two_level_system(entries)
    with pytest.raises(BallExitError):
        propagate(system, PiecewiseControl.zero(3, 10.0),
                  CoherenceVector(2, [0.3, 0.0, 0.4]))


def test_sample_reachable_deterministic_and_order_independent():
    system = preset("phase_flip", gamma=0.5)
    v0 = CoherenceVector(2, [0.3, 0.0, 0.4])
    a = sample_reachable(system, v0, 1.0, num_samples=8, seed=13)
    b = sample_reachable(system, v0, 1.0, num_samples=8, seed=13)
    np.testing.assert_array_equal(a.points, b.points)
    # per-sample substreams: enlarging the sample count keeps old samples
    c = sample_reachable(system, v0, 1.0, num_samples=4, seed=13)
    np.testing.assert_array_equal(a.points[:4], c.points)
    d = sample_reachable(system, v0, 1.0, num_samples=8, seed=14)
    assert np.max(np.abs(a.points - d.points)) > 1e-6


def test_sample_reachable_unital_nested_balls():
    system = preset("bit_flip", gamma=0.6)
    v0 = CoherenceVector(2, [0.2, 0.3, 0.2])
    result = sample_reachable(system, v0, 1.0, num_samples=40, seed=3)
    assert result.unital
    assert result.nested_balls_ok
    assert result.max_norm_increase <= 1e-10
    assert np.all(np.diff(result.max_norms) <= 1e-10)
    assert result.points.shape == (40, 11, 3)
    np.testing.assert_allclose(result.points[:, 0, :],
                               np.broadcast_to(v0.rho, (40, 3)))


def test_sample_reachable_nonunital_can_purify():
    system = preset("amplitude_damping", gamma=2.0)
    v0 = CoherenceVector(2, np.zeros(3))
    result = sample_reachable(system, v0, 1.5, num_samples=30, seed=5)
    assert not result.unital
    assert result.nested_balls_ok is None
    # relaxation toward the pure state pushes norms up from zero
    assert result.max_norms[-1] > 0.3


def test_sample_reachable_input_validation():
    system = preset("bit_flip", gamma=0.6)
    v0 = CoherenceVector(2, np.zeros(3))
    with pytest.raises(ValueError):
        sample_reachable(system, v0, -1.0)
    with pytest.raises(ValueError):
        sample_reachable(system, v0, 1.0, num_samples=0)


def _generator_stack(rng, N, count):
    """Homogeneous generators: random dissipator plus random Hamiltonian."""
    basis = gellmann_basis(N)
    return np.array([
        assemble_dissipator(GksMatrix(random_psd(rng, basis.n)),
                            basis).homogeneous
        + 3.0 * adjoint_generator(basis, rng.normal(size=basis.n)).homogeneous
        for _ in range(count)])


@pytest.mark.parametrize("N", [2, 3, 4])
def test_expm_matches_scipy_on_stacks(N):
    rng = np.random.default_rng(40 + N)
    gens = _generator_stack(rng, N, 6)
    unit = gens / np.abs(gens).sum(axis=1).max(axis=1)[:, None, None]
    norms = 10.0 ** np.arange(-8, 4)
    stack = norms[:, None, None, None] * unit  # (12, 6, N^2, N^2)
    got = expm(stack)
    assert got.shape == stack.shape
    for a, e in zip(stack.reshape(-1, N * N, N * N),
                    got.reshape(-1, N * N, N * N)):
        ref = scipy_expm(a)
        assert np.max(np.abs(e - ref)) <= 1e-13 * np.max(np.abs(ref))
        # one matrix alone gives the same bits as inside the stack
        np.testing.assert_array_equal(expm(a), e)


def test_expm_of_zero_is_exactly_identity():
    np.testing.assert_array_equal(expm(np.zeros((3, 4, 4))),
                                  np.broadcast_to(np.eye(4), (3, 4, 4)))
    np.testing.assert_array_equal(expm(-0.0 * np.ones((9, 9))), np.eye(9))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_sample_reachable_matches_sample_at_a_time_loop(name):
    v0 = CoherenceVector(2, [0.3, -0.2, 0.4])
    for gamma, h03 in ((1.0, 0.0), (0.7, 0.3), (2.0, -0.9)):
        system = preset(name, gamma=gamma, h03=h03)
        result = sample_reachable(system, v0, 1.5, num_samples=60, seed=9)
        points, max_increase = sample_reachable_loop(system, v0, 1.5,
                                                     num_samples=60, seed=9)
        np.testing.assert_allclose(result.points, points, rtol=0, atol=1e-12)
        assert result.max_norm_increase == pytest.approx(max_increase,
                                                         rel=0, abs=1e-12)
        if result.unital:
            max_norms = np.linalg.norm(points, axis=2).max(axis=0)
            assert result.nested_balls_ok == bool(
                np.all(np.diff(max_norms) <= 1e-10) and max_increase <= 1e-10)


def test_sample_reachable_blocks_match_sample_at_a_time_loop():
    system = preset("amplitude_damping", gamma=0.7, h03=0.3)
    v0 = CoherenceVector(2, [0.3, -0.2, 0.4])
    num = _SAMPLE_BLOCK + 100
    result = sample_reachable(system, v0, 1.5, num_samples=num, seed=21)
    points, max_increase = sample_reachable_loop(system, v0, 1.5,
                                                 num_samples=num, seed=21)
    np.testing.assert_allclose(result.points, points, rtol=0, atol=1e-12)
    assert result.max_norm_increase == pytest.approx(max_increase,
                                                     rel=0, abs=1e-12)
    prefix = sample_reachable(system, v0, 1.5, num_samples=300, seed=21)
    np.testing.assert_array_equal(result.points[:300], prefix.points)


def test_sample_reachable_memory_is_bounded_by_the_block():
    # the working set is one block of (S, N^2, N^2) stacks, not all samples
    system = preset("phase_flip", gamma=0.5)
    v0 = CoherenceVector(2, [0.3, 0.0, 0.4])
    tracemalloc.start()
    try:
        result = sample_reachable(system, v0, 1.0,
                                  num_samples=3 * _SAMPLE_BLOCK, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < result.points.nbytes + 4e6, peak


def test_sample_reachable_raises_ball_exit_for_inadmissible_system():
    system = two_level_system(np.diag([-1.0, 0.0, 0.0]))
    with pytest.raises(BallExitError, match=r"sample \d+, t=\S+\)"):
        sample_reachable(system, CoherenceVector(2, [0.3, 0.0, 0.4]), 10.0,
                         num_samples=20, seed=1)
