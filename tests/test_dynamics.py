"""Flows: exact relaxation curves, volume law, purity rate, sampling."""

import re
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import expm as scipy_expm

from _oracles import random_piecewise, random_psd, sample_reachable_loop
from lindbladctl import (BallExitError, CoherenceVector, GksMatrix,
                        PRESET_NAMES, PiecewiseControl, adjoint_generator,
                        assemble_dissipator, gellmann_basis, preset,
                        propagate, purity, purity_rate, sample_reachable)
from lindbladctl import dynamics
from lindbladctl.dynamics import (_MAX_CONTROL_BOUND, _SAMPLE_BLOCK,
                                  _THETA_25, _draw_controls, expm)
from lindbladctl.selfcheck import two_level_system


def test_piecewise_control_validation():
    with pytest.raises(ValueError):
        PiecewiseControl(())
    for duration in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            PiecewiseControl(((0.5, [1.0]), (duration, [1.0])))
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
    for t, rho in zip(traj.times, traj.states):
        decay = np.exp(-gamma * t)
        np.testing.assert_allclose(
            rho,
            [0.3 * np.exp(-0.5 * gamma * t),
             -0.2 * np.exp(-0.5 * gamma * t),
             rho0 + (-0.1 - rho0) * decay],
            atol=1e-12)
    assert traj.purities[-1] == pytest.approx(
        purity(CoherenceVector(2, traj.states[-1])))


def test_bloch_precession_with_control():
    # pure Hamiltonian system: unit-amplitude z control spins x into y
    system = preset("phase_flip", gamma=0.0)
    v0 = CoherenceVector(2, [0.5, 0.0, 0.0])
    traj = propagate(system, PiecewiseControl.constant([0.0, 0.0, 1.0],
                                                       np.pi / 2),
                     v0, samples_per_segment=8)
    np.testing.assert_allclose(traj.states[-1], [0.0, 0.5, 0.0],
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
        norms = np.linalg.norm(traj.states, axis=1)
        np.testing.assert_allclose(
            norms, v0.norm() * np.exp(-2.0 * gamma * traj.times), atol=1e-12)


def test_purity_rate_centered_difference():
    h = 1e-6
    for name in ("depolarizing", "phase_flip", "amplitude_damping"):
        system = preset(name, gamma=0.8)
        v = CoherenceVector(2, [0.25, -0.15, 0.35])
        traj = propagate(system, PiecewiseControl.zero(3, 2.0 * h), v,
                         samples_per_segment=2)
        midpoint = CoherenceVector(2, traj.states[1])
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


@pytest.mark.parametrize("horizon,where,excess", [
    (10.0, "t=0.5", "2.493e-02"), (1000.0, "t=50", "4.301e+42")],
    ids=["horizon-10", "horizon-1000"])
def test_ball_exit_raises_for_inadmissible_system(horizon, where, excess):
    # the first sub-step outside the ball is named, and a flow that runs on
    # to overflow afterwards raises no warning on the way (the suite turns
    # RuntimeWarning into an error)
    entries = np.diag([-1.0, 0.0, 0.0])  # negative rate: norm grows
    system = two_level_system(entries)
    with pytest.raises(BallExitError, match=r"^state left the coherence "
                       r"ball \(%s\): \|\|rho\|\|\^2 exceeds 1 - 1/N by %s;"
                       % (where, re.escape(excess))):
        propagate(system, PiecewiseControl.zero(3, horizon),
                  CoherenceVector(2, [0.3, 0.0, 0.4]))


def test_propagate_takes_one_expm_and_one_det(monkeypatch):
    # the state advances, not the propagator: one stacked expm for every
    # segment and one stacked det for every step, at any sub-step count
    calls = {"expm": 0, "det": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dynamics, "expm", counted("expm", dynamics.expm))
    monkeypatch.setattr(np.linalg, "det", counted("det", np.linalg.det))
    system = preset("amplitude_damping", gamma=0.7, h03=0.3)
    ctrl = PiecewiseControl(((0.3, [1.0, 0.0, 0.0]), (0.5, [0.0, 2.0, 0.0]),
                             (0.2, [0.0, 0.0, -1.0])))
    v0 = CoherenceVector(2, [0.3, -0.2, 0.4])
    for samples in (1, 20, 200):
        calls.update(expm=0, det=0)
        traj = propagate(system, ctrl, v0, samples_per_segment=samples)
        assert len(traj.times) == 3 * samples + 1
        assert calls == {"expm": 1, "det": 1}


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
        sample_reachable(system, v0, 1.0, num_samples=0)
    for horizon in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^horizon must be finite and "
                                             "positive, got %r$" % horizon):
            sample_reachable(system, v0, horizon)
    for bound in (-1.0, np.nan, np.inf, 1e308):
        with pytest.raises(ValueError, match="^control_bound must be finite"):
            sample_reachable(system, v0, 1.0, control_bound=bound)
    # the largest accepted bound still draws: its range 2 * bound is finite
    _draw_controls(0, range(3), 1.0, _MAX_CONTROL_BOUND, 3)
    with pytest.raises(ValueError, match="^seed must be >= 0"):
        sample_reachable(system, v0, 1.0, seed=-1)
    # a zero bound is allowed: every control is then zero
    assert sample_reachable(system, v0, 1.0, num_samples=3,
                            control_bound=0.0).points.shape == (3, 11, 3)


def _generator_stack(rng, N, count):
    """Homogeneous generators: random dissipator plus random Hamiltonian."""
    basis = gellmann_basis(N)
    return np.array([
        assemble_dissipator(GksMatrix(random_psd(rng, basis.n)),
                            basis).homogeneous
        + 3.0 * adjoint_generator(basis, rng.normal(size=basis.n)).homogeneous
        for _ in range(count)])


@pytest.mark.parametrize("N", [2, 3, 4, 7])
def test_expm_matches_scipy_on_stacks(N, monkeypatch):
    def no_solve(*args):
        raise AssertionError("expm called np.linalg.solve")
    monkeypatch.setattr(np.linalg, "solve", no_solve)
    rng = np.random.default_rng(40 + N)
    gens = _generator_stack(rng, N, 6)
    unit = gens / np.abs(gens).sum(axis=1).max(axis=1)[:, None, None]
    # powers of ten, and norms on both sides of the scaling threshold, so
    # that both s = 0 and s = 1 are held to the bound
    norms = np.concatenate([10.0 ** np.arange(-8, 4),
                            _THETA_25 * np.array([0.99, 1.0, 1.01, 2.0])])
    stack = norms[:, None, None, None] * unit  # (16, 6, N^2, N^2)
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


def test_expm_is_nan_beyond_its_norm_limit():
    rng = np.random.default_rng(47)
    gens = _generator_stack(rng, 2, 4)
    rot = np.zeros((4, 4))
    rot[1, 2], rot[2, 1] = 2.0 ** 53 - 1.0, 1.0 - 2.0 ** 53
    huge = np.zeros((4, 4))
    huge[3, 3] = 2.0 ** 53
    nan = gens[0].copy()
    nan[1, 1] = np.nan
    stack = np.array([gens[0], 1e200 * gens[1], gens[1], huge, gens[2], nan,
                      rot, gens[3]])
    got = expm(stack)
    out = [1, 3, 5]
    assert np.isnan(got[out]).all()
    keep = [0, 2, 4, 6, 7]
    assert np.isfinite(got[keep]).all()
    for k in keep:
        np.testing.assert_array_equal(expm(stack[k]), got[k])


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


#: Draws of seed 0 (horizon 1.5, control_bound 10, three controls) for
#: samples 0, 1, 63 and 64: the last and first rows of substreams 0 and 1.
_DRAW_LAW = {
    0: ([0.03934011214738203, 0.2676765950102357, 0.3681586208006033,
         0.5276916477531657, 0.723443076983134, 0.9534364558171196, 1.5],
        [[-8.47121958163566, 0.6846204720748119, -6.685376960954557],
         [6.143358601869796, -9.547789389062398, -2.5078605653028463],
         [-0.5359205722286227, -5.66943398646351, -2.8818756096541893],
         [-5.544171289430957, -4.363437873305484, 8.537421214571829],
         [-1.656492673803477, -2.2827011747855996, 2.2234890486834846],
         [3.282837134970112, 3.205530898553695, -8.304820655519723],
         [1.6380515806937836, 4.7184719979595116, 5.9113673228689905]]),
    1: ([0.34501017919117655, 0.6096247860459068, 1.0563736734029618,
         1.1973599166562536, 1.3076754015792003, 1.5],
        [[-3.5389261378836423, 8.551176189319253, -0.5476494233303519],
         [7.909478142952963, -0.8065009344595016, 5.10236213120254],
         [-0.29745648620719223, 4.174045228647676, -3.6564144666564076],
         [7.797305272734075, -4.685838625268337, -9.876463424314437],
         [4.42331572233684, 3.5320892648915923, 3.1380289985135423],
         [3.7483000462665306, 1.7252842203696623, -7.694420938429712]]),
    63: ([0.15541977569324883, 0.8234231842796335, 1.0945229342763008, 1.5],
         [[-3.1426725313586594, -6.26764556847543, 4.8974449924597785],
          [2.7711981882663608, 0.1028681296664189, -9.672509935855913],
          [9.32184504714434, -9.730649201472396, 0.5489903819064228],
          [-1.3671125095443557, -4.7621147564492805, 7.799941830329221]]),
    64: ([0.2784005959182866, 1.3232186785880158, 1.4464993652487974,
          1.451167636956298, 1.5],
         [[-2.9828428048673743, 3.7924816481411945, -3.046774949990512],
          [0.8849054069559195, 1.0738718667666234, 7.573475856079668],
          [-3.859612618126045, -1.4905159388486648, 2.3867759386830727],
          [6.529993096440748, -1.8765085647247126, -1.5882146352026734],
          [-1.7693859203108726, 5.516916094171853, 6.919344794917254]]),
}


def test_draw_law_literal_values():
    # any change to the substream scheme changes these values
    for i, (bounds, amps) in _DRAW_LAW.items():
        got_bounds, got_amps = _draw_controls(0, range(i, i + 1), 1.5, 10.0,
                                              3)
        m = len(bounds)
        assert np.sum(np.isfinite(got_bounds[0])) == m
        np.testing.assert_allclose(got_bounds[0, :m], bounds, rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(got_amps[0, :m], amps)
    # the same rows from one draw over both substreams
    bounds, amps = _draw_controls(0, range(0, 65), 1.5, 10.0, 3)
    for i, (want_bounds, want_amps) in _DRAW_LAW.items():
        m = len(want_bounds)
        np.testing.assert_allclose(bounds[i, :m], want_bounds, rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(amps[i, :m], want_amps)


def test_sample_reachable_prefixes_across_substream_edges(monkeypatch):
    system = preset("amplitude_damping", gamma=0.7, h03=0.3)
    v0 = CoherenceVector(2, [0.3, -0.2, 0.4])
    full = sample_reachable(system, v0, 1.5, num_samples=200, seed=6)
    for num in (1, 63, 64, 65):
        run = sample_reachable(system, v0, 1.5, num_samples=num, seed=6)
        np.testing.assert_array_equal(run.points, full.points[:num])
    # a block that starts and ends inside substreams
    points = np.empty((150 - 37,) + full.points.shape[1:])
    dynamics._sample_block(system, v0.bar, 1.5, full.grid, 6, range(37, 150),
                           10.0, points)
    np.testing.assert_array_equal(points, full.points[37:150])
    bounds, amps = _draw_controls(6, range(0, 200), 1.5, 10.0, 3)
    mid_bounds, mid_amps = _draw_controls(6, range(37, 150), 1.5, 10.0, 3)
    np.testing.assert_array_equal(mid_bounds, bounds[37:150])
    np.testing.assert_array_equal(mid_amps, amps[37:150])
    # sample blocks that are not a multiple of the substream size
    monkeypatch.setattr(dynamics, "_SAMPLE_BLOCK", 50)
    run = sample_reachable(system, v0, 1.5, num_samples=200, seed=6)
    np.testing.assert_array_equal(run.points, full.points)
    assert run.max_norm_increase == full.max_norm_increase


def test_draw_law_sanity():
    horizon, bound = 1.5, 10.0
    bounds, amps = _draw_controls(11, range(64 * 50), horizon, bound, 3)
    counts = np.sum(np.isfinite(bounds), axis=1)
    used = np.arange(8) < counts[:, None]
    # segment counts uniform on 1..8: each share within 0.03 of 1/8
    # (about five standard deviations at 3200 samples)
    share = np.bincount(counts, minlength=9)[1:] / len(counts)
    assert np.all(np.abs(share - 1.0 / 8.0) < 0.03), share
    # used bounds increase strictly and the last is exactly the horizon
    assert np.all((bounds[:, 1:] > bounds[:, :-1])[used[:, 1:]])
    assert np.all(bounds[np.arange(len(counts)), counts - 1] == horizon)
    assert np.all(bounds[used] > 0.0)
    # unused slots: bound +inf, amplitudes zero
    assert np.all(bounds[~used] == np.inf)
    assert np.all(amps[~used] == 0.0)
    assert np.all(np.abs(amps) <= bound)
    # a uniform split of the horizon: the first segment has mean horizon / m
    # (within 0.05 · horizon, above three standard deviations)
    for m in range(1, 9):
        mean = np.mean(bounds[counts == m, 0]) / horizon
        assert abs(mean - 1.0 / m) < 0.05, (m, mean)


def test_segment_bounds_stay_finite_at_the_largest_horizon():
    """horizon * cum overflows there; the bounds are still the horizon
    times the unit split, finite, with the last exactly the horizon."""
    big = float(np.finfo(float).max)
    bounds, _ = _draw_controls(3, range(64), big, 10.0, 1)
    unit, _ = _draw_controls(3, range(64), 1.0, 10.0, 1)
    used = np.isfinite(unit)
    assert np.array_equal(np.isfinite(bounds), used)
    np.testing.assert_allclose(bounds[used] / big, unit[used], rtol=1e-15)
    assert np.all(bounds[np.arange(64), used.sum(axis=1) - 1] == big)


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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_overflowing_flow_raises_ball_exit():
    # amplitudes of 1e200 overflow expm to nan; a nan state is outside the
    # ball, not a point to record
    system = preset("bit_flip", gamma=0.5)
    v0 = CoherenceVector(2, [0.3, 0.0, 0.4])
    with pytest.raises(BallExitError, match="by nan"):
        sample_reachable(system, v0, 1.0, num_samples=5, control_bound=1e200)
    with pytest.raises(BallExitError, match="by nan"):
        propagate(system, PiecewiseControl(((1.0, [1e200, 0.0, 0.0]),)), v0)
