"""propagate against an independent density-matrix flow, at N = 2..5 and 7."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (flow_states, random_piecewise, random_psd,
                      superoperator_generator)
from lindbladctl import (CoherenceVector, PiecewiseControl, determinant_check,
                         fixed_point, gellmann_basis, is_physical, propagate,
                         purity_rate, sample_reachable, to_coherence)
from lindbladctl.cli import SystemDocument

#: Recorded states per segment in the oracle comparisons.
SAMPLES = 5


def _random_case(seed, N, num_controls=2):
    """(h0, controls, A, system) of a random admissible N-level system."""
    rng = np.random.default_rng(seed)
    n = N * N - 1
    h0 = rng.normal(size=n)
    controls = rng.normal(size=(num_controls, n))
    a = random_psd(rng, n)
    system = SystemDocument(N=N, h0=h0, controls=controls, a_real=a.real,
                            a_imag=a.imag).to_control_system()
    return h0, controls, a, system


def _physical_state(rng, N):
    """Coherence vector of a random full-rank density matrix."""
    m = random_psd(rng, N)
    return to_coherence(m / np.trace(m).real, gellmann_basis(N))


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 7])
def case(request):
    """A random system, control and physical start, with both flows."""
    N = request.param
    h0, controls, a, system = _random_case(8100 + N, N)
    rng = np.random.default_rng(8200 + N)
    v0 = _physical_state(rng, N)
    control = random_piecewise(rng, 1.0, 2, bound=2.0, max_segments=4)
    traj = propagate(system, control, v0, samples_per_segment=SAMPLES)
    basis = gellmann_basis(N)
    dissipator = superoperator_generator(np.zeros(basis.n), a, basis)
    oracle = flow_states(h0, controls, dissipator, basis, control, v0,
                         SAMPLES)
    return dict(N=N, h0=h0, controls=controls, dissipator=dissipator,
                basis=basis, system=system, v0=v0, traj=traj, oracle=oracle)


def test_states_match_density_matrix_flow(case):
    times, states, _ = case["oracle"]
    traj = case["traj"]
    np.testing.assert_allclose(traj.times, times, rtol=0, atol=1e-14)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-11)


def test_purities_match_density_matrix_flow(case):
    _, _, purities = case["oracle"]
    np.testing.assert_allclose(case["traj"].purities, purities, rtol=0,
                               atol=1e-11)


def test_dets_follow_the_oracle_trace(case):
    # tr(L_D) read from the probed generator, not from the assembly
    alpha = float(np.trace(case["dissipator"][1:, 1:]))
    traj = case["traj"]
    expected = np.exp(alpha * traj.times)
    np.testing.assert_allclose(traj.dets, expected, rtol=1e-10, atol=0)
    worst = float(np.max(np.abs(traj.dets - expected)))
    assert determinant_check(traj, case["system"]) == pytest.approx(
        worst, rel=0, abs=1e-12)
    assert determinant_check(traj, case["system"]) <= 1e-10


def test_purity_rate_matches_centered_difference_of_the_oracle(case):
    # the oracle's purities at t - h, t, t + h around a recorded state
    h = 1e-5
    traj = case["traj"]
    start = CoherenceVector(case["N"], traj.states[len(traj.times) // 2])
    args = case["h0"], case["controls"], case["dissipator"], case["basis"]
    _, _, purities = flow_states(*args, PiecewiseControl.zero(2, 2.0 * h),
                                 start, 2)
    _, mid, _ = flow_states(*args, PiecewiseControl.zero(2, h), start, 1)
    fd = (purities[2] - purities[0]) / (2.0 * h)
    rate = purity_rate(case["system"], CoherenceVector(case["N"], mid[1]))
    assert rate == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_long_zero_control_run_approaches_fixed_point(case):
    system = case["system"]
    fp = fixed_point(system.drift)
    assert fp is not None
    # a horizon of 30 relaxation times of the slowest mode
    rate = -np.max(np.linalg.eigvals(system.drift.linear).real)
    horizon = 30.0 / rate
    control = PiecewiseControl.zero(2, horizon)
    traj = propagate(system, control, case["v0"], samples_per_segment=40)
    times, states, _ = flow_states(case["h0"], case["controls"],
                                   case["dissipator"], case["basis"], control,
                                   case["v0"], 40)
    np.testing.assert_allclose(traj.states, states, rtol=0, atol=1e-10)
    dist = np.linalg.norm(traj.states - fp.rho, axis=1)
    oracle_dist = np.linalg.norm(states - fp.rho, axis=1)
    assert dist[0] > 1e-3
    assert dist[-1] < 1e-9 and oracle_dist[-1] < 1e-9
    # the distance decays at least at the slowest rate, up to a constant
    assert np.all(dist <= 10.0 * dist[0] * np.exp(-0.9 * rate * times)
                  + 1e-10)


@pytest.mark.parametrize("N", [3, 4])
def test_recorded_states_stay_physical(N):
    # the ball check alone does not imply positivity for N > 2
    rng = np.random.default_rng(8300 + N)
    worst = np.inf
    for k in range(4):
        _, _, _, system = _random_case(8400 + 10 * N + k, N)
        v0 = _physical_state(rng, N)
        traj = propagate(system, random_piecewise(rng, 2.0, 2, bound=3.0),
                         v0, samples_per_segment=10)
        for rho in traj.states:
            report = is_physical(CoherenceVector(N, rho, tol=np.inf))
            assert report.is_physical, report
            worst = min(worst, report.min_eigenvalue)
    assert worst > -1e-9


@settings(derandomize=True, max_examples=30, deadline=None)
@given(N=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       segments=st.lists(st.tuples(st.floats(0.01, 0.5),
                                   st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                         min_size=1, max_size=4))
def test_determinant_law_property(N, seed, segments):
    """det g(t) = exp(tr(L_D) t) under any piecewise control."""
    _, _, _, system = _random_case(seed, N)
    control = PiecewiseControl(tuple((d, [u1, u2]) for d, u1, u2 in segments))
    traj = propagate(system, control, CoherenceVector(N, np.zeros(N * N - 1)),
                     samples_per_segment=3)
    alpha = float(np.trace(system.dissipator.linear))
    np.testing.assert_allclose(traj.dets, np.exp(alpha * traj.times),
                               rtol=1e-9, atol=0)


def test_propagate_rejects_a_state_of_another_dimension():
    _, _, _, system = _random_case(8500, 3)
    with pytest.raises(ValueError, match="^initial state dimension does not "
                                         "match the system$"):
        propagate(system, PiecewiseControl.zero(2, 1.0),
                  CoherenceVector(2, np.zeros(3)))


def test_propagate_rejects_a_wrong_amplitude_count():
    _, _, _, system = _random_case(8501, 3)
    for q in (1, 3):
        with pytest.raises(ValueError, match="^control has %d amplitudes but "
                                             "the system has 2 control "
                                             "Hamiltonians$" % q):
            propagate(system, PiecewiseControl.zero(q, 1.0),
                      CoherenceVector(3, np.zeros(8)))


def test_sample_reachable_rejects_a_state_of_another_dimension():
    # a qubit system and an N=3 state: a ValueError, not a broadcast error
    _, _, _, system = _random_case(8502, 2)
    with pytest.raises(ValueError, match="^initial state dimension does not "
                                         "match the system$"):
        sample_reachable(system, CoherenceVector(3, np.zeros(8)), 1.0,
                         num_samples=4)
