"""Flows of controlled master equations and reachable-set sampling.

Controls are piecewise constant, so the homogeneous propagator is a product
of matrix exponentials and the state follows exactly (up to roundoff):

    rho_bar(t) = g(t) rho_bar(0),   g(t) = expm(G_m tau_m) ... expm(G_1 tau_1).

The determinant of the linear block obeys det g(t) = exp(tr(L_D) t) where
L_D is the linear part of the dissipator; control Hamiltonians are
traceless and drop out.  This is the volume-contraction law checked by
determinant_check.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .states import CoherenceVector, purity

__all__ = ["PiecewiseControl", "Trajectory", "BallExitError", "propagate",
           "determinant_check", "purity_rate", "sample_reachable",
           "ReachableResult"]

#: Allowed overshoot of ||rho||^2 beyond 1 - 1/N before a run is declared a
#: numerical (or admissibility) failure.
BALL_EXIT_TOL = 1e-6


class BallExitError(RuntimeError):
    """Raised when a trajectory leaves the coherence ball beyond tolerance."""


@dataclass(frozen=True)
class PiecewiseControl:
    """Piecewise-constant control: a sequence of (duration, amplitudes).

    Each segment holds the control amplitudes fixed for the given positive
    duration; all segments must have the same number of amplitudes.
    """

    segments: tuple

    def __post_init__(self):
        segs = []
        width = None
        for duration, u in self.segments:
            duration = float(duration)
            if duration <= 0.0:
                raise ValueError("segment durations must be positive")
            u = np.asarray(u, dtype=float)
            if u.ndim != 1:
                raise ValueError("segment amplitudes must be a vector")
            if width is None:
                width = u.shape[0]
            elif u.shape[0] != width:
                raise ValueError("all segments must have the same number of "
                                 "control amplitudes")
            u = u.copy()
            u.flags.writeable = False
            segs.append((duration, u))
        if not segs:
            raise ValueError("a control needs at least one segment")
        object.__setattr__(self, "segments", tuple(segs))

    @classmethod
    def constant(cls, u, duration):
        return cls(((duration, u),))

    @classmethod
    def zero(cls, num_controls, duration):
        return cls(((duration, np.zeros(num_controls)),))

    @property
    def num_controls(self):
        return self.segments[0][1].shape[0]

    @property
    def total_duration(self):
        return sum(d for d, _ in self.segments)


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow: times, states, purities and propagator determinants.

    dets holds det of the linear block of the propagator at each sample
    point, for the volume-contraction check and for CSV export.
    """

    times: np.ndarray
    states: tuple
    purities: np.ndarray
    dets: np.ndarray


def _segment_generator(system, u):
    g = system.drift.homogeneous.copy()
    if len(u) != len(system.controls):
        raise ValueError("control has %d amplitudes but the system has %d "
                         "control Hamiltonians" % (len(u), len(system.controls)))
    for amp, ctrl in zip(u, system.controls):
        g += amp * ctrl.homogeneous
    return g


def _check_ball(rho, N, context):
    excess = float(rho @ rho) - (1.0 - 1.0 / N)
    if excess > BALL_EXIT_TOL:
        raise BallExitError(
            "state left the coherence ball (%s): ||rho||^2 exceeds 1 - 1/N "
            "by %.3e; the system is likely inadmissible or the dynamics "
            "numerically unstable" % (context, excess))


def propagate(system, control, rho_init, samples_per_segment=20):
    """Integrate the controlled flow, sampling each segment uniformly.

    Piecewise-constant segments integrate exactly via one matrix
    exponential per segment (applied in equal sub-steps so intermediate
    states are recorded).  Raises BallExitError if the state leaves the
    ball by more than BALL_EXIT_TOL.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if rho_init.N != system.N:
        raise ValueError("initial state dimension does not match the system")
    bar0 = rho_init.bar
    size = bar0.shape[0]
    g = np.eye(size)
    times = [0.0]
    states = [rho_init]
    dets = [np.linalg.det(g[1:, 1:])]
    t = 0.0
    for duration, u in control.segments:
        gen = _segment_generator(system, u)
        step = expm(gen * (duration / samples_per_segment))
        for _ in range(samples_per_segment):
            g = step @ g
            t += duration / samples_per_segment
            bar = g @ bar0
            rho = bar[1:]
            _check_ball(rho, system.N, "t=%.6g" % t)
            times.append(t)
            states.append(CoherenceVector(system.N, rho, tol=float("inf")))
            dets.append(np.linalg.det(g[1:, 1:]))
    times = np.array(times)
    purities = np.array([purity(s) for s in states])
    return Trajectory(times=times, states=tuple(states), purities=purities,
                      dets=np.array(dets))


def determinant_check(traj, system):
    """Max deviation of det g(t) from exp(tr(L_D) t) along the trajectory."""
    alpha = float(np.trace(system.dissipator.linear))
    expected = np.exp(alpha * traj.times)
    return float(np.max(np.abs(traj.dets - expected)))


def purity_rate(system, v):
    """Instantaneous d/dt tr(rho^2) under the drift alone (controls at zero).

    Equals 2 <G rho_bar, rho_bar> for the homogeneous drift G; control
    Hamiltonians are norm-preserving and contribute nothing at any
    amplitude.
    """
    if v.N != system.N:
        raise ValueError("state dimension does not match the system")
    bar = v.bar
    return 2.0 * float(bar @ (system.drift.homogeneous @ bar))


@dataclass(frozen=True)
class ReachableResult:
    """Monte-Carlo reachable-set sample.

    points[i, j] is the coherence vector of sample i at grid time j;
    max_norms[j] is the largest state norm over samples at grid time j.
    max_norm_increase is the largest increase of the state norm between
    consecutive recorded instants within any sample (for unital systems
    this stays at roundoff level).  nested_balls_ok reports, for unital
    systems only, whether all norms were nonincreasing within 1e-10.
    """

    grid: np.ndarray
    points: np.ndarray
    max_norms: np.ndarray
    max_norm_increase: float
    unital: bool
    nested_balls_ok: object


def sample_reachable(system, rho_init, horizon, num_samples=500, seed=0,
                     control_bound=10.0, grid_points=11):
    """Sample endpoints of random piecewise-constant controlled flows.

    Each sample i draws from an independent substream
    numpy.random.default_rng([seed, i]): a segment count uniform on 1..8,
    segment durations as a symmetric Dirichlet split of the horizon, and
    amplitudes uniform on [-control_bound, control_bound].  States are
    recorded on a shared uniform time grid, so results are reproducible
    and independent of sample order.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    from .dissipator import is_unital

    q = len(system.controls)
    n = system.N * system.N - 1
    grid = np.linspace(0.0, horizon, grid_points)
    bar0 = rho_init.bar
    points = np.empty((num_samples, grid_points, n))
    max_increase = 0.0

    drift_h = system.drift.homogeneous
    ctrl_h = [c.homogeneous for c in system.controls]

    for i in range(num_samples):
        rng = np.random.default_rng([seed, i])
        m = int(rng.integers(1, 9))
        durations = horizon * rng.dirichlet(np.ones(m))
        amps = rng.uniform(-control_bound, control_bound, size=(m, q))
        bounds = np.cumsum(durations)
        bounds[-1] = horizon
        events = np.union1d(grid[1:], bounds)
        events = events[events <= horizon]

        g = np.eye(n + 1)
        points[i, 0] = bar0[1:]
        prev_norm = float(np.linalg.norm(bar0[1:]))
        t_prev = 0.0
        gi = 1
        for t in events:
            seg = min(int(np.searchsorted(bounds, 0.5 * (t_prev + t))), m - 1)
            gen = drift_h.copy()
            for a, ch in zip(amps[seg], ctrl_h):
                gen += a * ch
            g = expm(gen * (t - t_prev)) @ g
            rho = (g @ bar0)[1:]
            _check_ball(rho, system.N, "sample %d, t=%.6g" % (i, t))
            nrm = float(np.linalg.norm(rho))
            max_increase = max(max_increase, nrm - prev_norm)
            prev_norm = nrm
            if gi < grid_points and t == grid[gi]:
                points[i, gi] = rho
                gi += 1
            t_prev = t
        if gi != grid_points:
            raise RuntimeError("internal error: grid point not reached")

    max_norms = np.linalg.norm(points, axis=2).max(axis=0)
    unital = is_unital(system.dissipator)
    nested = None
    if unital:
        nested = bool(np.all(np.diff(max_norms) <= 1e-10)
                      and max_increase <= 1e-10)
    return ReachableResult(grid=grid, points=points, max_norms=max_norms,
                           max_norm_increase=max_increase, unital=unital,
                           nested_balls_ok=nested)
