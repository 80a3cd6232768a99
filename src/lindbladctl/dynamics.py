"""Flows of controlled master equations and reachable-set sampling.

Controls are piecewise constant, so the homogeneous propagator is a product
of matrix exponentials and the state follows exactly (up to roundoff):

    rho_bar(t) = g(t) rho_bar(0),   g(t) = expm(G_m tau_m) ... expm(G_1 tau_1).

The determinant of the linear block obeys det g(t) = exp(tr(L_D) t) where
L_D is the linear part of the dissipator; control Hamiltonians are
traceless and drop out.  This is the volume-contraction law checked by
determinant_check.

The exponentials come from expm, a scaling-and-squaring Padé routine in
NumPy that takes a whole stack (..., n, n) at once, so sample_reachable
advances every sample through one event with a single call.  It is the
degree-13 method of N. J. Higham, "The scaling and squaring method for the
matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 1179 (2005),
with the scaling chosen per matrix, so a matrix's exponential does not
depend on the rest of its stack.
"""

from dataclasses import dataclass

import numpy as np

from .states import CoherenceVector, purity

__all__ = ["PiecewiseControl", "Trajectory", "BallExitError", "propagate",
           "determinant_check", "purity_rate", "sample_reachable",
           "ReachableResult", "expm"]

#: Allowed overshoot of ||rho||^2 beyond 1 - 1/N before a run is declared a
#: numerical (or admissibility) failure.
BALL_EXIT_TOL = 1e-6

#: Largest segment count a reachable-set sample draws.
_MAX_SEGMENTS = 8

#: Samples sample_reachable advances together; memory per block is
#: O(_SAMPLE_BLOCK * N^4).
_SAMPLE_BLOCK = 1024

#: Samples that share one random substream: sample i takes row
#: i % _DRAW_BLOCK of the draws of default_rng([seed, i // _DRAW_BLOCK]).
_DRAW_BLOCK = 64

#: Largest 1-norm for which the [13/13] Padé approximant has a backward error
#: of at most the double-precision unit roundoff (Higham 2005, Table 2.3).
_THETA_13 = 5.371920351148152

#: Coefficients b_0..b_13 of the [13/13] Padé approximant, divided by b_0 so
#: that the denominator of the zero matrix is exactly I and expm(0) == I.
_PADE_13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
    16380.0, 182.0, 1.0]) / 64764752532480000.0


def expm(a):
    """Matrix exponential of a real square matrix or a stack (..., n, n).

    Each matrix is scaled by 2^-s, with s the smallest power that brings
    its 1-norm to at most theta_13, exponentiated with the [13/13] Padé
    approximant and squared s times.
    """
    a = np.asarray(a, dtype=float)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    mant, expo = np.frexp(np.abs(a).sum(axis=1).max(axis=1) / _THETA_13)
    s = np.maximum(expo - (mant == 0.5), 0)
    squarings = int(s.max(initial=0))
    if squarings:
        a = np.ldexp(a, -s[:, None, None])
    b = _PADE_13
    ident = np.eye(shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for k in range(squarings):
        more = s > k
        r[more] = r[more] @ r[more]
    return r.reshape(shape)


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


def _ball_exit_error(context, excess):
    return BallExitError(
        "state left the coherence ball (%s): ||rho||^2 exceeds 1 - 1/N "
        "by %.3e; the system is likely inadmissible or the dynamics "
        "numerically unstable" % (context, excess))


def _check_ball(rho, N, context):
    excess = float(rho @ rho) - (1.0 - 1.0 / N)
    if excess > BALL_EXIT_TOL:
        raise _ball_exit_error(context, excess)


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

    Each sample draws a segment count m uniform on 1..8, segment durations
    as a uniform (symmetric Dirichlet) split of the horizon, and amplitudes
    uniform on [-control_bound, control_bound].  The draws come in
    substreams of _DRAW_BLOCK = 64 samples: numpy.random.default_rng(
    [seed, i // 64]) makes three fixed-shape draws, integers(1, 9) of shape
    (64,), standard_exponential of shape (64, 8) and uniform of shape
    (64, 8, q) for q controls, and sample i takes row i % 64 of each,
    truncated to its m segments; its durations are the horizon times the
    first m exponentials over their sum.  States are recorded on a shared
    uniform time grid, so results are reproducible, prefix-stable in
    num_samples and independent of sample order.

    Samples advance in blocks of up to _SAMPLE_BLOCK: at each event every
    sample of a block that still has a step to take has it exponentiated in
    one stacked expm call and multiplied into its propagator; the dt = 0
    steps that pad samples with fewer events are skipped, which changes no
    bit since expm(0) is exactly I.  Memory is O(_SAMPLE_BLOCK * N^4)
    beyond the returned points.  Raises BallExitError, naming a sample and
    a time, if a state leaves the ball by more than BALL_EXIT_TOL.
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    from .dissipator import is_unital

    n = system.N * system.N - 1
    grid = np.linspace(0.0, horizon, grid_points)
    points = np.empty((num_samples, grid_points, n))
    max_increase = 0.0
    for start in range(0, num_samples, _SAMPLE_BLOCK):
        stop = min(start + _SAMPLE_BLOCK, num_samples)
        max_increase = max(max_increase, _sample_block(
            system, rho_init.bar, horizon, grid, seed, range(start, stop),
            control_bound, points[start:stop]))

    max_norms = np.linalg.norm(points, axis=2).max(axis=0)
    unital = is_unital(system.dissipator)
    nested = None
    if unital:
        nested = bool(np.all(np.diff(max_norms) <= 1e-10)
                      and max_increase <= 1e-10)
    return ReachableResult(grid=grid, points=points, max_norms=max_norms,
                           max_norm_increase=max_increase, unital=unital,
                           nested_balls_ok=nested)


def _sample_block(system, bar0, horizon, grid, seed, samples, control_bound,
                  points):
    """Advance the samples of one block of sample_reachable.

    samples is the range of sample indices; fills their rows of points
    (grid index 0 included) and returns the block's largest norm increase.
    """
    num_samples = len(samples)
    grid_points = len(grid)
    q = len(system.controls)

    bounds, amps = _draw_controls(seed, samples, horizon, control_bound, q)

    # Row b of the event table is the union of the grid and the segment
    # bounds of sample b up to the horizon, in increasing order, padded at
    # the end with repeats of the horizon: identity steps (dt = 0).
    events = np.sort(np.concatenate(
        [np.broadcast_to(grid[1:], (num_samples, grid_points - 1)),
         np.minimum(bounds, horizon)], axis=1), axis=1)
    events[:, 1:][events[:, 1:] == events[:, :-1]] = horizon
    events.sort(axis=1)
    events = events[:, :np.max(np.sum(events < horizon, axis=1)) + 1]
    # Column of grid time j + 1 in each row (its first occurrence).
    grid_col = np.sum(events[:, None, :] < grid[1:, None], axis=2)
    if not np.all(np.take_along_axis(events, grid_col, axis=1) == grid[1:]):
        raise RuntimeError("internal error: grid point not reached")

    # Each event's step and the amplitudes of the segment that holds the
    # midpoint of the step (no midpoint exceeds the last bound, the horizon).
    t_prev = np.concatenate([np.zeros((num_samples, 1)), events[:, :-1]],
                            axis=1)
    dt = events - t_prev
    seg = np.sum(bounds[:, None, :] < 0.5 * (t_prev + events)[:, :, None],
                 axis=2)
    seg_amps = np.take_along_axis(amps, seg[:, :, None], axis=1)

    drift_h = system.drift.homogeneous
    ctrl_h = [c.homogeneous for c in system.controls]
    radius2 = 1.0 - 1.0 / system.N
    points[:, 0] = bar0[1:]
    g = np.tile(np.eye(len(bar0)), (num_samples, 1, 1))
    nrm = np.full(num_samples, np.linalg.norm(bar0[1:]))
    max_increase = 0.0
    for k in range(events.shape[1]):
        # Only samples with a real step move: a padded step would multiply
        # by expm(0) = I exactly and leave the state as it is.
        act = np.flatnonzero(dt[:, k] > 0.0)
        gen = np.repeat(drift_h[None], len(act), axis=0)
        for a, ch in zip(seg_amps[act, k].T, ctrl_h):
            gen += a[:, None, None] * ch
        g[act] = np.matmul(expm(gen * dt[act, k][:, None, None]), g[act])
        rho = (g[act] @ bar0)[:, 1:]
        sq = np.einsum("ij,ij->i", rho, rho)
        out = np.flatnonzero(sq - radius2 > BALL_EXIT_TOL)
        if out.size:
            b = act[out[0]]
            raise _ball_exit_error("sample %d, t=%.6g"
                                   % (samples[b], events[b, k]),
                                   sq[out[0]] - radius2)
        new = np.sqrt(sq)
        max_increase = max(max_increase, float(np.max(new - nrm[act])))
        nrm[act] = new
        hit, j = np.nonzero(grid_col[act] == k)
        points[act[hit], j + 1] = rho[hit]
    return max_increase


def _draw_controls(seed, samples, horizon, control_bound, q):
    """Segment bounds (S, 8) and amplitudes (S, 8, q) of a range of samples.

    samples may start and stop anywhere inside a substream of _DRAW_BLOCK
    samples.  Segment slots a sample does not use have bound +inf and zero
    amplitudes; the last used bound is exactly the horizon.
    """
    first = samples.start // _DRAW_BLOCK
    draws = []
    for sub in range(first, (samples.stop - 1) // _DRAW_BLOCK + 1):
        rng = np.random.default_rng([seed, sub])
        draws.append((
            rng.integers(1, _MAX_SEGMENTS + 1, size=_DRAW_BLOCK),
            rng.standard_exponential((_DRAW_BLOCK, _MAX_SEGMENTS)),
            rng.uniform(-control_bound, control_bound,
                        size=(_DRAW_BLOCK, _MAX_SEGMENTS, q))))
    rows = slice(samples.start - first * _DRAW_BLOCK,
                 samples.stop - first * _DRAW_BLOCK)
    counts, expo, amps = (np.concatenate(d)[rows] for d in zip(*draws))
    used = np.arange(_MAX_SEGMENTS) < counts[:, None]
    amps[~used] = 0.0
    cum = np.cumsum(np.where(used, expo, 0.0), axis=1)
    bounds = np.where(used, horizon * cum / cum[:, -1:], np.inf)
    bounds[np.arange(len(counts)), counts - 1] = horizon
    return bounds, amps
