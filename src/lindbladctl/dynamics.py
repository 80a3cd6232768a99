"""Flows of controlled master equations and reachable-set sampling.

Controls are piecewise constant, so the homogeneous propagator is a product
of matrix exponentials and the state follows exactly (up to roundoff):

    rho_bar(t) = g(t) rho_bar(0),   g(t) = expm(G_m tau_m) ... expm(G_1 tau_1).

Only g(t) rho_bar(0) and det g(t) are read, so g is never formed: the state
vector advances step by step, and the determinant of the linear block is
the product of the steps'.  It obeys det g(t) = exp(tr(L_D) t) where L_D is
the linear part of the dissipator; control Hamiltonians are traceless and
drop out.  This is the volume-contraction law checked by determinant_check.

The exponentials come from expm, a scaling-and-squaring Taylor routine in
NumPy that takes a whole stack (..., n, n) at once: one call serves every
segment of propagate and every sample of a sampler event.  It evaluates
the degree-25 Taylor polynomial by Paterson-Stockmeyer in 8 matrix
products and no linear solve, with the scaling chosen per matrix, so a
matrix's exponential does not depend on the rest of its stack; the degree
and its norm bound theta_25 are those of A. H. Al-Mohy and N. J. Higham,
"Computing the action of the matrix exponential, with an application to
exponential integrators", SIAM J. Sci. Comput. 33, 488 (2011).  A matrix
whose 1-norm is 2**53 or more exponentiates to nan.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

__all__ = ["PiecewiseControl", "Trajectory", "BallExitError", "propagate",
           "determinant_check", "purity_rate", "sample_reachable",
           "ReachableResult", "expm"]

#: Allowed overshoot of ||rho||^2 beyond 1 - 1/N before a run is declared a
#: numerical (or admissibility) failure.
BALL_EXIT_TOL = 1e-6

#: Largest rise of a state norm, and of the sampled ball radius, that
#: sample_reachable's nested_balls_ok still reads as nonincreasing.
NESTED_BALLS_TOL = 1e-10

#: Largest segment count a reachable-set sample draws.
_MAX_SEGMENTS = 8

#: Samples sample_reachable advances together; memory per block is
#: O(_SAMPLE_BLOCK * N^4).
_SAMPLE_BLOCK = 1024

#: Largest control_bound whose amplitude range 2 * control_bound is finite.
_MAX_CONTROL_BOUND = float(np.finfo(float).max) / 2

#: Samples that share one random substream: sample i takes row
#: i % _DRAW_BLOCK of the draws of default_rng([seed, i // _DRAW_BLOCK]).
_DRAW_BLOCK = 64

#: Largest 1-norm for which the degree-25 Taylor polynomial has a backward
#: error of at most the double-precision unit roundoff (Al-Mohy and Higham
#: 2011, Table 3.1).
_THETA_25 = 2.43

#: expm returns nan for a matrix whose 1-norm is not below this: from here
#: on consecutive doubles are 2 or more apart, so a rotation angle of that
#: size carries no digit of its phase, and the scaling would take 51 or more
#: squarings that can overflow.
_EXPM_NORM_LIMIT = 2.0 ** 53

#: Row i holds 1/(5i + j)!, j = 0..4: the coefficients of the block
#: C_i = sum_j A^j / (5i + j)! in T_25(A) = sum_i C_i (A^5)^i + (A^5)^5 / 25!.
_TAYLOR_BLOCKS = np.array([[1.0 / factorial(5 * i + j) for j in range(5)]
                           for i in range(5)])


def expm(a):
    """Matrix exponential of a real square matrix or a stack (..., n, n).

    Each matrix is scaled by 2^-s, with s the smallest power that brings
    its 1-norm to at most theta_25 = 2.43, exponentiated with the degree-25
    Taylor polynomial and squared s times.  The polynomial is evaluated by
    Paterson-Stockmeyer: the powers A^2..A^5, then Horner in A^5, each
    block C_i one einsum over the stacked I, A, .., A^4; 8 products in all
    and no linear solve.  Every step acts on each matrix alone, so a matrix
    gives the same bits alone as inside any stack, and expm(0) is exactly I.

    Domain: a matrix whose 1-norm is not below 2**53 (or is nan) gives an
    all-nan result and takes no part in the scaling; the other matrices of
    its stack are unaffected.
    """
    a = np.asarray(a, dtype=float)
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    norm = _one_norms(a)
    bad = ~(norm < _EXPM_NORM_LIMIT)
    any_bad = bad.any()
    if any_bad:
        a = np.where(bad[:, None, None], 0.0, a)
        norm[bad] = 0.0
    mant, expo = np.frexp(norm / _THETA_25)
    s = np.maximum(expo - (mant == 0.5), 0)
    squarings = int(s.max(initial=0))
    if squarings:
        a = np.ldexp(a, -s[:, None, None])
    powers = np.empty((5,) + a.shape)
    powers[0] = np.eye(shape[-1])
    powers[1] = a
    np.matmul(a, a, out=powers[2])
    np.matmul(powers[2], a, out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    a5 = powers[4] @ a
    r = a5 / float(factorial(25))
    # One block at a time: a (5, S, n, n) array of all five doubles the
    # temporaries of a call, and in the sampler the allocator then returns
    # that memory and faults it in again on every call (about 2,300 minor
    # page faults per 500-sample qubit run, against about 450).
    for i in range(4, -1, -1):
        r += np.einsum("j,jsab->sab", _TAYLOR_BLOCKS[i], powers)
        if i:
            r = a5 @ r
    for k in range(squarings):
        more = s > k
        r[more] = r[more] @ r[more]
    if any_bad:
        r[bad] = np.nan
    return r.reshape(shape)


def _one_norms(a):
    """The 1-norms (largest column sums of |a|) of a stack (S, n, n)."""
    # column sums laid out (n, S), so the max runs along whole rows
    return np.einsum("sij->js", np.abs(a), order="C").max(axis=0)


class BallExitError(RuntimeError):
    """Raised when a trajectory leaves the coherence ball beyond tolerance."""


@dataclass(frozen=True)
class PiecewiseControl:
    """Piecewise-constant control: a sequence of (duration, amplitudes).

    Each segment holds the control amplitudes fixed for the given positive
    duration; all segments must have the same number of amplitudes, and
    the durations must have a finite sum.
    """

    segments: tuple

    def __post_init__(self):
        segs = []
        width = None
        for duration, u in self.segments:
            duration = float(duration)
            if not (duration > 0.0 and np.isfinite(duration)):
                raise ValueError("segment durations must be finite and "
                                 "positive, got %r" % duration)
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
        if not np.isfinite(self.total_duration):
            raise ValueError("segment durations must have a finite sum, "
                             "got %r" % self.total_duration)

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
    """Sampled flow: times (T,), states (T, n), purities (T,) and dets (T,).

    Row k of the read-only array states is the coherence vector at times[k]
    (CoherenceVector(N, states[k]) builds the object); dets[k] is det of the
    propagator's linear block, the product of the determinants of the steps
    taken so far, for determinant_check and the CSV export, and inf once
    it outgrows a double.
    """

    times: np.ndarray
    states: np.ndarray
    purities: np.ndarray
    dets: np.ndarray


def _generator_stack(system, amps):
    """(S, m, m) homogeneous generators drift + sum_k amps[:, k] control_k."""
    gen = np.repeat(system.drift.homogeneous[None], len(amps), axis=0)
    for a, ctrl in zip(amps.T, system.controls):
        gen += a[:, None, None] * ctrl.homogeneous
    return gen


def _check_ball(sq, N, where, step, shorten):
    """Raise BallExitError for the first squared norm in sq beyond the ball
    (a nan, from an overflowed state, too).

    where(i) names state i and step(i) is the step generator (generator
    times duration) that led to it.  When that step's 1-norm is 2**53 or
    more, expm gave nan for it, and the message names that cause and says
    how to shorten the steps (shorten); otherwise it blames the system.
    """
    excess = sq - (1.0 - 1.0 / N)
    if not excess.max() <= BALL_EXIT_TOL:
        i = int(np.argmax(~(excess <= BALL_EXIT_TOL)))
        norm = _one_norms(step(i)[None])[0]
        if norm < _EXPM_NORM_LIMIT:
            cause = ("the system is likely inadmissible or the dynamics "
                     "numerically unstable")
        else:
            cause = ("the step into it (generator times duration) has a "
                     "1-norm of %.3e, 2**53 or more, which is out of range "
                     "of the exponential; shorten the steps: %s"
                     % (norm, shorten))
        raise BallExitError(
            "state left the coherence ball (%s): ||rho||^2 exceeds 1 - 1/N "
            "by %.3e; %s" % (where(i), excess[i], cause))


def propagate(system, control, rho_init, samples_per_segment=20):
    """Integrate the controlled flow, sampling each segment uniformly.

    Piecewise-constant segments integrate exactly: one stacked expm call
    gives every segment's sub-step propagator, which advances the state
    samples_per_segment times so intermediate states are recorded.  Raises
    BallExitError, naming the first sub-step (the given start is not
    checked), if the state leaves the ball by more than BALL_EXIT_TOL, and
    ValueError for a state or a control that does not fit the system.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if rho_init.N != system.N:
        raise ValueError("initial state dimension does not match the system")
    q = len(system.controls)
    if control.num_controls != q:
        raise ValueError("control has %d amplitudes but the system has %d "
                         "control Hamiltonians" % (control.num_controls, q))
    s = samples_per_segment
    tau = np.array([d for d, _ in control.segments]) / s
    amps = np.array([u for _, u in control.segments]).reshape(len(tau), q)
    # an overflowed step is out of range of expm; _check_ball names it
    with np.errstate(over="ignore"):
        gen = _generator_stack(system, amps) * tau[:, None, None]
    steps = expm(gen)

    bar = np.tile(rho_init.bar, (len(tau) * s + 1, 1))
    # a state that left the ball may overflow later; the check names the exit
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(bar) - 1):
            bar[k + 1] = steps[k // s] @ bar[k]
    # the sub-steps can round to a sum past the largest double at the
    # largest horizons; only those times are replaced, by the total
    with np.errstate(over="ignore"):
        times = np.concatenate(([0.0], np.cumsum(np.repeat(tau, s))))
    times[np.isinf(times)] = control.total_duration
    states = bar[:, 1:]
    sq = np.einsum("ij,ij->i", states, states)
    _check_ball(sq[1:], system.N, lambda i: "t=%.6g" % times[i + 1],
                lambda i: gen[i // s], "raise samples_per_segment "
                "(--samples of simulate)")
    # an expanding (inadmissible) flow can overflow det to inf
    with np.errstate(over="ignore"):
        dets = np.cumprod(np.concatenate(
            ([1.0], np.repeat(np.linalg.det(steps[:, 1:, 1:]), s))))
    states.flags.writeable = False
    return Trajectory(times=times, states=states,
                      purities=1.0 / system.N + sq, dets=dets)


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
    systems only, whether all norms were nonincreasing within
    NESTED_BALLS_TOL.
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
    one stacked expm call and applied to its state vector; the dt = 0
    steps that pad samples with fewer events are skipped, which changes no
    bit since expm(0) is exactly I.  Memory is O(_SAMPLE_BLOCK * N^4)
    beyond the returned points.  Raises BallExitError, naming a sample and
    a time, if a state leaves the ball by more than BALL_EXIT_TOL, and
    ValueError, naming the parameter, for a horizon that is not finite and
    positive or a control_bound that is not finite and >= 0 or whose range
    2 * control_bound is not finite, and for a state of another dimension.
    """
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise ValueError("horizon must be finite and positive, got %r"
                         % float(horizon))
    if not (control_bound >= 0.0 and np.isfinite(control_bound)):
        raise ValueError("control_bound must be finite and >= 0, got %r"
                         % float(control_bound))
    if not control_bound <= _MAX_CONTROL_BOUND:
        raise ValueError("control_bound must be finite and >= 0 and at most "
                         "%r, got %r" % (_MAX_CONTROL_BOUND,
                                         float(control_bound)))
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if rho_init.N != system.N:
        raise ValueError("initial state dimension does not match the system")
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
    unital = system.unital
    nested = None
    if unital:
        nested = bool(np.all(np.diff(max_norms) <= NESTED_BALLS_TOL)
                      and max_increase <= NESTED_BALLS_TOL)
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

    # Each event's step and the amplitudes of the segment that holds it:
    # no bound lies inside a step, so that segment is the one after every
    # bound at or before the step's start.
    t_prev = np.concatenate([np.zeros((num_samples, 1)), events[:, :-1]],
                            axis=1)
    dt = events - t_prev
    seg = np.sum(bounds[:, None, :] <= t_prev[:, :, None], axis=2)
    seg_amps = np.take_along_axis(amps, seg[:, :, None], axis=1)

    points[:, 0] = bar0[1:]
    x = np.tile(bar0, (num_samples, 1))
    nrm = np.full(num_samples, np.linalg.norm(bar0[1:]))
    max_increase = 0.0
    for k in range(events.shape[1]):
        # Only samples with a real step move: a padded step would multiply
        # by expm(0) = I exactly and leave the state as it is.
        act = np.flatnonzero(dt[:, k] > 0.0)
        gen = _generator_stack(system, seg_amps[act, k])
        # an overflowed step is out of range of expm; _check_ball names it
        with np.errstate(over="ignore"):
            gen *= dt[act, k][:, None, None]
        x[act] = np.matmul(expm(gen), x[act][..., None])[..., 0]
        rho = x[act, 1:]
        sq = np.einsum("ij,ij->i", rho, rho)
        _check_ball(sq, system.N, lambda i: "sample %d, t=%.6g"
                    % (samples[act[i]], events[act[i], k]),
                    gen.__getitem__, "lower horizon or control_bound "
                    "(--horizon, --control-bound of reachable)")
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
    with np.errstate(over="ignore"):
        bounds = horizon * cum / cum[:, -1:]
    # horizon * cum overflows only near the largest double; dividing first
    # keeps those bounds finite and changes no other bit
    bounds = np.where(np.isinf(bounds), horizon * (cum / cum[:, -1:]), bounds)
    bounds[~used] = np.inf
    bounds[np.arange(len(counts)), counts - 1] = horizon
    return bounds, amps
