"""Lie-algebraic accessibility analysis of controlled master equations.

The reachable directions of a bilinear control system on the coherence ball
are governed by the Lie algebra generated by the drift and control
generators.  This module computes that closure by repeated bracketing with
numerical orthonormalization, classifies the resulting algebra, and emits
machine-checkable certificates of noncontrollability that hold whenever the
dissipative part is nonzero.

accessibility takes one route per input.  When the controls alone generate
ad su(N), which a closure of their n-vector coefficients decides (see
_ad_su_rows), the algebra is Lie{ad su(N), D} for the dissipator D, and its
linear part is ad su(N) plus whole pieces of gl(n), told apart by their
Casimir values; a handful of projections and brackets decide which, every
label included, with no n^2-row closure (see accessibility and
_piece_closure).  Every other system goes through closure and classify.
Both routes, closure and classify name the algebra with one labeller,
_label.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple, Optional

import numpy as np

from .affine import AffineGenerator, _negligible, _pow2_scaled, bracket
from .dissipator import (UNITAL_TOL, PsdReport, _scaled_tol, check_psd,
                         fixed_point, is_unital)
from .states import UNIT_PURITY_TOL, purity
from .su_basis import gellmann_basis

__all__ = ["ControlSystem", "LieClosure", "bracket", "closure", "classify",
           "accessibility", "AccessibilityReport",
           "noncontrollability_certificates", "Certificate",
           "CertificatesReport", "hamiltonian_controllability",
           "HamiltonianControllabilityReport", "verify_structure_constants",
           "StructureConstantsReport", "ACCESSIBLE_LABELS"]

#: Labels of closures that make the system accessible in the ball.
ACCESSIBLE_LABELS = frozenset({"gl(n)", "gl(n) x R^n"})

#: Default relative tolerance of the closures, their features and labels.
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class ControlSystem:
    """A controlled master equation in coherence coordinates.

    Fields
    ------
    N : Hilbert-space dimension.
    hamiltonian : AffineGenerator of the drift Hamiltonian (may be zero).
    controls : tuple of AffineGenerators of the control Hamiltonians.
    dissipator : AffineGenerator of the dissipative part.
    gks : the GksMatrix behind the dissipator, when known.

    Three fields are derived once, in __post_init__.  psd is the
    check_psd report of gks (None without gks), and admissible is True
    when gks is None or positive semidefinite.  drift is the total drift,
    hamiltonian + dissipator; the two parts are kept separate because the
    certificates depend on the dissipator alone.  Two verdicts are computed
    on first use and kept: unital, dissipator.is_unital of the dissipator,
    and fixed_point, the drift's fixed point as dissipator.fixed_point
    returns it.
    """

    N: int
    hamiltonian: AffineGenerator
    controls: tuple
    dissipator: AffineGenerator
    gks: object = None
    psd: Optional[PsdReport] = field(init=False, repr=False, compare=False)
    admissible: bool = field(init=False)
    drift: AffineGenerator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        n = self.N * self.N - 1
        for name, gen in [("hamiltonian", self.hamiltonian),
                          *[("control", c) for c in self.controls]]:
            if gen.n != n:
                raise ValueError("%s generator has dimension %d, expected %d"
                                 % (name, gen.n, n))
            tol = _scaled_tol(gen.linear)
            if np.max(np.abs(gen.linear + gen.linear.T)) > tol:
                raise ValueError("%s generator must have a skew-symmetric "
                                 "linear part (to 1e-12 * max|linear|)"
                                 % name)
            if np.max(np.abs(gen.translation)) > tol:
                raise ValueError("%s generator must have no translation "
                                 "(to 1e-12 * max|linear|)" % name)
        if self.dissipator.n != n:
            raise ValueError("dissipator has dimension %d, expected %d"
                             % (self.dissipator.n, n))
        psd = None if self.gks is None else check_psd(self.gks)
        object.__setattr__(self, "psd", psd)
        object.__setattr__(self, "admissible", psd is None or psd.is_psd)
        object.__setattr__(self, "drift", self.hamiltonian + self.dissipator)

    @cached_property
    def unital(self):
        """dissipator.is_unital of the dissipator, computed on first use."""
        return is_unital(self.dissipator)

    @cached_property
    def fixed_point(self):
        """dissipator.fixed_point of the drift, computed on first use."""
        return fixed_point(self.drift)


@dataclass(frozen=True, eq=False)
class LieClosure:
    """Result of the bracket-closure computation.

    rows is a read-only (dim, (n+1)^2) array of flattened homogeneous
    matrices, orthonormal in the flattened-entry inner product.  generations
    counts the bracket rounds that produced at least one new element;
    converged is False only if the generation budget ran out while new
    elements were still appearing.  features is (p, q, has_trace) at the
    closure's tol, as described in classify, and classification is the
    label classify gives (None when not converged).  Instances compare by
    identity.
    """

    rows: np.ndarray
    generations: int
    converged: bool
    classification: Optional[str]
    n: int
    features: tuple

    @property
    def dim(self):
        return len(self.rows)


def _bracket_closure(seeds, commutator, max_dim, tol, max_generations):
    """Orthonormal rows spanning the bracket closure of the seed rows.

    seeds is a (k, L) array of flat generators; commutator(stack, x) returns
    the flat brackets [stack_i, x] of every row of stack with x.  Each
    candidate is unit-normalized, so the acceptance threshold is scale-free,
    and kept when its residual against the accepted rows exceeds tol; the
    seeds are scaled by powers of two first, so none overflows its norm.  A
    bracket whose raw norm is at most tol is dropped before normalizing: its
    inputs are orthonormal rows, so it is zero up to rounding.  The seeds
    are tried first; then every round brackets each member new in the
    previous round with all earlier members, in pair order.  Returns
    (rows, generations, converged) as for LieClosure.
    """
    rows = np.empty((max_dim, seeds.shape[1]))
    dim = 0

    def accept(cands, floor):
        # A residual only shrinks as rows are added, so candidates already
        # within tol of the rows accepted before this chunk are dropped in
        # one GEMM; the few survivors are orthogonalized in order against
        # the rows this chunk adds.
        nonlocal dim
        norms = np.linalg.norm(cands, axis=1)
        nonzero = norms > floor
        res = cands[nonzero] / norms[nonzero, None]
        q = rows[:dim]
        for _ in range(2):
            res = res - (res @ q.T) @ q
        start = dim
        for v in res[np.linalg.norm(res, axis=1) > tol]:
            if dim == max_dim:
                break
            new = rows[start:dim]
            for _ in range(2):
                v = v - new.T @ (new @ v)
            r = math.sqrt(v @ v)
            if r > tol:
                rows[dim] = v / r
                dim += 1

    accept(_pow2_scaled(seeds, axis=1), 1e-300)
    generations = 0
    lo = 0
    while dim < max_dim and generations < max_generations:
        hi = dim
        for j in range(lo, hi):
            if dim == max_dim:
                break
            accept(commutator(rows[:j], rows[j]), tol)
        if dim == hi:
            return rows[:dim], generations, True
        generations += 1
        lo = hi
    return rows[:dim], generations, dim == max_dim


def _matrix_commutator(m):
    """commutator(stack, x) for _bracket_closure on flat m x m matrices."""
    def commutator(stack, x):
        a = stack.reshape(-1, m, m)
        x = x.reshape(m, m)
        return (a @ x - x @ a).reshape(stack.shape)
    return commutator


def _check_tol(tol):
    """ValueError unless tol is finite and in (0, 1).

    tol is relative: 0 or less keeps rounding residuals as new directions,
    and 1 or more drops every generator.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must be finite and in (0, 1), got %r"
                         % float(tol))


def closure(generators, tol=CLOSURE_TOL, max_generations=8):
    """Lie closure of a set of affine generators.

    Starting from the given generators, repeatedly brackets all pairs
    involving at least one element new in the previous round, keeping a
    bracket when its norm and its unit-normalized residual against the
    current orthonormal basis both exceed tol.  Stops when a full round
    adds nothing, after max_generations productive rounds, or at max_dim:
    n^2 + n, or n^2 when every translation entry is exactly 0.0, since
    brackets, normalizing and projecting keep a zero translation column
    exactly zero, so the closure stays in gl(n).  The members stay one
    array of rows; tol also decides the features, computed once here, and
    the classification.  A closure that reaches max_dim spans all of gl(n),
    or gl(n) x R^n, so its features are (n^2, dim - n^2, True) with no rank
    SVD; a shorter one goes through _features_and_label.  A tol outside
    (0, 1) raises ValueError.
    """
    _check_tol(tol)
    generators = list(generators)
    if not generators:
        raise ValueError("closure requires at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators have mismatched dimensions")
    m = n + 1
    seeds = np.array([g.homogeneous.ravel() for g in generators])
    max_dim = n * n + n * bool(np.any(seeds.reshape(-1, m, m)[:, 1:, 0]))
    rows, generations, converged = _bracket_closure(
        seeds, _matrix_commutator(m), max_dim, tol, max_generations)
    if not len(rows):
        raise ValueError("all generators are numerically zero")
    rows.flags.writeable = False
    if len(rows) == max_dim:
        features = (n * n, max_dim - n * n, True)
        label = _label(*features, n, False)
    else:
        features, label = _features_and_label(rows.reshape(-1, m, m), tol)
    return LieClosure(rows=rows, generations=generations, converged=converged,
                      classification=label if converged else None, n=n,
                      features=features)


def _features_and_label(stack, tol):
    """((p, q, has_trace), label) of a (dim, n+1, n+1) stack of rows.

    p is the rank of the linear parts, q = dim - p the translation
    dimension, and has_trace tests the norm of the traces against tol.
    Containing ad su(N) matters to _label only when p - has_trace = n, so
    only then is it tested, by one SVD of at most 2n + 1 rows: each row of
    _ad_su_basis(N) must lie within tol of the span of the linear parts.
    """
    n = stack.shape[1] - 1
    linear = stack[:, 1:, 1:].reshape(len(stack), -1)
    p = int(np.linalg.matrix_rank(linear, tol=tol))
    traces = np.trace(stack[:, 1:, 1:], axis1=1, axis2=2)
    has_trace = bool(np.linalg.norm(traces) > tol)
    N = math.isqrt(n + 1)
    spans_ad_su = False
    if p - has_trace == n and N * N == n + 1:
        su = _ad_su_basis(N)
        span = np.linalg.svd(linear, full_matrices=False)[2][:p]
        residual = su - (su @ span.T) @ span
        spans_ad_su = bool(np.all(np.linalg.norm(residual, axis=1) <= tol))
    q = len(stack) - p
    return (p, q, has_trace), _label(p, q, has_trace, n, spans_ad_su)


def _label(p, q, has_trace, n, spans_ad_su):
    """Taxonomy label of an algebra with features (p, q, has_trace).

    spans_ad_su says whether its linear image contains ad su(N),
    n = N^2 - 1.  That image is gl(n) iff p = n^2, and sl(n) iff
    p = n^2 - 1 without trace.  Containing ad su(N), it is ad su(N) plus
    whole pieces of gl(n) (see _piece_table), and RI is the only piece of
    dimension 1: so p = n + has_trace means ad su(N), plus RI with the
    trace.  Anything else is "other".  The label takes " x R^n" when
    q = n, and is "other" when 0 < q < n.
    """
    if p == n * n:
        base = "gl(n)"
    elif p == n * n - 1 and not has_trace:
        base = "sl(n)"
    elif spans_ad_su and p == n + has_trace:
        base = "ad_su + span(I)" if has_trace else "ad_su"
    else:
        return "other"
    if q == 0:
        return base
    if q != n:
        return "other"
    return ("(%s) x R^n" if base.startswith("ad_su") else "%s x R^n") % base


def classify(c, tol=CLOSURE_TOL):
    """Label the closure by its linear and translational content.

    Three features decide the label: the dimension p of the projection onto
    linear parts, the dimension q of the intersection with pure
    translations, and whether the trace functional is nonzero on the span.
    They are computed afresh from c.rows at this tol, which may differ from
    the tol the closure was built with.  Labels are drawn from

        ad_su, ad_su + span(I), sl(n), gl(n),

    each optionally suffixed with " x R^n" when all translations are
    present (q = n); anything else is "other".  The ad_su labels also
    require the linear parts to span ad su(N), the adjoint generators of
    the basis, to tol; see _label, which names the algebras of both
    accessibility routes.  A tol outside (0, 1) raises ValueError.
    """
    _check_tol(tol)
    if not c.converged:
        raise ValueError("cannot classify an unconverged closure")
    return _features_and_label(c.rows.reshape(-1, c.n + 1, c.n + 1), tol)[1]


class AccessibilityReport(NamedTuple):
    accessible: Optional[bool]
    closure_dim: int
    classification: Optional[str]
    generations: int
    converged: bool
    features: dict
    route: str


def accessibility(system, tol=CLOSURE_TOL, max_generations=8):
    """Decide accessibility in the ball from the closure of drift + controls.

    The system is accessible iff the closure is gl(n) or gl(n) x R^n.
    accessible is None (unknown) when the closure ran out of its generation
    budget, or when the affine route cannot see the dissipator (below).
    The input picks the route, named by route; both report the
    features, size and label of the whole algebra at the same tol.

    route "ad_su": the controls alone generate ad su(N) and the Hamiltonian
    drift lies in it (see _ad_su_rows), so the algebra is Lie{ad su(N), D}
    for the dissipator D.  Projection onto linear parts is a Lie
    homomorphism, and the linear image is ad su(N) plus a union of whole
    Casimir pieces of gl(n) (see _piece_closure), read off D.linear (only
    when it is not negligible against D, see affine._negligible) and a few
    brackets, with no rate scale left in it.  D.linear is scaled by a
    power of two first, which is exact, so no norm overflows.  p is n plus
    the dimensions of those pieces, and has_trace says whether RI is among
    them; generations counts the rounds of the piece closure.  The
    translation ideal is invariant under ad su(N), which acts irreducibly,
    so it is 0 or all of R^n; it is 0 iff every element fixes a common
    point, and ad su(N) fixes only 0, so q = 0 iff system.unital, the
    verdict of analyze's unital, and closure_dim is p + q.

    route "affine": every other system gets the affine closure and its
    features, which stops at gl(n) when no generator has a nonzero
    translation entry (see closure).  When every generator is exactly
    zero, which closure rejects, the algebra is {0}: closure_dim 0,
    p = q = 0 without trace, converged, and not accessible.  When there
    are controls and the dissipator D is nonzero but negligible against
    the drift at tol (see affine._negligible), the closure cannot tell D
    from zero, so a label that is not accessible gives accessible None,
    not False; the closure's size, label and features stay as computed.
    Without controls the algebra is span{drift} whatever D is, so False
    stands.  Both routes
    take the label from _label; the ad su route knows that the algebra
    contains ad su(N), and closure tests it.  A tol outside (0, 1) raises
    ValueError.
    """
    _check_tol(tol)
    N, n = system.N, system.N * system.N - 1
    generators = [system.drift, *system.controls]
    D = system.dissipator
    if not any(np.any(g.homogeneous) for g in generators):
        route = "affine"
        (p, q, has_trace), dim = (0, 0, False), 0
        generations, converged = 0, True
        label = _label(p, q, has_trace, n, False)
    elif _ad_su_rows(system, tol, max_generations) is None:
        route = "affine"
        c = closure(generators, tol=tol, max_generations=max_generations)
        (p, q, has_trace), dim = c.features, c.dim
        generations, converged, label = (c.generations, c.converged,
                                         c.classification)
    else:
        route = "ad_su"
        linear = (None if _negligible(D.linear, D.homogeneous, tol)
                  else _pow2_scaled(D.linear))
        pieces, generations, converged = _piece_closure(
            N, linear, tol, max_generations)
        p = n + sum(dim for name, _, _, dim in _piece_table(N)
                    if name in pieces)
        q = 0 if system.unital else n
        dim = p + q
        has_trace = "RI" in pieces
        label = _label(p, q, has_trace, n, True) if converged else None
    features = {"linear_dim": p, "translation_dim": q, "has_trace": has_trace}
    accessible = label in ACCESSIBLE_LABELS if converged else None
    if (accessible is False and route == "affine" and system.controls
            and np.any(D.homogeneous)
            and _negligible(D.homogeneous, system.drift.homogeneous, tol)):
        accessible = None
    return AccessibilityReport(accessible, dim, label, generations,
                               converged, features, route)


@lru_cache(maxsize=None)
def _ad_su_basis(N):
    """Orthonormal flat n x n rows f_j / sqrt(2N) of ad su(N), read-only.

    Row j is the slice f_j of the structure tensor, the adjoint generator
    of lambda_j up to sign.  The rows are orthonormal because the Killing
    form of su(N) is 2N times the trace form: sum_kl f_jkl f_mkl = 2N
    delta_jm in this basis's normalization (Schirmer, Fu and Solomon,
    Phys. Rev. A 63, 063410 (2001)).  Built on first use, once per N.
    """
    n = N * N - 1
    rows = gellmann_basis(N).f.reshape(n, n * n) / math.sqrt(2.0 * N)
    rows.flags.writeable = False
    return rows


def _ad_su_rows(system, tol, max_generations):
    """_ad_su_basis(N) when the controls generate ad su(N), else None.

    None when there are no controls, when the linear part L of a control
    or of the Hamiltonian drift has a residual above tol * |L| off the
    span of the ad su(N) rows, or when the controls' coefficients in those
    rows do not close to all n directions within max_generations rounds.
    The coefficients close under the bracket of hamiltonian_controllability
    (see _coefficient_closure): h -> adjoint_generator(h) is a Lie algebra
    homomorphism, and the coefficients are -sqrt(2N) h, a scale the
    closure does not see.  Hamiltonian drift and controls always pass the
    residual test; other skew generators may not, and then take the affine
    route.
    """
    if not system.controls:
        return None
    N = system.N
    su = _ad_su_basis(N)
    linear = np.array([g.linear.ravel()
                       for g in (system.hamiltonian, *system.controls)])
    coeffs = linear @ su.T
    residual = np.linalg.norm(linear - coeffs @ su, axis=1)
    if np.any(residual > tol * np.linalg.norm(linear, axis=1)):
        return None
    rows, _, _ = _coefficient_closure(gellmann_basis(N).f, coeffs[1:], tol,
                                      max_generations)
    return su if len(rows) == len(su) else None


def _piece_table(N):
    """(name, part, Casimir ratio, dimension) of the pieces of gl(n).

    Under K = ad su(N), n = N^2 - 1, gl(n) splits over R into pieces that
    K preserves (R. Slansky, Phys. Rep. 79, 1 (1981)): the multiples of
    the identity RI, and in the skew part K itself and E_c, in the
    symmetric traceless part the d-tensor copy D_d of the adjoint and E+
    and E-.  part says which part of a matrix a piece lives in, and the
    Casimir ratio is its eigenvalue of Omega (see _piece_projector) over
    K's.  D_d shares K's value but not its part.  Empty pieces have
    dimension 0: D_d at N = 2, E- at N <= 3.
    """
    n = N * N - 1
    return (("RI", "trace", 0.0, 1),
            ("K", "skew", 1.0, n),
            ("E_c", "skew", 2.0, n * (n - 3) // 2),
            ("D_d", "sym", 1.0, n if N >= 3 else 0),
            ("E+", "sym", (2 * N + 2) / N, N * N * (N - 1) * (N + 3) // 4),
            ("E-", "sym", (2 * N - 2) / N,
             N * N * (N + 1) * (N - 3) // 4 if N >= 4 else 0))


@lru_cache(maxsize=None)
def _piece_projector(N):
    """project(x): the components of a (m, n, n) stack in each piece.

    k_i are the orthonormal flat rows of ad su(N), _ad_su_basis(N), so
    the projector depends on N alone; it is built once per N, on first
    use.  The Casimir operator
    Omega(X) = sum_i [k_i, [k_i, X]] equals -2 (X + sum_i k_i X k_i),
    because sum_i k_i k_i = -I on ad su(N), and costs O(n^4).  Omega is
    c times the Casimir ratio on each piece, with c read from one K row.
    A matrix splits into its trace, skew and symmetric traceless parts;
    on each part the projector onto a piece is the Lagrange polynomial in
    Omega over the nonempty pieces of that part.  project returns a dict
    from piece name to the (m, n, n) components, nonempty pieces only.
    """
    n = N * N - 1
    k = _ad_su_basis(N).reshape(n, n, n)
    kt = k.transpose(1, 0, 2).reshape(n, n * n)

    def omega(x):
        return -2.0 * (x + kt @ (x[:, None] @ k).reshape(len(x), n * n, n))

    unit = float(np.vdot(omega(k[:1])[0], k[0]))
    parts = {}
    for name, part, ratio, dim in _piece_table(N):
        if dim and part != "trace":
            parts.setdefault(part, []).append((name, unit * ratio))
    lagrange = {}
    for part, members in parts.items():
        values = np.array([value for _, value in members])
        coeffs = []
        for a, value in enumerate(values):
            others = np.delete(values, a)
            # np.poly lists the highest degree first, and gives 1.0 for none
            coeffs.append(np.atleast_1d(np.poly(others))[::-1]
                          / np.prod(value - others))
        lagrange[part] = ([name for name, _ in members], np.array(coeffs))
    eye = np.eye(n)

    def project(x):
        trace = np.trace(x, axis1=1, axis2=2)[:, None, None] / n
        xt = x.transpose(0, 2, 1)
        split = {"skew": 0.5 * (x - xt), "sym": 0.5 * (x + xt) - trace * eye}
        out = {"RI": trace * eye}
        for part, (names, coeffs) in lagrange.items():
            powers = [split[part]]
            for _ in names[1:]:
                powers.append(omega(powers[-1]))
            out.update(zip(names, np.tensordot(coeffs, powers, axes=1)))
        return out

    return project


@lru_cache(maxsize=None)
def _generic_pieces(N):
    """Two generic elements of every piece: the projections of a fixed-seed
    (2, n, n) normal draw, read-only, built once per N on first use."""
    n = N * N - 1
    parts = _piece_projector(N)(np.random.default_rng(0).standard_normal(
        (2, n, n)))
    for x in parts.values():
        x.flags.writeable = False
    return MappingProxyType(parts)


def _piece_closure(N, linear, tol, max_generations):
    """(pieces, generations, converged) of Lie{ad su(N), linear}.

    The algebra is a K-module that contains K = ad su(N), so it is K plus
    a union of whole pieces from _piece_table: every piece but K is
    irreducible and occurs once outside K.  pieces is that union, as a
    set of names.  It starts from the pieces where the projection of
    linear (an n x n matrix, or None for none) is not negligible against
    linear (see affine._negligible).
    Each round brackets generic elements of every pair of pieces, new
    ones among them, from _generic_pieces (two independent elements
    for a piece paired with itself), and adds each piece the bracket's
    projection reaches above tol * |x| |y|.  Brackets with K stay in
    their piece and brackets with RI vanish, so neither is paired, and RI
    is never reached.  The closure stops when a round adds nothing or
    every reachable piece is in; generations counts the rounds that added
    a piece, and converged is False when max_generations of them ran out
    with a reachable piece still missing.
    """
    project = _piece_projector(N)
    pieces = set()
    if linear is not None:
        parts = project(linear[None])
        pieces = {name for name, x in parts.items() if name != "K"
                  and not _negligible(x, linear, tol)}
    reachable = {name for name, _, _, dim in _piece_table(N)
                 if dim and name not in ("K", "RI")}
    frontier = pieces & reachable
    generations = 0
    while frontier and not reachable <= pieces:
        if generations == max_generations:
            return pieces, generations, False
        generic = _generic_pieces(N)
        active = sorted(pieces & reachable)
        pairs = [(a, b) for i, a in enumerate(active) for b in active[i:]
                 if a in frontier or b in frontier]
        x = np.array([generic[a][0] for a, _ in pairs])
        y = np.array([generic[b][1] for _, b in pairs])
        floor = tol * (np.linalg.norm(x, axis=(1, 2))
                       * np.linalg.norm(y, axis=(1, 2)))
        reached = project(x @ y - y @ x)
        frontier = {c for c in reachable - pieces
                    if np.any(np.linalg.norm(reached[c], axis=(1, 2)) > floor)}
        if frontier:
            pieces |= frontier
            generations += 1
    return pieces, generations, True


class Certificate(NamedTuple):
    name: str
    active: bool
    value: Optional[float]
    statement: str


class CertificatesReport(NamedTuple):
    certificates: tuple
    active_names: tuple
    note: Optional[str]


def noncontrollability_certificates(system):
    """Obstructions to controllability that hold regardless of the controls.

    trace       : tr of the dissipator's linear part is negative, so the
                  linear propagator satisfies det g(t) = exp(tr * t) < 1 and
                  the flow is volume-contracting for every control.
    unital      : the dissipator is nonzero and translation-free, so norms
                  never increase and reachable sets are nested balls; the
                  system is never controllable.
    finite_time : the dissipator is nonzero, so the system is not
                  controllable in any fixed finite time.

    Every test is scale-free: the dissipator vanishes only when it is
    exactly zero, trace needs a tr that is not negligible against the
    linear part at UNITAL_TOL (see affine._negligible) and unital is
    system.unital, so no scale of the rates changes which certificates are
    active.

    When the dissipator is nonzero but not unital and the drift has a fixed
    point of unit purity, the report notes that the closure of the reachable
    set is the full ball asymptotically (exact controllability still fails).
    """
    L = system.dissipator
    nonzero = bool(np.any(L.homogeneous))
    tr = float(np.trace(L.linear))
    unital = system.unital

    trace_active = tr < 0.0 and not _negligible(tr, L.linear, UNITAL_TOL)
    unital_active = nonzero and unital
    finite_active = nonzero

    certs = (
        Certificate(
            "trace", trace_active, tr,
            "det g(t) = exp(%.17g * t) < 1 for t > 0: the flow contracts "
            "volume for every control" % tr if trace_active else
            "dissipator trace is not negative"),
        Certificate(
            "unital", unital_active, None,
            "dissipator is unital and nonzero: state norms never increase, "
            "reachable sets are nested balls, never controllable"
            if unital_active else "dissipator is zero or not unital"),
        Certificate(
            "finite_time", finite_active, None,
            "dissipator is nonzero: not controllable in any fixed finite time"
            if finite_active else "dissipator vanishes"),
    )
    note = None
    if nonzero and not unital:
        fp = system.fixed_point
        if fp is not None and abs(purity(fp) - 1.0) <= UNIT_PURITY_TOL:
            note = ("drift relaxes to a pure state: the closure of the "
                    "reachable set is the full ball asymptotically")
    return CertificatesReport(certs, tuple(c.name for c in certs if c.active),
                              note)


class HamiltonianControllabilityReport(NamedTuple):
    controllable: bool
    dim: int


def hamiltonian_controllability(basis, h0, hks, tol=CLOSURE_TOL):
    """Rank condition for closed-system controllability.

    Works on coefficient vectors: H = sum_l h_l lambda_l brackets as
    (h, g)_l = sum_jk f_jkl h_j g_k.  The system is controllable on the
    unitary group (up to phase) iff the closure of drift and controls spans
    all n coefficient directions.  A tol outside (0, 1) raises ValueError.
    """
    _check_tol(tol)
    hks = [np.asarray(h, dtype=float) for h in hks]
    if not hks:
        raise ValueError("at least one control Hamiltonian is required")
    seeds = [] if h0 is None else [np.asarray(h0, dtype=float)]
    seeds += hks
    n = basis.n
    for h in seeds:
        if h.shape != (n,):
            raise ValueError("coefficient vectors must have length %d" % n)

    # Each productive round adds a row, so a budget of n rounds never binds.
    rows, _, _ = _coefficient_closure(basis.f, np.array(seeds), tol, n)
    dim = len(rows)
    return HamiltonianControllabilityReport(dim == n, dim)


def _coefficient_closure(f, seeds, tol, max_generations):
    """_bracket_closure of (k, n) coefficient rows under the bracket
    (h, g)_l = sum_jk f_jkl h_j g_k of the structure tensor f."""
    def commutator(stack, x):
        return stack @ np.einsum("jkl,k->jl", f, x)

    return _bracket_closure(seeds, commutator, len(f), tol, max_generations)


#: Tabulated expansion coefficients c_{jk}^l in [M_j, M_k] = sum_l c M_l for
#: the twelve two-level generator matrices (1-based (j, k, l), j < k; entries
#: not listed are zero).  verify_structure_constants() recomputes every
#: bracket from the matrices themselves and reports any disagreement with
#: this table.
#:
#: Erratum: the paper prints four of these brackets differently,
#:     [M1, M8] = M12 - M11,    [M2, M5] = -M9,
#:     [M2, M6] = M10 - M11,    [M3, M4] = M11 - M10.
#: Those printed values break the Jacobi identity, so no set of matrices can
#: realize them; the values below follow from the matrices by hand,
#:     [M1, M8] = 2(M12 - M11), [M2, M5] = M9,
#:     [M2, M6] = 2(M10 - M12), [M3, M4] = 2(M11 - M10),
#: and the corrected table satisfies the Jacobi identity exactly.
BRACKET_TABLE = {
    (1, 2, 3): 1.0, (1, 3, 2): -1.0, (1, 4, 6): 1.0, (1, 5, 7): 1.0,
    (1, 6, 4): -1.0, (1, 7, 5): -1.0, (1, 8, 12): 2.0, (1, 8, 11): -2.0,
    (1, 11, 8): 1.0, (1, 12, 8): -1.0,
    (2, 3, 1): 1.0, (2, 4, 8): -1.0, (2, 5, 9): 1.0, (2, 6, 10): 2.0,
    (2, 6, 12): -2.0, (2, 8, 4): 1.0, (2, 9, 5): -1.0, (2, 10, 6): -1.0,
    (2, 12, 6): 1.0,
    (3, 4, 11): 2.0, (3, 4, 10): -2.0, (3, 6, 8): 1.0, (3, 7, 9): 1.0,
    (3, 8, 6): -1.0, (3, 9, 7): -1.0, (3, 10, 4): 1.0, (3, 11, 4): -1.0,
    (4, 6, 1): -1.0, (4, 7, 9): -1.0, (4, 8, 2): 1.0, (4, 9, 7): -1.0,
    (4, 10, 3): 1.0, (4, 11, 3): -1.0,
    (5, 6, 9): -1.0, (5, 8, 7): 1.0, (5, 10, 5): 1.0, (5, 11, 5): 1.0,
    (6, 8, 3): -1.0, (6, 9, 5): 1.0, (6, 10, 2): -1.0, (6, 12, 2): 1.0,
    (7, 8, 5): 1.0, (7, 10, 7): 1.0, (7, 12, 7): 1.0,
    (8, 11, 1): 1.0, (8, 12, 1): -1.0,
    (9, 11, 9): 1.0, (9, 12, 9): 1.0,
}


class StructureConstantsReport(NamedTuple):
    ok: bool
    pairs_checked: int
    coefficients_checked: int
    mismatches: tuple
    max_expansion_residual: float


def verify_structure_constants(tol=1e-12):
    """Cross-check the bracket table against the generator matrices.

    Expands [M_j, M_k] for every pair j < k in the M basis (the twelve
    matrices are linearly independent, so the expansion is exact) and
    compares each coefficient with BRACKET_TABLE.  Every deviation beyond
    tol is reported as (j, k, l, expected, computed).
    """
    from .channels import m_matrix

    ms = [m_matrix(k) for k in range(1, 13)]
    flat = np.array([m.homogeneous.ravel() for m in ms]).T  # 16 x 12
    mismatches = []
    max_residual = 0.0
    pairs = 0
    for j in range(1, 13):
        for k in range(j + 1, 13):
            pairs += 1
            b = bracket(ms[j - 1], ms[k - 1]).homogeneous.ravel()
            coeffs, res, _, _ = np.linalg.lstsq(flat, b, rcond=None)
            resid = float(np.linalg.norm(flat @ coeffs - b))
            max_residual = max(max_residual, resid)
            for l in range(1, 13):
                expected = BRACKET_TABLE.get((j, k, l), 0.0)
                computed = float(coeffs[l - 1])
                if abs(computed - expected) > tol:
                    mismatches.append((j, k, l, expected, computed))
    mismatches.sort()
    return StructureConstantsReport(
        ok=not mismatches and max_residual <= 1e-9,
        pairs_checked=pairs,
        coefficients_checked=pairs * 12,
        mismatches=tuple(mismatches),
        max_expansion_residual=max_residual,
    )
