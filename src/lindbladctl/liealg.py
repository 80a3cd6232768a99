"""Lie-algebraic accessibility analysis of controlled master equations.

The reachable directions of a bilinear control system on the coherence ball
are governed by the Lie algebra generated by the drift and control
generators.  This module computes that closure by repeated bracketing with
numerical orthonormalization, classifies the resulting algebra, and emits
machine-checkable certificates of noncontrollability that hold whenever the
dissipative part is nonzero.

accessibility takes one route per input.  When the controls alone generate
ad su(N), the algebra is Lie{ad su(N), D} for the dissipator D, and its
linear part is ad su(N) plus whole pieces of gl(n), told apart by their
Casimir values; a handful of projections and brackets decide which, every
label included, with no n^2-row closure (see accessibility and
_piece_closure).  Every other system goes through closure and classify.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .affine import AffineGenerator, bracket
from .dissipator import (PsdReport, _scaled_tol, check_psd, fixed_point,
                         is_unital)
from .states import purity
from .su_basis import gellmann_basis

__all__ = ["ControlSystem", "LieClosure", "bracket", "closure", "classify",
           "accessibility", "AccessibilityReport",
           "noncontrollability_certificates", "Certificate",
           "CertificatesReport", "hamiltonian_controllability",
           "HamiltonianControllabilityReport", "verify_structure_constants",
           "StructureConstantsReport", "ACCESSIBLE_LABELS"]

#: Labels of closures that make the system accessible in the ball.
ACCESSIBLE_LABELS = frozenset({"gl(n)", "gl(n) x R^n"})


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
    certificates depend on the dissipator alone.  fixed_point, the drift's
    fixed point as dissipator.fixed_point returns it, is computed on first
    use and kept.
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
                                 "linear part (to 1e-12 * max(1, "
                                 "max|linear|))" % name)
            if np.max(np.abs(gen.translation)) > tol:
                raise ValueError("%s generator must have no translation "
                                 "(to 1e-12 * max(1, max|linear|))" % name)
        if self.dissipator.n != n:
            raise ValueError("dissipator has dimension %d, expected %d"
                             % (self.dissipator.n, n))
        psd = None if self.gks is None else check_psd(self.gks)
        object.__setattr__(self, "psd", psd)
        object.__setattr__(self, "admissible", psd is None or psd.is_psd)
        object.__setattr__(self, "drift", self.hamiltonian + self.dissipator)

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
    label they give (None when not converged).  Instances compare by
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
    and kept when its residual against the accepted rows exceeds tol.  A
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

    accept(seeds, 1e-300)
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


def closure(generators, tol=1e-9, max_generations=8):
    """Lie closure of a set of affine generators.

    Starting from the given generators, repeatedly brackets all pairs
    involving at least one element new in the previous round, keeping a
    bracket when its norm and its unit-normalized residual against the
    current orthonormal basis both exceed tol.  Stops when a full round
    adds nothing or after max_generations productive rounds.  The members
    stay one array of rows; tol also decides the features, computed once
    here, and the classification.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("closure requires at least one generator")
    n = generators[0].n
    if any(g.n != n for g in generators):
        raise ValueError("generators have mismatched dimensions")
    m = n + 1
    seeds = np.array([g.homogeneous.ravel() for g in generators])
    rows, generations, converged = _bracket_closure(
        seeds, _matrix_commutator(m), n * n + n, tol, max_generations)
    if not len(rows):
        raise ValueError("all generators are numerically zero")
    rows.flags.writeable = False
    stack = rows.reshape(-1, m, m)
    features = _features(stack, tol)
    label = (_label(stack[:, 1:, 1:], features, tol) if converged
             else None)
    return LieClosure(rows=rows, generations=generations, converged=converged,
                      classification=label, n=n, features=features)


def _features(stack, tol):
    """(p, q, has_trace) of a (dim, n+1, n+1) stack of homogeneous rows.

    p is the rank of the linear parts, q = dim - p the translation
    dimension, and has_trace tests the norm of the traces against tol.
    """
    linear = stack[:, 1:, 1:]
    p = int(np.linalg.matrix_rank(linear.reshape(len(stack), -1), tol=tol))
    traces = np.trace(linear, axis1=1, axis2=2)
    return p, len(stack) - p, bool(np.linalg.norm(traces) > tol)


def _label(linear, features, tol):
    """Taxonomy label from features and a (dim, n, n) stack of linear parts."""
    p, q, has_trace = features
    n = linear.shape[1]
    if q not in (0, n):
        return "other"

    def max_sym_defect(remove_trace):
        sym = 0.5 * (linear + linear.transpose(0, 2, 1))
        if remove_trace:
            traces = np.trace(sym, axis1=1, axis2=2)
            sym = sym - (traces / n)[:, None, None] * np.eye(n)
        return float(np.max(np.abs(sym)))

    if p == n * n and has_trace:
        base = "gl(n)"
    elif p == n * n - 1 and not has_trace:
        base = "sl(n)"
    elif p == n and not has_trace and max_sym_defect(False) <= tol:
        base = "ad_su"
    elif p == n + 1 and has_trace and max_sym_defect(True) <= tol:
        base = "ad_su + span(I)"
    else:
        base = "other"
    return _with_translations(base, q, n)


def _with_translations(base, q, n):
    """base suffixed with " x R^n" when q = n; "other" for other q."""
    if base == "other" or q == 0:
        return base
    if q != n:
        return "other"
    if base in ("ad_su", "ad_su + span(I)"):
        return "(%s) x R^n" % base
    return base + " x R^n"


def classify(c, tol=1e-9):
    """Label the closure by its linear and translational content.

    Three features decide the label: the dimension p of the projection onto
    linear parts, the dimension q of the intersection with pure
    translations, and whether the trace functional is nonzero on the span.
    They are computed afresh from c.rows at this tol, which may differ from
    the tol the closure was built with.  Labels are drawn from

        ad_su, ad_su + span(I), sl(n), gl(n),

    each optionally suffixed with " x R^n" when all translations are
    present (q = n); anything else is "other".  The ad_su labels are
    additionally guarded by a structural check that the linear parts are
    skew-symmetric (plus a multiple of the identity in the span(I) case).
    """
    if not c.converged:
        raise ValueError("cannot classify an unconverged closure")
    stack = c.rows.reshape(-1, c.n + 1, c.n + 1)
    return _label(stack[:, 1:, 1:], _features(stack, tol), tol)


class AccessibilityReport(NamedTuple):
    accessible: Optional[bool]
    closure_dim: int
    classification: Optional[str]
    generations: int
    converged: bool
    features: dict


def accessibility(system, tol=1e-9, max_generations=8):
    """Decide accessibility in the ball from the closure of drift + controls.

    The system is accessible iff the closure is gl(n) or gl(n) x R^n.
    accessible is None (unknown) when the closure ran out of its generation
    budget.  The input picks the route; both report the features, size
    and label of the whole algebra at the same tol.

    When the controls alone generate ad su(N) (see _ad_su_rows), the
    Hamiltonian drift lies in it, so the algebra is Lie{ad su(N), D} for
    the dissipator D.  Projection onto linear parts is a Lie homomorphism,
    and the linear image is ad su(N) plus a union of whole Casimir pieces
    of gl(n) (see _piece_closure), read off D.linear (only when |D.linear|
    > tol * |D|) and a few brackets, with no rate scale left in it.  p is
    n plus the dimensions of those pieces, has_trace says whether RI is
    among them, and the label follows from the set of pieces; generations
    counts the rounds of the piece closure.  The translation ideal is
    invariant under ad su(N), which acts irreducibly, so it is 0 or all of
    R^n; it is 0 iff every element fixes a common point, and ad su(N) fixes
    only 0, so q = 0 iff |D.translation| <= tol * |D|, and closure_dim is
    p + q.  Every other system gets the affine closure and its features.
    """
    su = _ad_su_rows(system, tol, max_generations)
    if su is None:
        c = closure([system.drift, *system.controls], tol=tol,
                    max_generations=max_generations)
        (p, q, has_trace), dim = c.features, c.dim
        generations, converged, label = (c.generations, c.converged,
                                         c.classification)
    else:
        N, n = system.N, system.N * system.N - 1
        D = system.dissipator
        linear = (D.linear if np.linalg.norm(D.linear) > tol * D.norm()
                  else None)
        pieces, generations, converged = _piece_closure(
            su, N, linear, tol, max_generations)
        dims = {name: dim for name, _, _, dim in _piece_table(N)}
        p = n + sum(dims[name] for name in pieces)
        q = 0 if np.linalg.norm(D.translation) <= tol * D.norm() else n
        dim = p + q
        has_trace = "RI" in pieces
        label = _piece_label(pieces, dims, q, n) if converged else None
    features = {"linear_dim": p, "translation_dim": q, "has_trace": has_trace}
    accessible = label in ACCESSIBLE_LABELS if converged else None
    return AccessibilityReport(accessible, dim, label, generations,
                               converged, features)


def _ad_su_rows(system, tol, max_generations):
    """Orthonormal flat n x n rows of ad su(N) spanned by the controls.

    None when there are no controls, when the controls' linear parts do not
    close to dimension n, or when those n rows do not span ad su(N).  The
    rows span ad su(N) when the adjoint generators of the basis (the
    slices of its structure tensor f) lie in their span to tol; the
    Hamiltonian must lie there too.  Hamiltonian drift and controls always
    pass; other skew generators may not, and then take the affine route.
    """
    if not system.controls:
        return None
    n = system.N * system.N - 1
    su, _, _ = _bracket_closure(
        np.array([c.linear.ravel() for c in system.controls]),
        _matrix_commutator(n), n, tol, max_generations)
    if len(su) < n:
        return None
    h = system.hamiltonian.linear.ravel()
    ad = gellmann_basis(system.N).f.reshape(n, n * n)
    if (np.linalg.norm(h - (su @ h) @ su) > tol * np.linalg.norm(h)
            or np.linalg.norm(ad - (ad @ su.T) @ su)
            > tol * np.linalg.norm(ad)):
        return None
    return su


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


def _piece_projector(su, N):
    """project(x): the components of a (m, n, n) stack in each piece.

    su holds orthonormal flat rows k_i of ad su(N).  The Casimir operator
    Omega(X) = sum_i [k_i, [k_i, X]] equals -2 (X + sum_i k_i X k_i),
    because sum_i k_i k_i = -I on ad su(N), and costs O(n^4).  Omega is
    c times the Casimir ratio on each piece, with c read from one K row.
    A matrix splits into its trace, skew and symmetric traceless parts;
    on each part the projector onto a piece is the Lagrange polynomial in
    Omega over the nonempty pieces of that part.  project returns a dict
    from piece name to the (m, n, n) components, nonempty pieces only.
    """
    n = N * N - 1
    k = su.reshape(n, n, n)
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


def _piece_closure(su, N, linear, tol, max_generations):
    """(pieces, generations, converged) of Lie{ad su(N), linear}.

    The algebra is a K-module that contains K = ad su(N), so it is K plus
    a union of whole pieces from _piece_table: every piece but K is
    irreducible and occurs once outside K.  pieces is that union, as a
    set of names.  It starts from the pieces where the projection of
    linear (an n x n matrix, or None for none) exceeds tol * |linear|.
    Each round brackets generic elements of every pair of pieces, new
    ones among them, drawn from a fixed seed (two independent elements
    for a piece paired with itself), and adds each piece the bracket's
    projection reaches above tol * |x| |y|.  Brackets with K stay in
    their piece and brackets with RI vanish, so neither is paired, and RI
    is never reached.  The closure stops when a round adds nothing or
    every reachable piece is in; generations counts the rounds that added
    a piece, and converged is False when max_generations of them ran out
    with a reachable piece still missing.
    """
    n = N * N - 1
    project = _piece_projector(su, N)
    pieces = set()
    if linear is not None:
        parts = project(linear[None])
        pieces = {name for name, x in parts.items() if name != "K"
                  and np.linalg.norm(x) > tol * np.linalg.norm(linear)}
    reachable = {name for name, _, _, dim in _piece_table(N)
                 if dim and name not in ("K", "RI")}
    frontier = pieces & reachable
    generations = 0
    generic = None
    while frontier and not reachable <= pieces:
        if generations == max_generations:
            return pieces, generations, False
        if generic is None:
            generic = project(np.random.default_rng(0).standard_normal(
                (2, n, n)))
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


def _piece_label(pieces, dims, q, n):
    """Taxonomy label of ad su(N) plus the named pieces, q translations."""
    nonempty = {name for name, dim in dims.items() if dim and name != "K"}
    base = {frozenset(): "ad_su", frozenset({"RI"}): "ad_su + span(I)",
            frozenset(nonempty - {"RI"}): "sl(n)",
            frozenset(nonempty): "gl(n)"}.get(frozenset(pieces), "other")
    return _with_translations(base, q, n)


class Certificate(NamedTuple):
    name: str
    active: bool
    value: Optional[float]
    statement: str


class CertificatesReport(NamedTuple):
    certificates: tuple
    active_names: tuple
    note: Optional[str]


def noncontrollability_certificates(system, tol=1e-12):
    """Obstructions to controllability that hold regardless of the controls.

    trace       : tr of the dissipator's linear part is negative, so the
                  linear propagator satisfies det g(t) = exp(tr * t) < 1 and
                  the flow is volume-contracting for every control.
    unital      : the dissipator is nonzero and translation-free, so norms
                  never increase and reachable sets are nested balls; the
                  system is never controllable.
    finite_time : the dissipator is nonzero, so the system is not
                  controllable in any fixed finite time.

    When the dissipator is nonzero but not unital and the drift has a fixed
    point of unit purity, the report notes that the closure of the reachable
    set is the full ball asymptotically (exact controllability still fails).
    """
    L = system.dissipator
    nonzero = L.norm() > tol
    tr = float(np.trace(L.linear))
    unital = is_unital(L, tol)

    trace_active = nonzero and tr < -tol
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
        if fp is not None and abs(purity(fp) - 1.0) <= 1e-9:
            note = ("drift relaxes to a pure state: the closure of the "
                    "reachable set is the full ball asymptotically")
    return CertificatesReport(certs, tuple(c.name for c in certs if c.active),
                              note)


class HamiltonianControllabilityReport(NamedTuple):
    controllable: bool
    dim: int


def hamiltonian_controllability(basis, h0, hks, tol=1e-9):
    """Rank condition for closed-system controllability.

    Works on coefficient vectors: H = sum_l h_l lambda_l brackets as
    (h, g)_l = sum_jk f_jkl h_j g_k.  The system is controllable on the
    unitary group (up to phase) iff the closure of drift and controls spans
    all n coefficient directions.
    """
    hks = [np.asarray(h, dtype=float) for h in hks]
    if not hks:
        raise ValueError("at least one control Hamiltonian is required")
    seeds = [] if h0 is None else [np.asarray(h0, dtype=float)]
    seeds += hks
    n = basis.n
    for h in seeds:
        if h.shape != (n,):
            raise ValueError("coefficient vectors must have length %d" % n)

    def commutator(stack, x):
        return stack @ np.einsum("jkl,k->jl", basis.f, x)

    # Each productive round adds a row, so a budget of n rounds never binds.
    rows, _, _ = _bracket_closure(np.array(seeds), commutator, n, tol, n)
    dim = len(rows)
    return HamiltonianControllabilityReport(dim == n, dim)


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
