"""Independent reference implementations used to check the package.

Everything here is deliberately written from the density-matrix picture or
as naive loops, sharing as little code as possible with the package, so
agreement is meaningful.
"""

import numpy as np

from lindbladctl import (AffineGenerator, PiecewiseControl, gellmann_basis,
                         structure_tensors)


def superoperator_generator(h, A, basis):
    """Homogeneous coherence-space generator built by probing basis states.

    Applies the density-matrix master equation

        rho' = -i[H, rho] + (1/2) sum_jk a_jk (2 L_j rho L_k
                                               - L_k L_j rho - rho L_k L_j)

    to every basis element (lambda_0 included) and reads the result back in
    the same basis.  This never touches the structure tensors, so it is an
    independent oracle for adjoint_generator + assemble_dissipator.
    """
    N, n = basis.N, basis.n
    lams = [basis.lambda0, *basis.lambdas]
    H = sum(c * lam for c, lam in zip(h, basis.lambdas))
    H = H + 0.0 * basis.lambda0  # ensure an array even for h = 0
    A = np.asarray(A, dtype=complex)

    def apply(rho):
        out = -1.0j * (H @ rho - rho @ H)
        for j in range(n):
            for k in range(n):
                if not A[j, k]:
                    continue
                lj, lk = basis.lambdas[j], basis.lambdas[k]
                out = out + 0.5 * A[j, k] * (
                    2.0 * lj @ rho @ lk - lk @ lj @ rho - rho @ lk @ lj)
        return out

    gen = np.empty((n + 1, n + 1), dtype=complex)
    for col, probe in enumerate(lams):
        image = apply(probe)
        for row, lam in enumerate(lams):
            gen[row, col] = np.trace(lam.conj().T @ image)
    assert np.max(np.abs(gen.imag)) < 1e-12
    return gen.real


def flow_states(h0, controls, dissipator, basis, control, rho_init,
                samples_per_segment=20):
    """(times, states, purities) of a piecewise-constant controlled flow.

    dissipator is superoperator_generator(0, A, basis) for the GKS matrix
    A.  The generator of each segment adds superoperator_generator of the
    Hamiltonian h0 + sum_k u_k controls[k], and the state at sub-step j of
    a segment is SciPy's expm(G j tau) applied to the state where the
    segment starts: one exponential per recorded state and no propagator
    carried from step to step.  Purities are tr(rho^2) of the reconstructed
    density matrices.  Recorded on the grid of propagate.
    """
    from scipy.linalg import expm

    N, n = basis.N, basis.n
    controls = np.asarray(controls, dtype=float).reshape(-1, n)
    zero = np.zeros((n, n))
    bar = np.concatenate(([1.0 / np.sqrt(N)], rho_init.rho))
    times, bars = [0.0], [bar]
    start = 0.0
    for duration, u in control.segments:
        gen = superoperator_generator(h0 + u @ controls, zero, basis) \
            + dissipator
        tau = duration / samples_per_segment
        for j in range(1, samples_per_segment + 1):
            times.append(start + j * tau)
            bars.append(expm(gen * (j * tau)) @ bar)
        bar = bars[-1]
        start += duration
    states = np.array(bars)[:, 1:]
    rho = np.eye(N) / N + np.einsum("tj,jab->tab", states,
                                    np.array(basis.lambdas))
    purities = np.einsum("tab,tba->t", rho, rho).real
    return np.array(times), states, purities


def naive_Ljk(basis, j, k):
    """Quadruple-loop evaluation of the linear dissipation matrix L_jk.

    The tensors are read as nested Python lists: plain float arithmetic
    keeps every pair at N = 4 to about a second.
    """
    f, d = (t.tolist() for t in structure_tensors(basis))
    n = basis.n
    fj, dj, fk, dk = f[j - 1], d[j - 1], f[k - 1], d[k - 1]
    out = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for r in range(n):
            acc = 0.0j
            for m in range(n):
                acc += (fj[m][r] + 1.0j * dj[m][r]) * fk[m][l]
                acc += (fk[m][r] - 1.0j * dk[m][r]) * fj[m][l]
            out[l, r] = -0.25 * acc
    return out


def random_hermitian(rng, n, scale=1.0):
    b = rng.normal(size=(n, n)) + 1.0j * rng.normal(size=(n, n))
    return scale * 0.5 * (b + b.conj().T)


def random_psd(rng, n, scale=1.0):
    b = rng.normal(size=(n, n)) + 1.0j * rng.normal(size=(n, n))
    return scale * (b @ b.conj().T) / n


def random_piecewise(rng, horizon, num_controls, bound=2.0, max_segments=8):
    m = int(rng.integers(1, max_segments + 1))
    durations = horizon * rng.dirichlet(np.ones(m))
    return PiecewiseControl(tuple(
        (durations[i], rng.uniform(-bound, bound, size=num_controls))
        for i in range(m)))


def matrix_lie_dim(h_vectors, basis, tol=1e-9):
    """Dimension of the matrix Lie algebra generated by the -iH's.

    Works directly on flattened skew-Hermitian N x N matrices with
    Gram-Schmidt, independent of the coefficient-space bracket used by
    hamiltonian_controllability.
    """
    mats = []
    for h in h_vectors:
        H = sum(c * lam for c, lam in zip(h, basis.lambdas))
        mats.append(-1.0j * (H + 0.0 * basis.lambda0))
    q = []

    def try_add(mat):
        # real flattening so the count is the real dimension
        v = np.concatenate([mat.real.ravel(), mat.imag.ravel()])
        nrm = np.linalg.norm(v)
        if nrm < 1e-14:
            return False
        v = v / nrm
        for _ in range(2):
            for u in q:
                v = v - (u @ v) * u
        r = np.linalg.norm(v)
        if r <= tol:
            return False
        q.append(v / r)
        return True

    members = []
    for mat in mats:
        if try_add(mat):
            members.append(mat)
    frontier = 0
    while True:
        lo, hi = frontier, len(members)
        frontier = hi
        added = 0
        for j in range(lo, hi):
            for i in range(j):
                cand = members[i] @ members[j] - members[j] @ members[i]
                if try_add(cand):
                    members.append(cand)
                    added += 1
        if not added:
            break
    return len(members)


def affine_lie_dim(generators, tol=1e-9):
    """(dimension, rounds) of the Lie algebra generated by affine generators.

    Brute force on the homogeneous matrices: adjoin every pairwise
    commutator of an orthonormal basis of the current span and take the SVD
    rank, until the rank stops growing; rounds counts the adjoin steps that
    grew it.  No candidate-by-candidate acceptance, so this shares nothing
    with liealg.closure.
    """
    m = generators[0].n + 1

    def orthonormal_rows(rows):
        _, s, vt = np.linalg.svd(rows, full_matrices=False)
        return vt[:int(np.sum(s > tol * s[0]))]

    span = orthonormal_rows(np.array([g.homogeneous.ravel()
                                      for g in generators]))
    rounds = 0
    while True:
        mats = span.reshape(-1, m, m)
        comms = (mats[:, None] @ mats[None] - mats[None] @ mats[:, None])
        grown = orthonormal_rows(np.vstack([span, comms.reshape(-1, m * m)]))
        if len(grown) == len(span):
            return len(span), rounds
        span = grown
        rounds += 1


def closure_members(c):
    """The rows of a LieClosure as a tuple of AffineGenerators."""
    m = c.n + 1
    return tuple(AffineGenerator.from_homogeneous(v.reshape(m, m), tol=np.inf)
                 for v in c.rows)


def closure_features(members, n, tol):
    """(p, q, has_trace) of a closure basis, one AffineGenerator at a time.

    p is the rank of the stacked linear parts, q = len(members) - p, and
    has_trace tests the norm of the vector of traces against tol.  Reads
    the generator objects, where liealg reads one stacked array of rows.
    """
    linear_parts = np.array([g.linear.ravel() for g in members])
    p = int(np.linalg.matrix_rank(linear_parts, tol=tol))
    q = len(members) - p
    traces = np.array([np.trace(g.linear) for g in members])
    has_trace = bool(np.linalg.norm(traces) > tol)
    return p, q, has_trace


def closure_label(members, n, tol):
    """Taxonomy label of a closure basis, with a per-member symmetry loop."""
    p, q, has_trace = closure_features(members, n, tol)
    return taxonomy_label([g.linear for g in members], p, q, has_trace, n,
                          tol)


def taxonomy_label(linears, p, q, has_trace, n, tol):
    """Label of an algebra from its features and its n x n linear parts.

    The ad_su labels also check, one matrix at a time, that the linear
    parts are skew (plus a multiple of the identity for span(I)).
    """
    if q == 0:
        suffix = ""
    elif q == n:
        suffix = " x R^n"
    else:
        return "other"

    def max_sym_defect(remove_trace):
        worst = 0.0
        for linear in linears:
            sym = 0.5 * (linear + linear.T)
            if remove_trace:
                sym = sym - (np.trace(sym) / n) * np.eye(n)
            worst = max(worst, float(np.max(np.abs(sym))))
        return worst

    if p == n * n and has_trace:
        base = "gl(n)"
    elif p == n * n - 1 and not has_trace:
        base = "sl(n)"
    elif p == n and not has_trace and max_sym_defect(False) <= tol:
        base = "ad_su"
    elif p == n + 1 and has_trace and max_sym_defect(True) <= tol:
        base = "ad_su + span(I)"
    else:
        return "other"

    if base in ("ad_su", "ad_su + span(I)") and suffix:
        return "(%s)%s" % (base, suffix)
    return base + suffix


def linear_closure(system, tol=1e-9, max_generations=8):
    """(p, q, has_trace, label, converged) of Lie{ad su(N), D} by closure.

    For a system whose controls generate ad su(N): the n x n closure of
    the controls' orthonormal ad su(N) rows and D.linear (seeded when
    |D.linear| > tol * |D|) by liealg's bracket engine, up to n^2 rows of
    length n^2, O(n^6).  p is the row count, has_trace tests the norm of
    the rows' traces against tol, q is 0 iff |D.translation| <= tol * |D|
    (the translation ideal is 0 or R^n), and the label is taxonomy_label
    of the rows.  This is what accessibility computed before it read the
    algebra off the Casimir pieces; apart from _ad_su_rows, which picks
    the route, it shares no code with that route.
    Known defect: near tol, rounding noise can pass as a new row, so on a
    traceless D made of the D_d piece alone it can accept noise rows and
    then the identity, answering gl(n) where the algebra is sl(n).
    """
    from lindbladctl import liealg

    n = system.N * system.N - 1
    D = system.dissipator
    seeds = liealg._ad_su_rows(system, tol, max_generations)
    assert seeds is not None, "the controls do not generate ad su(N)"
    if np.linalg.norm(D.linear) > tol * D.norm():
        seeds = np.vstack([seeds, D.linear.reshape(1, -1)])
    rows, _, converged = liealg._bracket_closure(
        seeds, liealg._matrix_commutator(n), n * n, tol, max_generations)
    linears = rows.reshape(-1, n, n)
    p = len(rows)
    q = 0 if np.linalg.norm(D.translation) <= tol * D.norm() else n
    traces = np.trace(linears, axis1=1, axis2=2)
    has_trace = bool(np.linalg.norm(traces) > tol)
    label = (taxonomy_label(linears, p, q, has_trace, n, tol) if converged
             else None)
    return p, q, has_trace, label, converged


def casimir_pieces(N):
    """Orthonormal bases of the pieces of gl(n) under ad su(N), by eigh.

    Writes the Casimir operator Omega(X) = sum_i [k_i, [k_i, X]] over the
    normalized adjoint generators k_i (the slices of f) as an explicit
    n^2 x n^2 matrix on row-major vec(X), restricts it to the skew and to
    the symmetric traceless matrices, and groups the eigenvectors by
    eigenvalue over Omega's value on k_1.  Returns {name: (dim, n, n)
    orthonormal basis} with the names of liealg._piece_table, nonempty
    pieces only: RI is I / sqrt(n); K and E_c are the skew eigenspaces of
    ratio 1 and 2; D_d, E+ and E- the symmetric ones of ratio 1, (2N+2)/N
    and (2N-2)/N.  No Lagrange polynomial and no code of the package's
    projector are involved.
    """
    n = N * N - 1
    f = structure_tensors(gellmann_basis(N))[0]
    k = f / np.linalg.norm(f.reshape(n, -1), axis=1)[:, None, None]
    eye = np.eye(n)
    c = np.einsum("iab,ibc->ac", k, k)
    omega = (np.kron(c, eye) + np.kron(eye, c.T)
             - 2.0 * np.einsum("iab,idc->acbd", k, k).reshape(n * n, n * n))
    unit = k[0].ravel() @ omega @ k[0].ravel()
    swap = np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(
        n * n, n * n)
    ident = eye.reshape(-1, 1) / np.sqrt(n)
    parts = {"skew": 0.5 * (np.eye(n * n) - swap),
             "sym": 0.5 * (np.eye(n * n) + swap) - ident @ ident.T}
    ratios = {"skew": {"K": 1.0, "E_c": 2.0},
              "sym": {"D_d": 1.0, "E+": (2 * N + 2) / N,
                      "E-": (2 * N - 2) / N}}
    pieces = {"RI": eye[None] / np.sqrt(n)}
    for part, proj in parts.items():
        values, vectors = np.linalg.eigh(proj @ omega @ proj)
        for name, ratio in ratios[part].items():
            chosen = np.abs(values / unit - ratio) < 1e-6
            if chosen.any():
                pieces[name] = vectors[:, chosen].T.reshape(-1, n, n)
    return pieces


def d_piece_document(N):
    """An admissible document whose D.linear lies in RI + D_d.

    The GKS matrix is the last symmetric slice of the d-tensor plus
    the least multiple of the identity that makes it positive
    semidefinite, rounded up to an integer; the controls are every basis
    direction and the drift is zero.  Under ad su(N) such an A gives a
    dissipator with an identity part and a D_d part only.
    """
    from lindbladctl.cli import SystemDocument

    n = N * N - 1
    d = structure_tensors(gellmann_basis(N))[1][-1]
    shift = np.ceil(-np.linalg.eigvalsh(d)[0])
    return SystemDocument(N=N, h0=np.zeros(n), controls=np.eye(n),
                          a_real=d + shift * np.eye(n),
                          a_imag=np.zeros((n, n)))


def sample_reachable_loop(system, rho_init, horizon, num_samples=500, seed=0,
                          control_bound=10.0, grid_points=11):
    """(points, max_norm_increase) of sample_reachable, one sample at a time.

    One sample after another and one SciPy expm per event, where
    sample_reachable advances all samples together through NumPy expm.  It
    defines the draw law on its own: sample i rebuilds the substream
    default_rng([seed, i // 64]), makes its three full-shape draws and
    takes row i % 64 of each, so the two must agree to roundoff.
    """
    from scipy.linalg import expm

    q = len(system.controls)
    n = system.N * system.N - 1
    grid = np.linspace(0.0, horizon, grid_points)
    bar0 = rho_init.bar
    points = np.empty((num_samples, grid_points, n))
    max_increase = 0.0
    drift_h = system.drift.homogeneous
    ctrl_h = [c.homogeneous for c in system.controls]
    for i in range(num_samples):
        rng = np.random.default_rng([seed, i // 64])
        row = i % 64
        m = int(rng.integers(1, 9, size=64)[row])
        e = rng.standard_exponential((64, 8))[row]
        amps = rng.uniform(-control_bound, control_bound,
                           size=(64, 8, q))[row, :m]
        durations = horizon * e[:m] / e[:m].sum()
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
            nrm = float(np.linalg.norm(rho))
            max_increase = max(max_increase, nrm - prev_norm)
            prev_norm = nrm
            if gi < grid_points and t == grid[gi]:
                points[i, gi] = rho
                gi += 1
            t_prev = t
        assert gi == grid_points
    return points, max_increase
