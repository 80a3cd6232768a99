"""Acceptance checks: assembly, closure, certificates, dynamics, sampling.

Each test prints one ``criterion N: PASS/FAIL`` line; on failure the
printed details give the computed values.  The bracket table checked by
criteria 1 and 2 carries a documented erratum of the paper's printed
coefficients (see ``BRACKET_TABLE``).  Criterion 4 checks that the
isotropic dissipator, whose linear part is alpha I with no translation,
commutes with the nine translation-free generators and scales the three
pure translations M5, M7, M9 by alpha.
"""

import numpy as np

from _oracles import random_hermitian, random_piecewise, random_psd
from lindbladctl import (CoherenceVector, GksMatrix, PRESET_NAMES,
                         PiecewiseControl, accessibility,
                         assemble_dissipator, bracket, closure,
                         determinant_check, fixed_point, gellmann_basis,
                         m_matrix, preset, propagate, purity, purity_rate,
                         sample_reachable, verify_structure_constants)
from lindbladctl.selfcheck import CHECKS, two_level_system


def _report(capsys, num, ok, detail=""):
    line = "criterion %d: %s" % (num, "PASS" if ok else "FAIL")
    if detail:
        line += " - " + detail
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_bracket_table_fidelity(capsys):
    rep = verify_structure_constants(tol=1e-12)
    detail = ""
    if not rep.ok:
        items = "; ".join("(%d,%d,%d) tabulated %g, computed %g" % m
                          for m in rep.mismatches)
        detail = ("%d tabulated coefficients disagree with brackets "
                  "recomputed from the matrices: %s"
                  % (len(rep.mismatches), items))
    _report(capsys, 1, rep.ok, detail)


def test_criterion_02_phase_flip_closure_and_bracket_identities(capsys):
    c = closure([m_matrix(k) for k in (1, 2, 3, 12)])
    problems = []
    if c.dim != 9:
        problems.append("closure dimension %d, expected 9" % c.dim)
    identities = (
        ("[M1,M12] = -M8", 1, 12, {8: -1.0}),
        ("[M2,M12] = M6", 2, 12, {6: 1.0}),
        ("[M1,M6] = -M4", 1, 6, {4: -1.0}),
        ("[M1,M8] = 2(M12 - M11)", 1, 8, {12: 2.0, 11: -2.0}),
        ("[M2,M6] = 2(M10 - M12)", 2, 6, {10: 2.0, 12: -2.0}),
    )
    for label, j, k, combo in identities:
        lhs = bracket(m_matrix(j), m_matrix(k)).homogeneous
        rhs = sum(w * m_matrix(m).homogeneous for m, w in combo.items())
        dev = np.max(np.abs(lhs - rhs))
        if dev > 1e-12:
            problems.append("%s fails entrywise (max deviation %.3g)"
                            % (label, dev))
    _report(capsys, 2, not problems, "; ".join(problems))


def test_criterion_03_amplitude_damping_assembly_and_accessibility(capsys):
    gamma = 0.8
    basis = gellmann_basis(2)
    a = 0.5 * gamma * np.array([[1.0, -1.0j, 0.0],
                                [1.0j, 1.0, 0.0],
                                [0.0, 0.0, 0.0]])
    assembled = assemble_dissipator(GksMatrix(a), basis)
    target = 0.5 * gamma * (m_matrix(10).homogeneous
                            + m_matrix(11).homogeneous
                            - m_matrix(5).homogeneous)
    problems = []
    dev = np.max(np.abs(assembled.homogeneous - target))
    if dev > 1e-12:
        problems.append("assembly deviates from (gamma/2)(M10 + M11 - M5) "
                        "by %.3g" % dev)
    acc = accessibility(preset("amplitude_damping", gamma=gamma))
    if acc.closure_dim != 12:
        problems.append("closure dimension %d, expected 12" % acc.closure_dim)
    if not acc.accessible:
        problems.append("reported not accessible")
    fp = fixed_point(preset("amplitude_damping", gamma=gamma).drift)
    if fp is None:
        problems.append("no fixed point found")
    elif abs(purity(fp) - 1.0) > 1e-9:
        problems.append("fixed-point purity %.12g, expected 1" % purity(fp))
    min_eig = float(np.linalg.eigvalsh(a)[0])
    if abs(min_eig) > 1e-12:
        problems.append("smallest GKS eigenvalue %.3g, expected 0" % min_eig)
    _report(capsys, 3, not problems, "; ".join(problems))


def test_criterion_04_depolarizing_commutant_and_norm_law(capsys):
    gamma = 0.5
    system = preset("depolarizing", gamma=gamma)
    problems = []
    # D = (alpha I, 0), so [D, (B, b)] = (0, alpha b): zero on the nine
    # translation-free generators, alpha M_k on the translations M5, M7, M9.
    alpha = float(np.trace(system.dissipator.linear)) / 3.0
    if abs(alpha + 2.0 * gamma) > 1e-12:
        problems.append("alpha = %.17g, expected -2 gamma = %g"
                        % (alpha, -2.0 * gamma))
    deviations = []
    for k in range(1, 13):
        expected = alpha * m_matrix(k).homogeneous if k in (5, 7, 9) else 0.0
        dev = float(np.max(np.abs(bracket(system.dissipator,
                                          m_matrix(k)).homogeneous
                                  - expected)))
        if dev > 1e-12:
            deviations.append("[D,M%d] off by %.3g" % (k, dev))
    if deviations:
        problems.append("dissipator brackets differ from (0, alpha b) "
                        "with alpha = %.6g: %s"
                        % (alpha, ", ".join(deviations)))
    if accessibility(system).accessible:
        problems.append("reported accessible")
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        v0 = CoherenceVector(2, rng.uniform(-0.4, 0.4, 3))
        traj = propagate(system, random_piecewise(rng, 1.0, 3, bound=5.0),
                         v0)
        norms = np.array([s.norm() for s in traj.states])
        worst = max(worst, float(np.max(np.abs(
            norms - v0.norm() * np.exp(alpha * traj.times)))))
    if worst > 1e-8:
        problems.append("norm law exp(alpha t) violated by %.3g" % worst)
    _report(capsys, 4, not problems, "; ".join(problems))


def test_criterion_05_determinant_law_random_systems(capsys):
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        system = two_level_system(0.4 * random_psd(rng, 3),
                                  h0=0.7 * rng.normal(size=3))
        traj = propagate(system, random_piecewise(rng, 1.0, 3),
                         CoherenceVector(2, rng.uniform(-0.35, 0.35, 3)))
        worst = max(worst, determinant_check(traj, system))
    ok = worst < 1e-8
    _report(capsys, 5, ok,
            "" if ok else "max |det g(t) - exp(tr t)| = %.3g" % worst)


def test_criterion_06_unital_monotonicity(capsys):
    problems = []
    v0 = CoherenceVector(2, [0.3, 0.2, 0.4])
    for name in ("depolarizing", "phase_flip", "bit_flip", "bit_phase_flip"):
        result = sample_reachable(preset(name, gamma=0.6), v0, 1.0,
                                  num_samples=1000, seed=60)
        if result.max_norm_increase > 1e-10:
            problems.append("%s: a trajectory norm grew by %.3g"
                            % (name, result.max_norm_increase))
        if np.any(np.diff(result.max_norms) > 1e-10):
            problems.append("%s: max-norm statistics increase along the grid"
                            % name)
        if not result.nested_balls_ok:
            problems.append("%s: nested-ball check failed" % name)
    _report(capsys, 6, not problems, "; ".join(problems))


def test_criterion_07_gks_conjugate_symmetry_and_realness(capsys):
    # the conjugate-pair symmetry and the L_jk sum are the gks_symmetry
    # self-check
    ok, detail = dict(CHECKS)["gks_symmetry"]()
    problems = [] if ok else [detail]
    rng = np.random.default_rng(707)
    for N in (2, 3, 4):
        basis = gellmann_basis(N)
        for i in range(100):
            a = random_hermitian(rng, basis.n)
            try:
                assemble_dissipator(GksMatrix(a), basis)
            except ValueError as exc:
                problems.append("N=%d sample %d: %s" % (N, i, exc))
                break
    _report(capsys, 7, not problems, "; ".join(problems))


def test_criterion_08_single_entry_assemblies_match_table(capsys):
    # the nine single-entry cases are the generator_table self-check
    ok, detail = dict(CHECKS)["generator_table"]()
    _report(capsys, 8, ok, "" if ok else detail)


def test_criterion_09_random_psd_taxonomy_and_trace(capsys):
    rng = np.random.default_rng(909)
    forbidden = {"sl(n)", "(ad_su) x R^n", "sl(n) x R^n"}
    problems = []
    for i in range(1000):
        if i % 101 == 0:
            a = np.zeros((3, 3), dtype=complex)
        elif i % 5 == 0:
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            a = np.outer(b, b.conj()) / 3.0
        else:
            a = random_psd(rng, 3)
        system = two_level_system(a)
        label = accessibility(system).classification
        if label in forbidden:
            problems.append("sample %d classified as %s" % (i, label))
            break
        trace = float(np.trace(system.dissipator.linear))
        if abs(trace) <= 1e-10 and np.linalg.norm(a) >= 1e-10:
            problems.append("sample %d: vanishing trace for a nonzero "
                            "GKS matrix" % i)
            break
    _report(capsys, 9, not problems, "; ".join(problems))


def test_criterion_10_purity_rate_oracle(capsys):
    problems = []
    h = 1e-5
    for name in PRESET_NAMES:
        system = preset(name, gamma=0.8)
        traj = propagate(system, PiecewiseControl.zero(3, 2.0 * h),
                         CoherenceVector(2, [0.25, -0.15, 0.35]),
                         samples_per_segment=2)
        fd = (traj.purities[2] - traj.purities[0]) / (2.0 * h)
        rate = purity_rate(system, traj.states[1])
        if abs(rate - fd) > 1e-6 * abs(fd):
            problems.append("%s: rate %.9g vs centered difference %.9g"
                            % (name, rate, fd))
    ad = preset("amplitude_damping", gamma=0.8)
    fp = fixed_point(ad.drift)
    if fp is None or abs(purity_rate(ad, fp)) > 1e-10:
        problems.append("rate does not vanish at the relaxation fixed point")
    if not purity_rate(ad, CoherenceVector(2, [0.0, 0.0, 0.3])) > 0.0:
        problems.append("rate not positive at (0, 0, 0.3)")
    _report(capsys, 10, not problems, "; ".join(problems))
