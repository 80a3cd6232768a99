"""Lie closure, classification, certificates, and the bracket table."""

import dataclasses
import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (ad_su_row_closure, affine_lie_dim, casimir_pieces,
                      closure_features, closure_label, closure_members,
                      d_piece_document, linear_closure, matrix_lie_dim,
                      random_psd)
from lindbladctl import (PRESET_NAMES, AffineGenerator, ControlSystem,
                        GksMatrix, accessibility, adjoint_generator,
                        assemble_dissipator, bracket, classify, closure,
                        gellmann_basis, hamiltonian_controllability,
                        is_unital, liealg, m_matrix,
                        noncontrollability_certificates, preset,
                        two_level_gks, verify_structure_constants)
from lindbladctl.cli import SystemDocument, _analyze_report
from lindbladctl.liealg import BRACKET_TABLE
from lindbladctl.selfcheck import TAXONOMY_CASES, two_level_system


def _taxonomy_systems():
    return [two_level_system(two_level_gks(params).entries)
            for _, params, _, _ in TAXONOMY_CASES]


def test_closure_of_rotations_alone():
    c = closure([m_matrix(1), m_matrix(2)])
    assert c.dim == 3 and c.converged
    assert c.classification == "ad_su"
    assert c.generations == 1


def test_closure_phase_flip_saturates_at_dim_nine():
    c = closure([m_matrix(1), m_matrix(2), m_matrix(3), m_matrix(12)])
    assert c.dim == 9
    assert c.generations == 2
    assert c.converged
    assert c.classification == "gl(n)"
    # closure stays linear: no translation ever appears
    for g in closure_members(c):
        assert np.max(np.abs(g.translation)) < 1e-12


def test_closure_reaches_full_affine_algebra():
    sys_ad = preset("amplitude_damping", gamma=1.0)
    c = closure([sys_ad.drift, *sys_ad.controls])
    assert c.dim == 12
    assert c.classification == "gl(n) x R^n"
    # orthonormal basis in the flattened inner product
    np.testing.assert_allclose(c.rows @ c.rows.T, np.eye(12), atol=1e-9)


def test_closure_generation_budget():
    sys_ad = preset("amplitude_damping", gamma=1.0)
    c = closure([sys_ad.drift, *sys_ad.controls], max_generations=1)
    assert not c.converged
    assert c.classification is None
    with pytest.raises(ValueError):
        classify(c)


def test_unconverged_accessibility_is_unknown():
    """The budget binds on the piece route (RI + D_d at N=3 needs two
    rounds) and on the affine route (one control)."""
    d_piece = d_piece_document(3).to_control_system()
    damping = preset("amplitude_damping")
    one_control = dataclasses.replace(damping, controls=damping.controls[:1])
    assert liealg._ad_su_rows(d_piece, 1e-9, 8) is not None
    assert liealg._ad_su_rows(one_control, 1e-9, 8) is None
    for system in (d_piece, one_control):
        acc = accessibility(system, max_generations=1)
        assert not acc.converged
        assert acc.classification is None
        assert acc.accessible is None


def test_closure_input_validation():
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([AffineGenerator.zero(3)])


@pytest.mark.parametrize("N, num_controls", [(2, 0), (3, 2)])
def test_accessibility_of_all_zero_generators_is_the_zero_algebra(
        N, num_controls):
    # closure rejects exactly zero generators (above); accessibility
    # answers with {0}, which is decided and not accessible
    zero = AffineGenerator.zero(N * N - 1)
    system = ControlSystem(N=N, hamiltonian=zero,
                           controls=[zero] * num_controls, dissipator=zero)
    acc = accessibility(system)
    assert (acc.accessible, acc.closure_dim, acc.classification,
            acc.generations, acc.converged, acc.route) == (
        False, 0, "other", 0, True, "affine")
    assert acc.features == {"linear_dim": 0, "translation_dim": 0,
                            "has_trace": False}


def test_classify_translation_only_subspaces():
    # rotations plus one translation direction: brackets generate all
    # translations, giving the semidirect extension of the rotation algebra
    gens = [m_matrix(1), m_matrix(2), m_matrix(3), m_matrix(9)]
    c = closure(gens)
    assert c.dim == 6
    assert c.classification == "(ad_su) x R^n"


def test_some_but_not_all_translations_read_other():
    # a rotation about x and a translation along x, which it leaves fixed:
    # the two commute, so p = 1 and q = 1 < n
    c = closure([m_matrix(1), m_matrix(9)])
    assert c.dim == 2
    assert c.features == (1, 1, False)
    assert c.classification == classify(c) == "other"
    # With a linear image of gl(n), sl(n) or ad su(N), which act
    # irreducibly on R^n, the translations of a closure are 0 or all of
    # R^n; only features decided at a tolerance can give 0 < q < n there.
    assert [liealg._label(p, 1, has_trace, 3, True)
            for p, has_trace in ((9, True), (8, False), (3, False))] \
        == ["other"] * 3


def test_classify_isotropic_damping():
    c = closure([m_matrix(1), m_matrix(2), m_matrix(3),
                 m_matrix(10) + m_matrix(11) + m_matrix(12)])
    assert c.dim == 4
    assert c.classification == "ad_su + span(I)"


def test_one_tolerance_for_acceptance_features_and_label():
    # X is in gl(n) only through a 1e-6 multiple of the identity part, so at
    # tol=1e-3 the closure, its features and its label must all read sl(n).
    x = (m_matrix(10) - m_matrix(11)
         + 1e-6 * (m_matrix(10) + m_matrix(11) + m_matrix(12)))
    system = ControlSystem(N=2, hamiltonian=AffineGenerator.zero(3),
                           controls=(m_matrix(1), m_matrix(2), m_matrix(3)),
                           dissipator=x)
    acc = accessibility(system, tol=1e-3)
    assert acc.closure_dim == 8
    assert acc.features == {"linear_dim": 8, "translation_dim": 0,
                            "has_trace": False}
    assert acc.classification == "sl(n)"
    c = closure([system.drift, *system.controls], tol=1e-3)
    assert c.classification == classify(c, tol=1e-3) == "sl(n)"
    # at the default tolerance the identity part counts
    assert accessibility(system).classification == "gl(n)"


def _random_system(rng, N=3, real=False):
    basis = gellmann_basis(N)
    entries = random_psd(rng, basis.n)
    gks = GksMatrix(entries.real if real else entries)
    return ControlSystem(
        N=N, hamiltonian=adjoint_generator(basis, rng.normal(size=basis.n)),
        controls=tuple(adjoint_generator(basis, rng.normal(size=basis.n))
                       for _ in range(2)),
        dissipator=assemble_dissipator(gks, basis), gks=gks)


def test_closure_dim_matches_affine_oracle():
    systems = [preset(name) for name in ("depolarizing", "phase_flip",
                                         "bit_flip", "bit_phase_flip",
                                         "amplitude_damping")]
    systems += _taxonomy_systems()
    rng = np.random.default_rng(31)
    randoms = [_random_system(rng) for _ in range(3)]
    for system in systems + randoms:
        gens = [system.drift, *system.controls]
        assert closure(gens).dim == affine_lie_dim(gens)[0]
    assert [closure([s.drift, *s.controls]).dim for s in randoms] == [72] * 3


def _one_control_generators(N, real, translation=None):
    """Drift and one control from rng [9100, N, k], k = 1 for a real GKS
    matrix (a translation-free drift) and 2 for a complex one; translation
    replaces the drift's translation entry 0 when given."""
    basis = gellmann_basis(N)
    rng = np.random.default_rng([9100, N, 1 if real else 2])
    entries = random_psd(rng, basis.n)
    gks = GksMatrix(entries.real if real else entries)
    drift = (adjoint_generator(basis, rng.normal(size=basis.n))
             + assemble_dissipator(gks, basis))
    if translation is not None:
        t = drift.translation.copy()
        t[0] = translation
        drift = AffineGenerator(drift.linear, t)
    return [drift, adjoint_generator(basis, rng.normal(size=basis.n))]


@pytest.mark.parametrize("generators, translated", [
    ([m_matrix(k) for k in (1, 2, 3, 12)], False),
    (_one_control_generators(3, real=True), False),
    (_one_control_generators(4, real=True), False),
    (_one_control_generators(3, real=False), True),
    (_one_control_generators(3, real=True, translation=1e-300), True),
    (_one_control_generators(4, real=True, translation=1e-300), True)],
    ids=["M1-M2-M3-M12", "real-3", "real-4", "complex-3", "1e-300-3",
         "1e-300-4"])
def test_closure_bound_comes_from_the_translations(monkeypatch, generators,
                                                   translated):
    """closure caps the bracket closure at n^2 rows, gl(n), exactly when no
    generator has a nonzero translation entry, however small; a capped
    closure reads the same rows, rounds, features and label as the n^2 + n
    one, which runs one more round that adds nothing."""
    n = generators[0].n
    m = n + 1
    bounds = []
    raw = liealg._bracket_closure

    def recording(seeds, commutator, max_dim, tol, max_generations):
        bounds.append(max_dim)
        return raw(seeds, commutator, max_dim, tol, max_generations)

    monkeypatch.setattr(liealg, "_bracket_closure", recording)
    c = closure(generators)
    assert bounds == [n * n + n if translated else n * n]
    seeds = np.array([g.homogeneous.ravel() for g in generators])
    rows, generations, converged = raw(
        seeds, liealg._matrix_commutator(m), n * n + n, 1e-9, 8)
    assert np.array_equal(c.rows, rows)
    assert (c.generations, c.converged) == (generations, converged)
    features, label = liealg._features_and_label(rows.reshape(-1, m, m), 1e-9)
    assert (c.features, c.classification) == (features, label)


def test_capped_closure_converges_on_its_last_budgeted_round():
    """M1, M2, M3 and M12 fill gl(3) on their second round.  Capped at n^2,
    the closure knows it is done; at n^2 + n it needs a third round to see
    that nothing more comes, so a budget of 2 leaves it unconverged."""
    gens = [m_matrix(k) for k in (1, 2, 3, 12)]
    c = closure(gens, max_generations=2)
    assert (c.dim, c.generations, c.converged, c.classification) == (
        9, 2, True, "gl(n)")
    seeds = np.array([g.homogeneous.ravel() for g in gens])
    rows, generations, converged = liealg._bracket_closure(
        seeds, liealg._matrix_commutator(4), 12, 1e-9, 2)
    assert (len(rows), generations, converged) == (9, 2, False)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-10, 1e-11, 1e-13])
def test_ad_su_route_translation_dim_agrees_with_unital(eps, tol):
    """On the ad su route q is 0 iff is_unital(D), the report's unital, at
    every --tol: ad su(N) acts irreducibly on R^n, so a report cannot read
    unital false next to translation_dim 0.  A = I + i eps (E12 - E21)
    has a translation of relative size about eps."""
    s = 1.0 / np.sqrt(2.0)
    doc = SystemDocument(
        N=2, h0=np.array([0.0, 0.0, 0.3]), controls=np.eye(3) * s,
        a_real=np.eye(3),
        a_imag=eps * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0]]))
    report, system = _analyze_report(doc, tol)
    assert accessibility(system, tol=tol).route == "ad_su"
    q = report["accessibility"]["features"]["translation_dim"]
    assert report["system"]["unital"] == (q == 0)
    assert q in (0, 3)


#: (gamma, h03) cells of the preset documents the closure tests sweep.
PRESET_GRID = [(gamma, h03) for gamma in (0.2, 0.7, 1.3, 2.0)
               for h03 in (0.3, -0.3, -0.9, 0.7)]


@pytest.mark.parametrize("name, expected", [("amplitude_damping", (12, 4)),
                                            ("depolarizing", (4, 0))])
def test_closure_matches_oracle_rounds_on_preset_document_grid(name, expected):
    """A bracket that is zero up to rounding is not a new direction: the
    closure dimension and generation count are the oracle's in every cell
    (the depolarizing channel is never accessible)."""
    for gamma, h03 in PRESET_GRID:
        system = SystemDocument.from_preset(
            name, gamma=gamma, h03=h03).to_control_system()
        gens = [system.drift, *system.controls]
        c = closure(gens)
        assert (c.dim, c.generations) == affine_lie_dim(gens) == expected, \
            (gamma, h03)


def _scaled_systems(seed, N, exponents):
    """(real, exponent, system): a random drift and 2 controls from
    default_rng(seed), with the GKS matrix A and its real part scaled by
    10**exponent."""
    basis = gellmann_basis(N)
    rng = np.random.default_rng(seed)
    A = random_psd(rng, basis.n)
    h0, h1, h2 = (adjoint_generator(basis, rng.normal(size=basis.n))
                  for _ in range(3))
    for real, entries in ((False, A), (True, A.real)):
        for exponent in exponents:
            gks = GksMatrix(10.0 ** exponent * entries)
            yield real, exponent, ControlSystem(
                N=N, hamiltonian=h0, controls=(h1, h2),
                dissipator=assemble_dissipator(gks, basis), gks=gks)


def _verdict(acc):
    return acc.accessible, acc.closure_dim, acc.classification


@pytest.mark.parametrize("N", [3, 4])
def test_accessibility_verdict_is_invariant_under_rate_scaling(N):
    verdicts = {False: set(), True: set()}
    for real, _, system in _scaled_systems(70 + N, N, range(-12, 13)):
        verdicts[real].add(_verdict(accessibility(system)))
    assert all(len(v) == 1 for v in verdicts.values()), verdicts


@pytest.mark.parametrize("N", [3, 4])
def test_rate_scale_sweep_gives_one_verdict_per_cell(N):
    """Ten systems per cell, GKS scale 10**e for e = -12, -9, ..., 12: a
    full A reaches gl(n) x R^n and a real A (no translation) gl(n), at
    every scale."""
    n = N * N - 1
    expected = {False: (True, n * n + n, "gl(n) x R^n"),
                True: (True, n * n, "gl(n)")}
    verdicts = {False: set(), True: set()}
    for k in range(10):
        for real, exponent, system in _scaled_systems(
                1000 * N + k, N, range(-12, 13, 3)):
            acc = accessibility(system)
            if exponent == -12:
                assert acc.accessible is not False, (k, real)
            verdicts[real].add(_verdict(acc))
    assert verdicts == {real: {v} for real, v in expected.items()}, verdicts


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-12.0, 12.0),
       real=st.booleans())
def test_rate_scale_property(seed, exponent, real):
    """At N=3 the verdict at GKS scale 10**U(-12, 12) is the scale-1 one."""
    systems = {e: system for r, e, system in
               _scaled_systems(seed, 3, (0.0, exponent)) if r == real}
    assert (_verdict(accessibility(systems[exponent]))
            == _verdict(accessibility(systems[0.0])))


def test_accessibility_does_not_need_the_affine_closure(monkeypatch):
    def no_closure(*args, **kwargs):
        raise AssertionError("affine closure called")

    monkeypatch.setattr(liealg, "closure", no_closure)
    system = _random_system(np.random.default_rng(33), 4)
    assert _verdict(accessibility(system)) == (True, 240, "gl(n) x R^n")
    # every taxonomy label and every preset document takes the same route
    for system in _oracle_systems("taxonomy") + _oracle_systems("presets"):
        accessibility(system)


#: The twelve qubit cells of the rate-scale sweep below: the taxonomy
#: families with their expected (accessible, dim, label), then the presets.
QUBIT_CELLS = (
    [(name, two_level_gks(params).entries,
      (label in liealg.ACCESSIBLE_LABELS, dim, label))
     for name, params, dim, label in TAXONOMY_CASES]
    + [(name, preset(name).gks.entries, expected) for name, expected in (
        ("depolarizing", (False, 4, "ad_su + span(I)")),
        ("phase_flip", (True, 9, "gl(n)")),
        ("bit_flip", (True, 9, "gl(n)")),
        ("bit_phase_flip", (True, 9, "gl(n)")),
        ("amplitude_damping", (True, 12, "gl(n) x R^n")))])


@pytest.mark.parametrize("name, entries, expected", QUBIT_CELLS,
                         ids=[cell[0] for cell in QUBIT_CELLS])
def test_qubit_rate_scale_sweep_gives_one_verdict_per_cell(name, entries,
                                                           expected):
    """GKS matrix scaled by 10**e for e = -12..12 with h0 = (0.3, 0, 0.1):
    every label, not only gl(n), reads the same at every scale.  So it does
    for e = 150..300, where the squares of the entries overflow a double."""
    verdicts = {_verdict(accessibility(two_level_system(
        10.0 ** e * entries, h0=(0.3, 0.0, 0.1))))
        for e in [*range(-12, 13), 150, 160, 200, 300]}
    assert verdicts == {expected}


def _frame(rng, N):
    """Orthogonal O_jk = tr(lambda_j U lambda_k U^dagger), U random unitary."""
    lam = np.array(gellmann_basis(N).lambdas)
    u, _ = np.linalg.qr(rng.normal(size=(N, N))
                        + 1j * rng.normal(size=(N, N)))
    return np.einsum("jab,bc,kcd,da->jk", lam, u, lam, u.conj().T).real


def _rotated(system, O):
    def rotate(g):
        return AffineGenerator(O @ g.linear @ O.T, O @ g.translation)
    return ControlSystem(N=system.N, hamiltonian=rotate(system.hamiltonian),
                         controls=tuple(map(rotate, system.controls)),
                         dissipator=rotate(system.dissipator))


#: (N, dissipator) of the frame-invariance property: random complex or real
#: GKS matrices, and the qubit taxonomy families for the other labels.
FRAME_CASES = ([(N, kind) for N in (2, 3) for kind in ("complex", "real")]
               + [(2, params) for _, params, _, _ in TAXONOMY_CASES])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(FRAME_CASES),
       single_control=st.booleans())
def test_accessibility_report_is_frame_invariant(seed, case, single_control):
    """Conjugating every generator by the orthogonal map of a unitary frame
    change leaves the report unchanged, on the ad su(N) route (all
    controls) and on the affine route (a single control)."""
    rng = np.random.default_rng(seed)
    N, kind = case
    basis = gellmann_basis(N)
    if kind in ("complex", "real"):
        entries = random_psd(rng, basis.n)
        entries = entries.real if kind == "real" else entries
    else:
        entries = two_level_gks(kind).entries
    h0, *controls = (adjoint_generator(basis, rng.normal(size=basis.n))
                     for _ in range(2 if single_control else 3))
    system = ControlSystem(
        N=N, hamiltonian=h0, controls=controls,
        dissipator=assemble_dissipator(GksMatrix(entries), basis))
    assert (liealg._ad_su_rows(system, 1e-9, 8) is None) == single_control
    assert (accessibility(_rotated(system, _frame(rng, N)))
            == accessibility(system))


def _skew(rng, n, support):
    b = np.zeros((n, n))
    b[:support, :support] = rng.normal(size=(support, support))
    return AffineGenerator(b - b.T)


def test_skew_controls_outside_ad_su_take_the_affine_route():
    """Skew controls that are not Hamiltonians can close to dimension n
    without being ad su(N).  Here they share the null vector e_8, which the
    dissipator also fixes, so the algebra is gl(n) with no translations;
    read as ad su(N), the rows would give gl(n) x R^n."""
    rng = np.random.default_rng(34)
    L = rng.normal(size=(8, 8))
    system = ControlSystem(N=3, hamiltonian=AffineGenerator.zero(8),
                           controls=(_skew(rng, 8, 7), _skew(rng, 8, 7)),
                           dissipator=AffineGenerator(L, -L[:, 7]))
    assert _verdict(accessibility(system)) == (True, 64, "gl(n)")
    assert affine_lie_dim([system.drift, *system.controls])[0] == 64


def test_non_hamiltonian_drift_takes_the_affine_route(monkeypatch):
    calls = []

    def counting_closure(*args, **kwargs):
        calls.append(1)
        return closure(*args, **kwargs)

    monkeypatch.setattr(liealg, "closure", counting_closure)
    system = dataclasses.replace(
        _random_system(np.random.default_rng(35)),
        hamiltonian=_skew(np.random.default_rng(36), 8, 8))
    acc = accessibility(system)
    assert calls == [1]
    assert acc.closure_dim == affine_lie_dim(
        [system.drift, *system.controls])[0]


def _u2_plus_u2_system():
    """N = 3 with two skew controls in u(2) + u(2), block diagonal on
    R^4 + R^4, and D = -I on the first block."""
    def realify(m):
        return np.block([[m.real, -m.imag], [m.imag, m.real]])

    u2 = [realify(1j * m) / 2 for m in (np.array([[0, 1], [1, 0]]),
                                         np.array([[0, -1j], [1j, 0]]),
                                         np.diag([1, -1]), np.eye(2))]
    rng = np.random.default_rng(37)

    def control():
        linear = np.zeros((8, 8))
        linear[:4, :4] = np.tensordot(rng.normal(size=4), u2, axes=1)
        linear[4:, 4:] = np.tensordot(rng.normal(size=4), u2, axes=1)
        return AffineGenerator(linear)

    return ControlSystem(N=3, hamiltonian=AffineGenerator.zero(8),
                         controls=(control(), control()),
                         dissipator=AffineGenerator(
                             -np.diag([1.0] * 4 + [0.0] * 4)))


def test_skew_controls_closing_to_u2_plus_u2_take_the_affine_route():
    """u(2) + u(2) is a Lie algebra of dimension n = 8 at N = 3 whose
    orthonormal rows R also give sum R^T R = I, but it is not ad su(N), so
    the Casimir pieces do not apply.  Its closure with the dissipator has
    dimension 9; read through the pieces it would be gl(n).  The closure
    of the controls alone, and with the identity added, is "other" too,
    not ad su(N) or ad su(N) + RI."""
    system = _u2_plus_u2_system()
    assert affine_lie_dim(system.controls)[0] == 8
    assert liealg._ad_su_rows(system, 1e-9, 8) is None
    assert _verdict(accessibility(system)) == (False, 9, "other")
    assert affine_lie_dim([system.drift, *system.controls])[0] == 9
    for gens, dim in [(system.controls, 8),
                      ((*system.controls, AffineGenerator(np.eye(8))), 9)]:
        c = closure(gens)
        assert c.dim == dim
        assert (c.classification == classify(c)
                == closure_label(closure_members(c), 8, 1e-9) == "other")


def _route_documents():
    """Documents on both routes: the preset grid, the qubit taxonomy,
    random systems with 1 to 3 controls at N = 2..5, and one commuting
    (diagonal) control with a diagonal drift, closed-system rank 1."""
    docs = [SystemDocument.from_preset(name, gamma=gamma, h03=h03)
            for name in PRESET_NAMES for gamma, h03 in PRESET_GRID]
    for _, params, _, _ in TAXONOMY_CASES:
        entries = two_level_gks(params).entries
        docs.append(SystemDocument(N=2, h0=np.zeros(3),
                                   controls=np.eye(3) / np.sqrt(2.0),
                                   a_real=entries.real, a_imag=entries.imag))
    rng = np.random.default_rng(60)
    for N in (2, 3, 4, 5):
        n = N * N - 1
        for h0, controls in [(rng.normal(size=n), rng.normal(size=(q, n)))
                             for q in (1, 2, 3)] + [(np.eye(n)[-1],
                                                     np.eye(n)[-1:])]:
            A = random_psd(rng, n)
            docs.append(SystemDocument(N=N, h0=h0, controls=controls,
                                       a_real=A.real, a_imag=A.imag))
    return docs


def test_route_matches_row_closure_oracle():
    """_ad_su_rows, which closes the controls' coefficient vectors, takes
    the route the n^2-row closure of their linear parts took, on the
    route documents, on one-control presets and on skew controls outside
    ad su(N)."""
    damping = preset("amplitude_damping")
    systems = ([doc.to_control_system() for doc in _route_documents()]
               + [dataclasses.replace(damping, controls=damping.controls[:1]),
                  _u2_plus_u2_system()])
    routes = []
    for system in systems:
        oracle = ad_su_row_closure(system) is not None
        assert (liealg._ad_su_rows(system, 1e-9, 8) is not None) == oracle
        assert accessibility(system).route == ("ad_su" if oracle
                                               else "affine")
        routes.append(oracle)
    # the affine route: the one-control documents and the last two systems
    assert routes.count(False) == 10 and routes.count(True) == 95


def test_analyze_hamiltonian_block_matches_rank_test():
    """analyze reads the Hamiltonian block off the ad su(N) route when it
    can; the block still equals hamiltonian_controllability everywhere."""
    seen = set()
    for doc in _route_documents():
        block = _analyze_report(doc, 1e-9)[0]["hamiltonian_controllability"]
        ham = hamiltonian_controllability(gellmann_basis(doc.N), doc.h0,
                                          doc.controls)
        assert block == {"controllable": ham.controllable, "dim": ham.dim}
        seen.add(ham.controllable)
    assert seen == {True, False}


@pytest.mark.parametrize("N", range(2, 8))
def test_ad_su_basis_rows_are_orthonormal(N):
    rows = liealg._ad_su_basis(N)
    assert rows.shape == (N * N - 1, (N * N - 1) ** 2)
    np.testing.assert_allclose(rows @ rows.T, np.eye(N * N - 1), atol=1e-12)
    assert not rows.flags.writeable


def test_per_n_route_data_is_built_on_first_use():
    """Importing the CLI and building the basis leave the per-N route
    caches empty.  The first accessibility call at N builds the basis and
    the projector; the phase-flip dissipator reaches every piece at once,
    so no bracket round runs and the generic elements are not drawn."""
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("import lindbladctl.cli\n"
            "from lindbladctl import liealg, preset\n"
            "from lindbladctl.su_basis import gellmann_basis\n"
            "caches = (liealg._ad_su_basis, liealg._piece_projector,\n"
            "          liealg._generic_pieces)\n"
            "gellmann_basis(4)\n"
            "print([c.cache_info().currsize for c in caches])\n"
            "liealg.accessibility(preset('phase_flip'))\n"
            "print([c.cache_info().currsize for c in caches])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[0, 0, 0]", "[1, 1, 0]"]


#: Dimensions of the nonempty pieces of gl(n) under ad su(N) (ROADMAP
#: direction 1, after Slansky 1981).
def _table_dims(N):
    n = N * N - 1
    dims = {"RI": 1, "K": n, "E_c": n * (n - 3) // 2,
            "D_d": n if N >= 3 else 0,
            "E+": N * N * (N - 1) * (N + 3) // 4,
            "E-": N * N * (N + 1) * (N - 3) // 4 if N >= 4 else 0}
    return {name: dim for name, dim in dims.items() if dim}


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_piece_projector_matches_casimir_eigenspaces(N):
    """The Lagrange projectors of the route equal the orthogonal
    projections onto the eigenspaces of the explicit Casimir matrix, and
    the piece dimensions are the table's, empty pieces dropped."""
    pieces = casimir_pieces(N)
    assert {name: len(b) for name, b in pieces.items()} == _table_dims(N)
    assert {name: dim for name, _, _, dim in liealg._piece_table(N)
            if dim} == _table_dims(N)
    project = liealg._piece_projector(N)
    x = np.random.default_rng(50 + N).normal(size=(2, N * N - 1, N * N - 1))
    parts = project(x)
    assert set(parts) == set(pieces)
    for name, b in pieces.items():
        expected = np.tensordot(np.tensordot(x, b, axes=([1, 2], [1, 2])),
                                b, axes=1)
        np.testing.assert_allclose(parts[name], expected, atol=1e-12)
    np.testing.assert_allclose(sum(parts.values()), x, atol=1e-12)


def _closure_pieces(N, start):
    """Pieces of Lie{ad su(N), start} beyond K, from the structure of gl(n).

    RI is central.  K + E_c is so(n), a subalgebra, and so is K + E- at
    N = 4, which is sl(6, R) acting on Lambda^2 R^6 (su(4) = so(6)).  Any
    other non-trace piece generates sl(n): it brackets into E_c, and
    so(n) acts irreducibly on the symmetric traceless matrices.
    """
    core = set(start) - {"RI"}
    if core in (set(), {"E_c"}) or (N == 4 and core == {"E-"}):
        return set(start)
    return (set(_table_dims(N)) - {"K", "RI"}) | (set(start) & {"RI"})


def _piece_system(N, linear, rng, translation=None):
    basis = gellmann_basis(N)
    return ControlSystem(
        N=N, hamiltonian=adjoint_generator(basis, rng.normal(size=basis.n)),
        controls=tuple(adjoint_generator(basis, rng.normal(size=basis.n))
                       for _ in range(2)),
        dissipator=AffineGenerator(linear, translation))


def _in_pieces(pieces, names, rng):
    """A generic element of the named pieces, from their eigh bases."""
    return sum(np.tensordot(rng.normal(size=len(pieces[name])),
                            pieces[name], axes=1) for name in names)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_one_and_two_piece_dissipators(N):
    """Every dissipator built from one or two pieces, half of them with a
    translation: p = n + the table dimensions of the pieces the algebra
    holds, and the features and label follow from that set."""
    n = N * N - 1
    dims = _table_dims(N)
    pieces = casimir_pieces(N)
    names = sorted(set(dims) - {"K"})
    rng = np.random.default_rng(60 + N)
    combos = [(a,) for a in names] + list(itertools.combinations(names, 2))
    for i, combo in enumerate(combos):
        translation = rng.normal(size=n) if i % 2 else None
        system = _piece_system(N, _in_pieces(pieces, combo, rng), rng,
                               translation)
        held = _closure_pieces(N, combo)
        q = 0 if translation is None else n
        acc = accessibility(system)
        assert acc.features == {
            "linear_dim": n + sum(dims[name] for name in held),
            "translation_dim": q, "has_trace": "RI" in held}, combo
        assert acc.closure_dim == acc.features["linear_dim"] + q
        base = {frozenset({"RI"}): "ad_su + span(I)",
                frozenset(set(names) - {"RI"}): "sl(n)",
                frozenset(names): "gl(n)"}.get(frozenset(held), "other")
        suffix = "" if q == 0 or base == "other" else " x R^n"
        if suffix and base == "ad_su + span(I)":
            base = "(%s)" % base
        assert acc.classification == base + suffix, combo
        assert acc.converged and acc.accessible == (base == "gl(n)")
        if N == 3:
            c = closure([system.drift, *system.controls])
            assert c.classification == acc.classification, combo


@pytest.mark.parametrize("N, seeds", [(4, 8), (5, 3)])
def test_d_piece_alone_is_sl_n(N, seeds):
    """A traceless dissipator made of the D_d piece alone generates sl(n).
    The n^2-row closure (_oracles.linear_closure) accepted two rounding
    residuals just above tol and then the identity, and answered gl(n)
    on some of these seeds; traceless generators cannot produce it."""
    n = N * N - 1
    pieces = casimir_pieces(N)
    for seed in range(seeds):
        rng = np.random.default_rng([70, N, seed])
        system = _piece_system(N, _in_pieces(pieces, ["D_d"], rng), rng)
        assert abs(np.trace(system.dissipator.linear)) < 1e-12
        acc = accessibility(system)
        assert _verdict(acc) == (False, n * n - 1, "sl(n)")
        assert acc.features["has_trace"] is False
        assert acc.generations == 2


def test_empty_pieces_at_N2():
    """At N=2 the pieces E_c, D_d and E- are empty (and 2N - 2 = N, so D_d
    and E- would share a Casimir value); the route drops them, and the
    symmetric traceless part is E+ alone."""
    assert [name for name, _, _, dim in liealg._piece_table(2) if dim] == [
        "RI", "K", "E+"]
    rng = np.random.default_rng(41)
    pieces = casimir_pieces(2)
    cases = [(["E+"], (False, 8, "sl(n)")), (["RI"], (False, 4,
                                                      "ad_su + span(I)")),
             (["RI", "E+"], (True, 9, "gl(n)")), ([], (False, 3, "ad_su"))]
    for names, expected in cases:
        linear = (_in_pieces(pieces, names, rng) if names
                  else np.zeros((3, 3)))
        acc = accessibility(_piece_system(2, linear, rng))
        assert _verdict(acc) == expected, names
        assert acc.generations == 0


def _linear_oracle_systems(group):
    if group != "random":
        return _oracle_systems(group)
    rng = np.random.default_rng(42)
    return [_random_system(rng, N, real) for N in (2, 3, 4, 5, 6)
            for real in ((False,) if N == 6 else (False, True))]


@pytest.mark.parametrize("group", ["random", "presets", "taxonomy"])
def test_piece_route_matches_linear_closure_oracle(group):
    """p, q, has_trace and the label of the piece route equal those of the
    n^2-row linear closure it replaced, at N = 2..6 for random systems."""
    for system in _linear_oracle_systems(group):
        acc = accessibility(system)
        f = acc.features
        assert (f["linear_dim"], f["translation_dim"], f["has_trace"],
                acc.classification, acc.converged) == linear_closure(system)


def _oracle_systems(group):
    if group == "presets":
        return [SystemDocument.from_preset(name, gamma=gamma, h03=h03)
                .to_control_system()
                for name in PRESET_NAMES for gamma, h03 in PRESET_GRID]
    if group == "taxonomy":
        return _taxonomy_systems()
    if group == "random":
        rng = np.random.default_rng(32)
        return ([_random_system(rng, 3) for _ in range(3)]
                + [_random_system(rng, 4) for _ in range(2)])
    # the rate-scaled family: full and real A, scales 1e-3..1e3
    return [system for N in (3, 4)
            for _, _, system in _scaled_systems(70 + N, N, range(-3, 4))]


@pytest.mark.parametrize("group", ["presets", "taxonomy", "random",
                                   "rate_scaled"])
def test_features_and_label_match_per_member_oracle(group):
    """The report's size, features and label equal the per-AffineGenerator
    oracle's, read off the members of the affine closure of the same
    generators, whichever route accessibility took."""
    labels = set()
    for system in _oracle_systems(group):
        acc = accessibility(system)
        c = closure([system.drift, *system.controls])
        assert not c.rows.flags.writeable
        members = closure_members(c)
        p, q, has_trace = closure_features(members, c.n, 1e-9)
        assert acc.features == {"linear_dim": p, "translation_dim": q,
                                "has_trace": has_trace}
        assert acc.closure_dim == c.dim == p + q
        label = closure_label(members, c.n, 1e-9)
        assert acc.classification == c.classification == classify(c) == label
        labels.add(label)
    if group == "taxonomy":
        assert len(labels) == 7


def test_classify_computes_features_at_its_own_tol():
    cases = _oracle_systems("taxonomy") + _oracle_systems("random")[:1]
    for system in cases:
        c = closure([system.drift, *system.controls])
        # the features cached at the closure's tol are not consulted
        poisoned = dataclasses.replace(c, features=(0, 0, False))
        for tol in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            assert classify(poisoned, tol=tol) == closure_label(
                closure_members(c), c.n, tol)


def test_accessibility_verdicts_for_presets():
    assert not accessibility(preset("depolarizing")).accessible
    assert accessibility(preset("phase_flip")).accessible
    assert accessibility(preset("bit_flip")).accessible
    assert accessibility(preset("bit_phase_flip")).accessible
    acc = accessibility(preset("amplitude_damping"))
    assert acc.accessible and acc.closure_dim == 12
    assert acc.features == {"linear_dim": 9, "translation_dim": 3,
                            "has_trace": True}


@pytest.mark.parametrize("tol", [np.nan, np.inf, 1e300, 1.0, -1.0, 0.0])
def test_tol_outside_unit_interval_is_refused(tol):
    # a tol of 0 or less keeps rounding residuals, 1 or more drops everything
    system = preset("depolarizing")
    message = "^%s$" % re.escape("tol must be finite and in (0, 1), got %r"
                                 % tol)
    generators = [system.drift, *system.controls]
    with pytest.raises(ValueError, match=message):
        closure(generators, tol=tol)
    with pytest.raises(ValueError, match=message):
        classify(closure(generators), tol=tol)
    with pytest.raises(ValueError, match=message):
        accessibility(system, tol=tol)
    with pytest.raises(ValueError, match=message):
        hamiltonian_controllability(gellmann_basis(2), None, [[1.0, 0, 0]],
                                    tol=tol)


def test_control_system_validation():
    basis = gellmann_basis(2)
    diss = assemble_dissipator(np.diag([0.0, 0.0, 1.0]).astype(complex),
                               basis)
    with pytest.raises(ValueError):
        # a dissipative generator is not a valid control
        ControlSystem(N=2, hamiltonian=AffineGenerator.zero(3),
                      controls=(diss,), dissipator=diss)
    with pytest.raises(ValueError):
        ControlSystem(N=2, hamiltonian=AffineGenerator.zero(8),
                      controls=(), dissipator=diss)
    system = ControlSystem(N=2, hamiltonian=AffineGenerator.zero(3),
                           controls=(), dissipator=diss)
    np.testing.assert_allclose(system.drift.homogeneous, diss.homogeneous)


def test_control_system_admissible_is_derived_from_gks():
    basis = gellmann_basis(2)
    a = np.diag([0.0, 0.0, 1.0])
    diss = assemble_dissipator(GksMatrix(a), basis)
    fields = dict(N=2, hamiltonian=AffineGenerator.zero(3), controls=(),
                  dissipator=diss)
    assert ControlSystem(**fields).admissible is True  # no gks: assumed
    assert ControlSystem(**fields, gks=GksMatrix(a)).admissible is True
    assert ControlSystem(**fields, gks=GksMatrix(-a)).admissible is False
    with pytest.raises(TypeError):
        ControlSystem(**fields, admissible=True)


@pytest.mark.parametrize("N", [3, 4, 7])
def test_control_system_checks_are_scale_relative(N):
    basis = gellmann_basis(N)
    rng = np.random.default_rng(80 + N)
    diss = AffineGenerator.zero(basis.n)
    big = adjoint_generator(basis, 1e5 * rng.normal(size=basis.n))
    ControlSystem(N=N, hamiltonian=big, controls=(big,), dissipator=diss)
    # a 1% symmetric defect is still rejected, as Hamiltonian and as control
    skewed = AffineGenerator(big.linear + 0.01 * np.abs(big.linear))
    with pytest.raises(ValueError, match="skew-symmetric"):
        ControlSystem(N=N, hamiltonian=skewed, controls=(), dissipator=diss)
    with pytest.raises(ValueError, match="skew-symmetric"):
        ControlSystem(N=N, hamiltonian=big, controls=(skewed,),
                      dissipator=diss)
    shifted = AffineGenerator(big.linear, 0.01 * np.abs(big.linear).max()
                              * np.ones(basis.n))
    with pytest.raises(ValueError, match="translation"):
        ControlSystem(N=N, hamiltonian=shifted, controls=(), dissipator=diss)


def test_certificates_unital_channel():
    report = noncontrollability_certificates(preset("depolarizing", gamma=0.5))
    assert report.active_names == ("trace", "unital", "finite_time")
    trace_cert = report.certificates[0]
    assert trace_cert.value == pytest.approx(-6.0 * 0.5)
    assert report.note is None


def test_certificates_phase_flip_trace_value():
    report = noncontrollability_certificates(preset("phase_flip", gamma=0.7))
    assert "trace" in report.active_names and "unital" in report.active_names
    assert report.certificates[0].value == pytest.approx(-2.0 * 0.7)


def test_certificates_amplitude_damping():
    report = noncontrollability_certificates(
        preset("amplitude_damping", gamma=0.7))
    assert report.active_names == ("trace", "finite_time")
    assert report.certificates[0].value == pytest.approx(-2.0 * 0.7)
    assert not report.certificates[1].active
    assert report.note is not None and "full ball" in report.note


def test_certificates_vanish_without_dissipation():
    system = ControlSystem(N=2, hamiltonian=1.0 * m_matrix(3),
                           controls=(m_matrix(1),),
                           dissipator=AffineGenerator.zero(3))
    report = noncontrollability_certificates(system)
    assert report.active_names == ()


def _noise_verdict(system):
    """admissible, gks_on_boundary, unital and the active certificates."""
    return (system.admissible, system.psd.on_boundary,
            is_unital(system.dissipator),
            noncontrollability_certificates(system).active_names)


def _gks_system(N, entries):
    basis = gellmann_basis(N)
    gks = GksMatrix(entries)
    return ControlSystem(N=N, hamiltonian=AffineGenerator.zero(basis.n),
                         controls=(),
                         dissipator=assemble_dissipator(gks, basis), gks=gks)


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("h03", [0.0, 0.7])
def test_preset_noise_verdicts_are_invariant_under_rate_scaling(name, h03):
    """gamma = 0.7 * 10**e for e = -12..12: admissible, gks_on_boundary,
    unital and the certificates read the same at every scale."""
    verdicts = {_noise_verdict(SystemDocument.from_preset(
        name, gamma=0.7 * 10.0 ** e, h03=h03).to_control_system())
        for e in range(-12, 13)}
    assert len(verdicts) == 1, verdicts


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("rank2", [False, True], ids=["full", "rank2"])
def test_random_noise_verdicts_are_invariant_under_rate_scaling(N, rank2):
    """Random full-rank and rank-2 PSD GKS matrices scaled by 10**e,
    e = -12..12: one verdict per matrix, on the boundary iff rank 2."""
    n = N * N - 1
    for k in range(3):
        rng = np.random.default_rng([77, N, k])
        entries = random_psd(rng, n, rank=2 if rank2 else None)
        verdicts = {_noise_verdict(_gks_system(N, 10.0 ** e * entries))
                    for e in range(-12, 13)}
        assert len(verdicts) == 1, (k, verdicts)
        (admissible, on_boundary, unital, active), = verdicts
        assert admissible and on_boundary == rank2 and not unital
        assert active == ("trace", "finite_time")


def test_hamiltonian_controllability_two_level():
    basis = gellmann_basis(2)
    ez = np.eye(3)[2]
    ex = np.eye(3)[0]
    r = hamiltonian_controllability(basis, ez, [ex])
    assert r.controllable and r.dim == 3
    r = hamiltonian_controllability(basis, ez, [ez])
    assert not r.controllable and r.dim == 1
    r = hamiltonian_controllability(basis, None, [ex, ez])
    assert r.controllable
    r = hamiltonian_controllability(basis, np.zeros(3), [np.zeros(3)])
    assert not r.controllable and r.dim == 0
    with pytest.raises(ValueError):
        hamiltonian_controllability(basis, ez, [])


@pytest.mark.parametrize("N", [2, 3])
def test_hamiltonian_controllability_matches_matrix_oracle(N):
    basis = gellmann_basis(N)
    rng = np.random.default_rng(200 + N)
    for _ in range(5):
        h0 = rng.normal(size=basis.n)
        hks = [rng.normal(size=basis.n)]
        r = hamiltonian_controllability(basis, h0, hks)
        assert r.dim == matrix_lie_dim([h0, *hks], basis)
    # single repeated direction: always dimension 1
    h = rng.normal(size=basis.n)
    r = hamiltonian_controllability(basis, h, [h])
    assert r.dim == matrix_lie_dim([h, h], basis) == 1


def test_bracket_table_spot_checks():
    # a few brackets that hold entrywise
    np.testing.assert_allclose(
        bracket(m_matrix(1), m_matrix(12)).homogeneous,
        (-1.0 * m_matrix(8)).homogeneous, atol=1e-12)
    np.testing.assert_allclose(
        bracket(m_matrix(2), m_matrix(12)).homogeneous,
        m_matrix(6).homogeneous, atol=1e-12)
    np.testing.assert_allclose(
        bracket(m_matrix(1), m_matrix(6)).homogeneous,
        (-1.0 * m_matrix(4)).homogeneous, atol=1e-12)
    np.testing.assert_allclose(
        bracket(m_matrix(5), m_matrix(10)).homogeneous,
        m_matrix(5).homogeneous, atol=1e-12)


def test_structure_constant_report_inventory():
    """Every tabulated coefficient agrees with the bracket recomputed from
    the generator matrices."""
    report = verify_structure_constants()
    assert report.pairs_checked == 66
    assert report.coefficients_checked == 792
    assert report.max_expansion_residual < 1e-12
    assert report.mismatches == ()
    assert report.ok


def _jacobi_violations(table):
    """Number of (i < j < k, m) slots where the cyclic sum of
    [[M_i, M_j], M_k] fails to vanish, in exact integer arithmetic."""
    c = np.zeros((12, 12, 12), dtype=np.int64)
    for (j, k, l), v in table.items():
        assert v == int(v) and j < k
        c[j - 1, k - 1, l - 1] = int(v)
        c[k - 1, j - 1, l - 1] = -int(v)
    nested = np.einsum("ijl,lkm->ijkm", c, c)
    jacobi = (nested + nested.transpose(1, 2, 0, 3)
              + nested.transpose(2, 0, 1, 3))
    i, j, k = np.ogrid[:12, :12, :12]
    return int(np.count_nonzero(jacobi[(i < j) & (j < k)]))


def test_bracket_table_jacobi_identity():
    """The table alone satisfies the Jacobi identity.

    This oracle uses neither the generator matrices nor a least-squares
    expansion.  The paper's printed coefficients for [M1,M8], [M2,M5],
    [M2,M6] and [M3,M4] fail it, so no matrices can realize them.
    """
    assert _jacobi_violations(BRACKET_TABLE) == 0
    printed = dict(BRACKET_TABLE)
    del printed[(2, 6, 12)]
    printed.update({(1, 8, 11): -1.0, (1, 8, 12): 1.0, (2, 5, 9): -1.0,
                    (2, 6, 10): 1.0, (2, 6, 11): -1.0, (3, 4, 10): -1.0,
                    (3, 4, 11): 1.0})
    assert _jacobi_violations(printed) == 34


def test_random_psd_never_hits_traceless_labels():
    rng = np.random.default_rng(77)
    forbidden = {"sl(n)", "(ad_su) x R^n", "sl(n) x R^n"}
    for _ in range(25):
        system = two_level_system(random_psd(rng, 3))
        acc = accessibility(system)
        assert acc.classification not in forbidden
        assert np.trace(system.dissipator.linear) < -1e-10
