"""Built-in self-checks, run by ``lindbladctl verify`` and by the tests.

CHECKS holds (name, fn) pairs in report order; fn() returns (ok, detail),
a bool and one line of text.  tests/test_selfcheck.py runs each check as
its own case, so every check is written once.  paper_Ljk evaluates the
paper's per-pair dissipation matrices L_jk (formula in dissipator), which
assemble_dissipator never forms.
"""

import numpy as np

from .channels import m_matrix, preset
from .cli import SystemDocument
from .dissipator import (GksMatrix, assemble_dissipator, fixed_point,
                         two_level_gks)
from .dynamics import PiecewiseControl, determinant_check, propagate
from .liealg import (ACCESSIBLE_LABELS, accessibility,
                     hamiltonian_controllability, verify_structure_constants)
from .states import UNIT_PURITY_TOL, CoherenceVector, purity
from .su_basis import gellmann_basis, structure_tensors

#: Representative coefficient families of the two-level taxonomy:
#: (name, (a4..a12), expected closure dim, expected label).  The closure is
#: generated by the dissipator together with the three rotation controls.
TAXONOMY_CASES = (
    ("traceless_real_offdiag", (0.3, 0.0, 0.2, 0.0, 0.5, 0.0, 1.0, -0.4, -0.6),
     8, "sl(n)"),
    ("traceful_real_offdiag", (0.3, 0.0, 0.2, 0.0, 0.5, 0.0, 1.0, 0.4, 0.2),
     9, "gl(n)"),
    ("pure_translation", (0.0, 0.4, 0.0, -0.3, 0.0, 0.25, 0.0, 0.0, 0.0),
     6, "(ad_su) x R^n"),
    ("traceless_generic", (0.3, 0.15, 0.2, -0.1, 0.5, 0.05, 1.0, -0.4, -0.6),
     11, "sl(n) x R^n"),
    ("traceful_generic", (0.3, 0.15, 0.2, -0.1, 0.5, 0.05, 1.0, 0.5, 0.7),
     12, "gl(n) x R^n"),
    ("isotropic_diagonal", (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.8, 0.8),
     4, "ad_su + span(I)"),
    ("isotropic_with_translation", (0.0, 0.3, 0.0, 0.2, 0.0, -0.4, 0.8, 0.8, 0.8),
     7, "(ad_su + span(I)) x R^n"),
)

#: Single-coefficient GKS matrices of the qubit and the tabulated generator
#: each assembles to: (j, k, a_jk, m) sets a_jk, a_kj = conj(a_jk) -> M_m.
GENERATOR_CASES = (
    (1, 2, 1.0, 4), (1, 2, 1.0j, 5),
    (1, 3, 1.0, 6), (1, 3, 1.0j, 7),
    (2, 3, 1.0, 8), (2, 3, 1.0j, 9),
    (1, 1, 1.0, 10), (2, 2, 1.0, 11), (3, 3, 1.0, 12),
)


def two_level_system(entries, h0=(0.0, 0.0, 0.0)):
    """Qubit system for a 3 x 3 GKS matrix; controls: the axis rotations."""
    entries = np.asarray(entries, dtype=complex)
    return SystemDocument(N=2, h0=h0, controls=np.eye(3) / np.sqrt(2.0),
                          a_real=entries.real,
                          a_imag=entries.imag).to_control_system()


def paper_Ljk(basis):
    """The paper's L_jk for every pair, as L[j - 1, k - 1] of one array."""
    f, d = structure_tensors(basis)
    return -0.25 * (np.einsum("jmr,kml->jklr", f + 1.0j * d, f)
                    + np.einsum("kmr,jml->jklr", f - 1.0j * d, f))


def _check_structure_constants():
    r = verify_structure_constants()
    if r.ok:
        return True, ("%d pairs, %d coefficients match the table"
                      % (r.pairs_checked, r.coefficients_checked))
    items = "; ".join("(%d,%d,%d) expected %.17g computed %.17g" % m
                      for m in r.mismatches)
    return False, ("%d of %d coefficients disagree with the table: %s"
                   % (len(r.mismatches), r.coefficients_checked, items))


def _check_gks_symmetry():
    """sum_jk a_jk L_jk is the assembled linear part, for Hermitian A.

    assemble_dissipator never forms L_jk, so the two share no code.
    """
    rng = np.random.default_rng(20240816)
    worst = 0.0
    for N in (2, 3, 4):
        basis = gellmann_basis(N)
        b = rng.normal(size=(basis.n, basis.n)) \
            + 1.0j * rng.normal(size=(basis.n, basis.n))
        a = b + b.conj().T
        dev = np.max(np.abs(np.einsum("jk,jklr->lr", a, paper_Ljk(basis))
                            - assemble_dissipator(GksMatrix(a), basis).linear))
        worst = max(worst, float(dev) / max(1.0, np.max(np.abs(a))))
    return worst <= 1e-12, ("max |sum a_jk L_jk - assembly| / max(1, max|A|) "
                            "= %.3e over N in {2, 3, 4}" % worst)


def _check_dissipator_real():
    rng = np.random.default_rng(20240817)
    count = 0
    for N in (2, 3, 4):
        basis = gellmann_basis(N)
        for draw in range(5):
            b = rng.normal(size=(basis.n, basis.n)) \
                + 1.0j * rng.normal(size=(basis.n, basis.n))
            try:
                assemble_dissipator(GksMatrix(b + b.conj().T), basis)
            except ValueError as exc:
                return False, "N=%d draw %d: %s" % (N, draw, exc)
            count += 1
    return True, ("%d random Hermitian coefficient matrices assembled to "
                  "real generators" % count)


def _check_generator_table():
    basis = gellmann_basis(2)
    worst = 0.0
    for j, k, value, m in GENERATOR_CASES:
        a = np.zeros((3, 3), dtype=complex)
        a[j - 1, k - 1] = value
        a[k - 1, j - 1] = np.conj(value)
        got = assemble_dissipator(GksMatrix(a), basis)
        worst = max(worst, float(np.max(np.abs(got.homogeneous
                                               - m_matrix(m).homogeneous))))
    return worst <= 1e-12, ("single-coefficient assemblies reproduce the "
                            "stored generator matrices, max deviation "
                            "%.3e" % worst)


def _check_taxonomy():
    failures = []
    for name, params, dim, label in TAXONOMY_CASES:
        acc = accessibility(two_level_system(two_level_gks(params).entries))
        if (acc.closure_dim != dim or acc.classification != label
                or acc.accessible != (label in ACCESSIBLE_LABELS)):
            failures.append("%s: got dim %d label %r accessible %r, expected "
                            "dim %d label %r" % (name, acc.closure_dim,
                                                 acc.classification,
                                                 acc.accessible, dim, label))
    if failures:
        return False, "; ".join(failures)
    return True, "%d coefficient families classified as expected" \
        % len(TAXONOMY_CASES)


def _check_determinant_law():
    rng = np.random.default_rng(20240818)
    worst = 0.0
    for _ in range(3):
        b = rng.normal(size=(3, 3)) + 1.0j * rng.normal(size=(3, 3))
        system = two_level_system((b @ b.conj().T) / 3.0,
                                  h0=rng.normal(size=3) * 0.5)
        segs = tuple((0.25, rng.uniform(-2.0, 2.0, size=3)) for _ in range(4))
        traj = propagate(system, PiecewiseControl(segs),
                         CoherenceVector(2, rng.normal(size=3) * 0.3))
        worst = max(worst, determinant_check(traj, system))
    return worst <= 1e-10, ("max |det g(t) - exp(tr t)| = %.3e over random "
                            "admissible systems" % worst)


def _check_presets():
    expectations = {"depolarizing": (4, False), "phase_flip": (9, True),
                    "bit_flip": (9, True), "bit_phase_flip": (9, True),
                    "amplitude_damping": (12, True)}
    failures = []
    for name, (dim, accessible) in expectations.items():
        acc = accessibility(preset(name, gamma=0.7))
        if acc.closure_dim != dim or acc.accessible != accessible:
            failures.append("%s: got dim %d accessible %r, expected %d/%r"
                            % (name, acc.closure_dim, acc.accessible, dim,
                               accessible))
    fp = fixed_point(preset("amplitude_damping", gamma=0.7).drift)
    if fp is None or abs(purity(fp) - 1.0) > UNIT_PURITY_TOL:
        failures.append("amplitude_damping: drift fixed point is not pure")
    if failures:
        return False, "; ".join(failures)
    return True, "five channel presets show the expected closures"


def _check_hamiltonian_rank():
    basis = gellmann_basis(2)
    ez = np.array([0.0, 0.0, 1.0])
    ex = np.array([1.0, 0.0, 0.0])
    full = hamiltonian_controllability(basis, ez, [ex])
    degenerate = hamiltonian_controllability(basis, ez, [ez])
    ok = full.controllable and full.dim == 3 \
        and not degenerate.controllable and degenerate.dim == 1
    return ok, ("z-drift with x-control spans dim %d; z-drift with z-control "
                "spans dim %d" % (full.dim, degenerate.dim))


CHECKS = (
    ("structure_constants", _check_structure_constants),
    ("gks_symmetry", _check_gks_symmetry),
    ("dissipator_realness", _check_dissipator_real),
    ("generator_table", _check_generator_table),
    ("taxonomy", _check_taxonomy),
    ("determinant_law", _check_determinant_law),
    ("presets", _check_presets),
    ("hamiltonian_rank", _check_hamiltonian_rank),
)
