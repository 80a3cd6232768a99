"""Controllability analysis of finite-dimensional Markovian master equations.

The package works in the coherence-vector picture: density matrices become
real vectors in a closed ball, master-equation generators become real affine
matrices, and questions about accessibility and controllability reduce to
linear algebra on the Lie algebra generated by drift and controls.

Layers
------
su_basis    orthonormal Hermitian basis, structure tensors, unitary adjoint
states      coherence vectors, purity, physicality
dissipator  GKS coefficient matrix -> affine dissipation generator
liealg      Lie closure, classification, accessibility, certificates
dynamics    piecewise-constant flows, determinant law, reachable sampling
channels    two-level presets and the twelve elementary generators
cli         system documents, deterministic reports, command line
selfcheck   the built-in checks that `lindbladctl verify` runs
"""

from .affine import AffineGenerator, bracket
from .su_basis import (HermitianBasis, gellmann_basis, structure_tensors,
                       adjoint_generator)
from .states import (CoherenceVector, to_coherence, from_coherence, purity,
                     is_physical)
from .dissipator import (GksMatrix, assemble_dissipator, check_psd,
                         check_minors_2level, two_level_gks, is_unital,
                         split_trace, fixed_point)
from .liealg import (ControlSystem, LieClosure, closure, classify,
                     accessibility, noncontrollability_certificates,
                     hamiltonian_controllability, verify_structure_constants,
                     ACCESSIBLE_LABELS)
from .dynamics import (PiecewiseControl, Trajectory, BallExitError,
                       propagate, determinant_check, purity_rate,
                       sample_reachable, ReachableResult)
from .channels import (PRESET_NAMES, ChannelPreset, m_matrix, preset,
                       bloch_hamiltonian)
from .cli import SystemDocument

__version__ = "0.1.0"

__all__ = [
    "AffineGenerator", "bracket",
    "HermitianBasis", "gellmann_basis", "structure_tensors",
    "adjoint_generator",
    "CoherenceVector", "to_coherence", "from_coherence", "purity",
    "is_physical",
    "GksMatrix", "assemble_dissipator",
    "check_psd", "check_minors_2level", "two_level_gks", "is_unital",
    "split_trace", "fixed_point",
    "ControlSystem", "LieClosure", "closure", "classify", "accessibility",
    "noncontrollability_certificates", "hamiltonian_controllability",
    "verify_structure_constants", "ACCESSIBLE_LABELS",
    "PiecewiseControl", "Trajectory", "BallExitError", "propagate",
    "determinant_check", "purity_rate", "sample_reachable",
    "ReachableResult",
    "PRESET_NAMES", "ChannelPreset", "m_matrix", "preset",
    "bloch_hamiltonian",
    "SystemDocument",
    "__version__",
]
