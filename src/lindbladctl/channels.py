"""Two-level channel presets and the twelve elementary generator matrices.

For N = 2 the coherence space is the Bloch ball and every master-equation
generator is a combination of twelve 4 x 4 homogeneous matrices M_1..M_12
(coordinates ordered (homogeneous, x, y, z)):

    M_1..M_3   rotations about x, y, z (control Hamiltonians),
    M_4, M_6, M_8   symmetric linear dissipation from Re a_xy, a_xz, a_yz,
    M_5, M_7, M_9   pure translations from Im a_xy, a_xz, a_yz,
    M_10..M_12  diagonal damping from a_xx, a_yy, a_zz.

The matrices are stored as literal integer constants; assembling the
dissipator from its GKS matrix reproduces them exactly, which is covered by
the test suite.
"""

from dataclasses import dataclass, field

import numpy as np

from .affine import AffineGenerator
from .dissipator import GksMatrix
from .liealg import ControlSystem

__all__ = ["PRESET_NAMES", "ChannelPreset", "m_matrix", "preset",
           "bloch_hamiltonian"]

PRESET_NAMES = ("depolarizing", "phase_flip", "bit_flip", "bit_phase_flip",
                "amplitude_damping")

# Homogeneous 4 x 4 forms; rows and columns ordered (homog, x, y, z).
_M_RAW = {
    1: [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    2: [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, -1, 0, 0]],
    3: [[0, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
    4: [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
    5: [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [-2, 0, 0, 0]],
    6: [[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0]],
    7: [[0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0]],
    8: [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    9: [[0, 0, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    10: [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
    11: [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]],
    12: [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]],
}

_M = {k: AffineGenerator.from_homogeneous(np.array(v, dtype=float))
      for k, v in _M_RAW.items()}


def m_matrix(k):
    """The elementary two-level generator M_k for 1 <= k <= 12."""
    if k not in _M:
        raise IndexError("m_matrix index must satisfy 1 <= k <= 12, got %r" % (k,))
    return _M[k]


def bloch_hamiltonian(h):
    """Control-Hamiltonian generator h_1 M_1 + h_2 M_2 + h_3 M_3.

    h is the rotation vector of the Bloch precession (H = h . sigma / 2);
    the corresponding lambda-coefficient vector is h / sqrt(2).
    """
    h = np.asarray(h, dtype=float)
    if h.shape != (3,):
        raise ValueError("h must be a real 3-vector")
    return h[0] * _M[1] + h[1] * _M[2] + h[2] * _M[3]


@dataclass(frozen=True)
class ChannelPreset:
    """Named two-level channel with positive parameters.

    Supported names: depolarizing, phase_flip, bit_flip, bit_phase_flip,
    amplitude_damping.  All take a rate parameter gamma >= 0; all accept an
    optional drift-Hamiltonian strength h03 (rotation rate about z).
    """

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ValueError("unknown preset %r; expected one of %s"
                             % (self.name, ", ".join(PRESET_NAMES)))
        allowed = {"gamma", "h03"}
        unknown = set(self.params) - allowed
        if unknown:
            raise ValueError("unknown parameters for preset %r: %s"
                             % (self.name, ", ".join(sorted(unknown))))
        if float(self.params.get("gamma", 1.0)) < 0.0:
            raise ValueError("gamma must be nonnegative")

    @property
    def gamma(self):
        return float(self.params.get("gamma", 1.0))

    @property
    def h03(self):
        return float(self.params.get("h03", 0.0))


def _preset_data(name, gamma):
    """(dissipator from literal M combination, GKS matrix entries)."""
    if name == "depolarizing":
        diss = gamma * (_M[10] + _M[11] + _M[12])
        a = gamma * np.eye(3)
    elif name == "phase_flip":
        diss = gamma * _M[12]
        a = np.diag([0.0, 0.0, gamma])
    elif name == "bit_flip":
        diss = gamma * _M[10]
        a = np.diag([gamma, 0.0, 0.0])
    elif name == "bit_phase_flip":
        diss = gamma * _M[11]
        a = np.diag([0.0, gamma, 0.0])
    elif name == "amplitude_damping":
        diss = 0.5 * gamma * (_M[10] + _M[11] - _M[5])
        a = 0.5 * gamma * np.array([[1.0, -1.0j, 0.0],
                                    [1.0j, 1.0, 0.0],
                                    [0.0, 0.0, 0.0]])
    else:  # pragma: no cover - guarded by ChannelPreset
        raise ValueError("unknown preset %r" % name)
    return diss, a


def preset(spec, **params):
    """Build the fully controlled two-level system for a channel preset.

    spec may be a ChannelPreset or a preset name (with parameters given as
    keyword arguments).  The returned system has controls M_1, M_2, M_3,
    drift Hamiltonian h03 * M_3, and the channel's dissipator; its GKS
    matrix is attached and is positive semidefinite by construction.
    """
    if isinstance(spec, str):
        spec = ChannelPreset(spec, dict(params))
    elif params:
        raise TypeError("parameters must be inside the ChannelPreset")
    diss, a = _preset_data(spec.name, spec.gamma)
    return ControlSystem(
        N=2,
        hamiltonian=bloch_hamiltonian((0.0, 0.0, spec.h03)),
        controls=(_M[1], _M[2], _M[3]),
        dissipator=diss,
        gks=GksMatrix(a),
    )
