"""Two-level presets and the elementary generator matrices."""

import numpy as np
import pytest

from lindbladctl import (ChannelPreset, GksMatrix, PRESET_NAMES,
                        assemble_dissipator, bloch_hamiltonian, check_psd,
                        gellmann_basis, is_unital, m_matrix, preset)


def test_m_matrices_frozen_values():
    # rotations
    np.testing.assert_array_equal(
        m_matrix(1).linear, [[0, 0, 0], [0, 0, -1], [0, 1, 0]])
    np.testing.assert_array_equal(
        m_matrix(2).linear, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    np.testing.assert_array_equal(
        m_matrix(3).linear, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    # symmetric off-diagonal damping
    np.testing.assert_array_equal(
        m_matrix(4).linear, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    np.testing.assert_array_equal(
        m_matrix(6).linear, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    np.testing.assert_array_equal(
        m_matrix(8).linear, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    # pure translations
    for k, t in ((5, [0, 0, -2]), (7, [0, 2, 0]), (9, [-2, 0, 0])):
        assert np.all(m_matrix(k).linear == 0)
        np.testing.assert_array_equal(m_matrix(k).translation, t)
    # diagonal damping
    np.testing.assert_array_equal(np.diag(m_matrix(10).linear), [0, -1, -1])
    np.testing.assert_array_equal(np.diag(m_matrix(11).linear), [-1, 0, -1])
    np.testing.assert_array_equal(np.diag(m_matrix(12).linear), [-1, -1, 0])
    for k in (1, 2, 3, 4, 6, 8, 10, 11, 12):
        np.testing.assert_array_equal(m_matrix(k).translation, np.zeros(3))


def test_m_matrix_index_range():
    with pytest.raises(IndexError):
        m_matrix(0)
    with pytest.raises(IndexError):
        m_matrix(13)


def test_m_matrices_linearly_independent():
    flat = np.array([m_matrix(k).homogeneous.ravel() for k in range(1, 13)])
    assert np.linalg.matrix_rank(flat) == 12


def test_bloch_hamiltonian_rotates_about_axis():
    g = bloch_hamiltonian([0.0, 0.0, 2.0])
    np.testing.assert_allclose(g.homogeneous, 2.0 * m_matrix(3).homogeneous)
    g = bloch_hamiltonian([1.0, -1.0, 0.5])
    expected = (m_matrix(1) - m_matrix(2) + 0.5 * m_matrix(3)).homogeneous
    np.testing.assert_allclose(g.homogeneous, expected)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_gks_assembles_to_preset_dissipator(name):
    system = preset(name, gamma=0.6)
    basis = gellmann_basis(2)
    rebuilt = assemble_dissipator(system.gks, basis)
    np.testing.assert_allclose(rebuilt.homogeneous,
                               system.dissipator.homogeneous, atol=1e-12)
    assert system.admissible
    assert check_psd(system.gks).is_psd
    assert len(system.controls) == 3
    for k in range(3):
        np.testing.assert_array_equal(system.controls[k].homogeneous,
                                      m_matrix(k + 1).homogeneous)


def test_preset_dissipator_combinations():
    gamma = 0.5
    np.testing.assert_allclose(
        preset("depolarizing", gamma=gamma).dissipator.homogeneous,
        (gamma * (m_matrix(10) + m_matrix(11) + m_matrix(12))).homogeneous)
    np.testing.assert_allclose(
        preset("phase_flip", gamma=gamma).dissipator.homogeneous,
        (gamma * m_matrix(12)).homogeneous)
    np.testing.assert_allclose(
        preset("bit_flip", gamma=gamma).dissipator.homogeneous,
        (gamma * m_matrix(10)).homogeneous)
    np.testing.assert_allclose(
        preset("bit_phase_flip", gamma=gamma).dissipator.homogeneous,
        (gamma * m_matrix(11)).homogeneous)
    np.testing.assert_allclose(
        preset("amplitude_damping", gamma=gamma).dissipator.homogeneous,
        (0.5 * gamma * (m_matrix(10) + m_matrix(11)
                        - m_matrix(5))).homogeneous)


def test_unitality_by_channel():
    for name in ("depolarizing", "phase_flip", "bit_flip", "bit_phase_flip"):
        assert is_unital(preset(name).dissipator)
    assert not is_unital(preset("amplitude_damping").dissipator)


def test_preset_gks_matrices():
    gamma = 0.9
    np.testing.assert_allclose(preset("depolarizing", gamma=gamma).gks.entries,
                               gamma * np.eye(3), atol=0)
    np.testing.assert_allclose(preset("phase_flip", gamma=gamma).gks.entries,
                               np.diag([0.0, 0.0, gamma]), atol=0)
    ad = preset("amplitude_damping", gamma=gamma).gks.entries
    np.testing.assert_allclose(
        ad, 0.5 * gamma * np.array([[1.0, -1.0j, 0.0],
                                    [1.0j, 1.0, 0.0],
                                    [0.0, 0.0, 0.0]]), atol=0)
    # rank one: a single decay operator at rate gamma
    np.testing.assert_allclose(np.linalg.eigvalsh(ad), [0.0, 0.0, gamma],
                               atol=1e-12)


def test_preset_with_drift_hamiltonian():
    system = preset("phase_flip", gamma=0.2, h03=1.5)
    np.testing.assert_allclose(system.hamiltonian.homogeneous,
                               (1.5 * m_matrix(3)).homogeneous)
    assert system.drift.homogeneous[1, 2] == pytest.approx(-1.5)


def test_preset_validation():
    with pytest.raises(ValueError):
        preset("thermal")
    with pytest.raises(ValueError):
        preset("depolarizing", gamma=-0.1)
    for name in ("gamma", "h03"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="%s must be finite" % name):
                preset("depolarizing", **{name: value})
    with pytest.raises(ValueError):
        ChannelPreset("depolarizing", {"rate": 1.0})
    with pytest.raises(TypeError):
        preset(ChannelPreset("depolarizing"), gamma=1.0)


def test_preset_accepts_channelpreset_object():
    spec = ChannelPreset("bit_flip", {"gamma": 0.25})
    system = preset(spec)
    np.testing.assert_allclose(system.dissipator.homogeneous,
                               (0.25 * m_matrix(10)).homogeneous)
