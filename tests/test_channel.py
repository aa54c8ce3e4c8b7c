"""Channel synthesis: RIS-UE link, static links, sounding, pilots, noise."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rispose.channel import (ChannelMode, observe, pilot_matrix,
                             ris_bs_channel, ris_profiles, ris_ue_channel)
from rispose.geometry import Pose, SystemConfig, unit_direction
from rispose.validate import dense_measurement_matrix


def center_row(cfg):
    """Row of the center element (0, 0): the middle of the linear order."""
    return cfg.n_ris // 2


def element_indices(cfg):
    """Signed (n, m) index of every element in row order: x-major, y fastest."""
    n, m = np.meshgrid(np.arange(cfg.n_x) - cfg.n_x // 2,
                       np.arange(cfg.n_y) - cfg.n_y // 2, indexing="ij")
    return n.ravel(), m.ravel()


def antenna_position(pose, k, cfg):
    """Position of user antenna k: r e + k d_u g."""
    e = unit_direction(pose.theta, pose.phi)
    g = unit_direction(pose.psi, pose.gamma)
    return pose.r * e + k * cfg.d_u * g


@pytest.fixture
def cfg():
    return SystemConfig()


@pytest.fixture
def small():
    return SystemConfig(m_bs=2, k_ue=5, n_x=3, n_y=5, p_profiles=15, l_pilot=6)


@pytest.fixture
def pose():
    return Pose(r=2.2, theta=math.radians(65), phi=math.radians(35),
                psi=math.radians(125), gamma=math.radians(50))


def test_ris_ue_channel_shape_and_unit_modulus(cfg, pose):
    for mode in ChannelMode:
        a = ris_ue_channel(pose.as_tuple(), cfg, mode)
        assert a.shape == (cfg.n_ris, cfg.k_ue)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)


def test_ris_ue_channel_center_entry_is_one(cfg, pose):
    # reference path: center element to center antenna has zero excess phase
    row = center_row(cfg)
    col = cfg.k_half
    for mode in ChannelMode:
        a = ris_ue_channel(pose.as_tuple(), cfg, mode)
        assert a[row, col] == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_exact_channel_matches_euclidean_distances(small, pose):
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.EXACT)
    n_idx, m_idx = element_indices(small)
    for row in (0, 4, 7, 14):
        s = np.array([n_idx[row] * small.d_x, m_idx[row] * small.d_y, 0.0])
        for k in range(-small.k_half, small.k_half + 1):
            q = antenna_position(pose, k, small)
            expected = np.exp(-2j * np.pi
                              * (np.linalg.norm(q - s) - pose.r)
                              / small.wavelength)
            assert a[row, k + small.k_half] == pytest.approx(expected, abs=1e-12)


def test_fresnel_channel_matches_scalar_expansion(small, pose):
    # independent scalar evaluation of the second-order distance expansion
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.FRESNEL)
    e = unit_direction(pose.theta, pose.phi)
    g = unit_direction(pose.psi, pose.gamma)
    n_idx, m_idx = element_indices(small)
    for row in range(small.n_ris):
        s = np.array([n_idx[row] * small.d_x, m_idx[row] * small.d_y, 0.0])
        for k in range(-small.k_half, small.k_half + 1):
            excess = ((k * small.d_u) ** 2 + s @ s) / (2 * pose.r) \
                + k * small.d_u * (e @ g - (g @ s) / pose.r) - e @ s
            expected = np.exp(-2j * np.pi * excess / small.wavelength)
            assert a[row, k + small.k_half] == pytest.approx(expected, abs=1e-12)


def test_ris_ue_channel_at_box_edges(small):
    # an estimate can sit on a box edge (the arccos clips give phi or gamma
    # of exactly pi/2 or 0), where Pose rejects it; the model takes any pose
    # row, and (T, 5) rows give a (T, N, K) stack with one channel per row
    rows = np.array([[2.0, 0.0, 0.6, 1.2, 0.0],          # theta = 0, gamma = 0
                     [1.7, 1.1, math.pi / 2, 2.0, 0.4],  # phi = pi/2
                     [2.5, 0.0, math.pi / 2, 0.3, 0.0]])  # all three
    n_idx, m_idx = element_indices(small)
    for mode in ChannelMode:
        stack = ris_ue_channel(rows, small, mode)
        assert stack.shape == (len(rows), small.n_ris, small.k_ue)
        for pose_row, a in zip(rows, stack):
            np.testing.assert_allclose(ris_ue_channel(pose_row, small, mode), a,
                                       rtol=0, atol=1e-14)
            r, theta, phi, psi, gamma = pose_row
            e = np.array([math.cos(theta) * math.cos(phi),
                          math.sin(theta) * math.cos(phi), math.sin(phi)])
            g = np.array([math.cos(psi) * math.cos(gamma),
                          math.sin(psi) * math.cos(gamma), math.sin(gamma)])
            for row in (0, 7, 14):
                s = np.array([n_idx[row] * small.d_x, m_idx[row] * small.d_y, 0.0])
                for k in (-2, 0, 1):
                    u = k * small.d_u
                    if mode is ChannelMode.EXACT:
                        excess = np.linalg.norm(r * e + u * g - s) - r
                    else:
                        excess = (u * u + s @ s) / (2 * r) + u * (e @ g - (g @ s) / r) - e @ s
                    expected = np.exp(-2j * np.pi * excess / small.wavelength)
                    assert a[row, k + small.k_half] == pytest.approx(expected, abs=1e-12)


def test_fresnel_error_shrinks_with_range(cfg):
    def gap(r):
        p = Pose(r=r, theta=math.radians(65), phi=math.radians(35),
                 psi=math.radians(125), gamma=math.radians(50))
        return np.abs(ris_ue_channel(p.as_tuple(), cfg, ChannelMode.EXACT)
                      - ris_ue_channel(p.as_tuple(), cfg, ChannelMode.FRESNEL)).mean()

    # dropped terms scale like 1/r, so the average entry gap must fall
    # monotonically across the near field (max saturates at 2 up close)
    assert gap(1.5) > gap(3.0) > gap(8.0)


def test_ris_bs_channel_rank_one_unit_modulus(cfg):
    h_b, h_r = ris_bs_channel(cfg)
    assert h_b.shape == (cfg.m_bs,) and h_r.shape == (cfg.n_ris,)
    h = np.outer(h_b, h_r.conj())
    np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)
    sv = np.linalg.svd(h, compute_uv=False)
    assert sv[1] < 1e-10 * sv[0]
    # center antenna to center element: both steering phases vanish
    center = center_row(cfg)
    assert h[(cfg.m_bs - 1) // 2, center] == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_ris_profiles_orthogonality():
    for mult in (1, 2):
        cfg = SystemConfig(n_x=3, n_y=5, p_profiles=15 * mult, k_ue=5, l_pilot=5)
        phi = ris_profiles(cfg)
        assert phi.shape == (15 * mult, 15)
        gram = phi.conj().T @ phi
        np.testing.assert_allclose(gram, 15 * mult * np.eye(15), atol=1e-12)
    # a non-multiple profile count loses column orthogonality
    phi = ris_profiles(SystemConfig(n_x=3, n_y=5, p_profiles=16, k_ue=5,
                                    l_pilot=5))
    gram = phi.conj().T @ phi
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() > 1e-6


def test_pilot_matrix_orthogonal_rows(cfg):
    s = pilot_matrix(cfg)
    assert s.shape == (cfg.k_ue, cfg.l_pilot)
    target = cfg.power_w / cfg.k_ue * np.eye(cfg.k_ue)
    np.testing.assert_allclose(s @ s.conj().T, target, atol=1e-12)


def test_pilot_matrix_frozen_entries():
    cfg = SystemConfig(k_ue=3, l_pilot=3, power_w=1.0)
    s = pilot_matrix(cfg)
    np.testing.assert_allclose(s[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    assert s[1, 1] == pytest.approx(-0.16666666666666657 - 0.28867513459481287j,
                                    abs=1e-14)


def test_observe_matches_dense_measurement_blocks(small, pose):
    # the dense oracle is the column-wise Kronecker (Khatri-Rao) product of
    # profiles and channel: block p is h diag(profiles[p]); observe matches
    # the oracle product also when P is not a multiple of N
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.FRESNEL)
    for p_count in (small.n_ris, small.n_ris + 2, 2 * small.n_ris - 1):
        c = replace(small, p_profiles=p_count)
        h_b, h_r = ris_bs_channel(c)
        profiles = ris_profiles(c)
        hbar = dense_measurement_matrix(c)
        assert hbar.shape == (c.m_bs * p_count, c.n_ris)
        for p in (0, 3, p_count - 1):
            block = hbar[p * c.m_bs:(p + 1) * c.m_bs]
            np.testing.assert_allclose(
                block, np.outer(h_b, h_r.conj()) * profiles[p][None, :], atol=1e-15)
        y = observe(a, c, math.inf, np.random.default_rng(0))
        np.testing.assert_allclose(y, hbar @ a @ pilot_matrix(c), atol=1e-12)


def test_observe_noise_level_matches_snr(small, pose):
    # SNR is mean signal power per entry over the per-entry noise variance;
    # the noise is standard_normal(y.shape), real part then imaginary part.
    # When P is not a multiple of N, the DFT rows are not all used equally
    # often, and the mean power must weight each row by its profile count
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.FRESNEL)
    for p_count in (small.n_ris, small.n_ris + 2, 2 * small.n_ris - 1):
        c = replace(small, p_profiles=p_count)
        clean = observe(a, c, math.inf, np.random.default_rng(0))
        mean_power = np.mean(np.abs(clean) ** 2)
        for snr_db in (0.0, 10.0, -3.5):
            y = observe(a, c, snr_db, np.random.default_rng(5))
            rng = np.random.default_rng(5)
            draw = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            sigma = math.sqrt(mean_power / 10.0 ** (snr_db / 10.0))
            np.testing.assert_allclose(y - clean, sigma / math.sqrt(2.0) * draw,
                                       rtol=1e-12, atol=1e-12)


def test_observe_rejects_undefined_snr(small, pose):
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.FRESNEL)
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            observe(a, small, snr_db, np.random.default_rng(0))


def test_observe_noiseless_leaves_rng_untouched(small, pose):
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.FRESNEL)
    rng = np.random.default_rng(99)
    y = observe(a, small, math.inf, rng)
    np.testing.assert_allclose(y, dense_measurement_matrix(small) @ a
                               @ pilot_matrix(small), atol=1e-12)
    # the stream was not consumed
    assert rng.standard_normal() == np.random.default_rng(99).standard_normal()


def test_observe_noise_statistics(small, pose):
    a = ris_ue_channel(pose.as_tuple(), small, ChannelMode.FRESNEL)
    clean = observe(a, small, math.inf, np.random.default_rng(0))
    snr_db = 6.0
    sigma = math.sqrt(np.mean(np.abs(clean) ** 2) / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(1234)
    noise = np.concatenate([
        (observe(a, small, snr_db, rng) - clean).ravel() for _ in range(40)])
    assert np.var(noise) == pytest.approx(sigma ** 2, rel=0.05)
    assert abs(np.mean(noise)) < 5 * sigma / math.sqrt(noise.size)
    # seeded observation is reproducible
    y1 = observe(a, small, snr_db, np.random.default_rng(7))
    y2 = observe(a, small, snr_db, np.random.default_rng(7))
    np.testing.assert_array_equal(y1, y2)


def test_channel_column_convention(cfg, pose):
    # column c corresponds to antenna offset c - (K-1)/2
    a = ris_ue_channel(pose.as_tuple(), cfg, ChannelMode.FRESNEL)
    e = unit_direction(pose.theta, pose.phi)
    g = unit_direction(pose.psi, pose.gamma)
    row = center_row(cfg)  # s = 0
    for k in (-cfg.k_half, -1, 0, 2, cfg.k_half):
        excess = (k * cfg.d_u) ** 2 / (2 * pose.r) + k * cfg.d_u * (e @ g)
        expected = np.exp(-2j * np.pi * excess / cfg.wavelength)
        assert a[row, k + cfg.k_half] == pytest.approx(expected, abs=1e-12)
