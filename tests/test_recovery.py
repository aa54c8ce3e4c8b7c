"""Channel recovery: closed-form inverse, dense oracle, noise propagation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispose.channel import (ChannelMode, observe, recover_channel, ris_ue_channel,
                             sound_and_recover)
from rispose.geometry import Pose, SystemConfig
from rispose.validate import check_pinv_paths, check_trial_path_recovery, dense_recovery


@pytest.fixture
def cfg():
    return SystemConfig(m_bs=3, k_ue=5, n_x=5, n_y=7, p_profiles=35, l_pilot=8)


@pytest.fixture
def pose():
    return Pose(r=1.5, theta=math.radians(80), phi=math.radians(25),
                psi=math.radians(140), gamma=math.radians(60))


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_pinv_is_left_inverse(cfg):
    # any (n_ris, k_ue) matrix, not only a channel, comes back exactly
    rng = np.random.default_rng(3)
    for p in (cfg.n_ris, cfg.n_ris + 2, 2 * cfg.n_ris - 1):
        c = replace(cfg, p_profiles=p)
        a = complex_normal(rng, (c.n_ris, c.k_ue))
        rec = recover_channel(observe(a, c, math.inf, rng), c)
        np.testing.assert_allclose(rec, a, atol=1e-10)


def test_closed_form_recovery_matches_dense_pinv(cfg):
    # closed-form recovery vs the dense SVD pseudoinverses, at P = N and at
    # a P that is not a multiple of N
    result = check_pinv_paths(cfg)
    assert result.passed, result.detail


def test_recover_channel_rejects_bad_shape(cfg):
    rows = cfg.m_bs * cfg.p_profiles
    for shape in ((rows - cfg.m_bs, cfg.l_pilot), (rows, cfg.l_pilot + 1), (rows,)):
        with pytest.raises(ValueError, match="observation shape"):
            recover_channel(np.ones(shape, dtype=complex), cfg)


def test_noiseless_recovery_both_modes(cfg, pose):
    rng = np.random.default_rng(0)
    for mode in ChannelMode:
        a = ris_ue_channel(pose.as_tuple(), cfg, mode)
        for p in (cfg.n_ris, cfg.n_ris + 1):
            c = replace(cfg, p_profiles=p)
            rec = recover_channel(observe(a, c, math.inf, rng), c)
            assert rec.shape == (cfg.n_ris, cfg.k_ue)
            assert np.abs(rec - a).max() < 1e-10


def test_recovery_linearity_in_noise(cfg, pose):
    a = ris_ue_channel(pose.as_tuple(), cfg, ChannelMode.FRESNEL)
    rng = np.random.default_rng(21)
    w = complex_normal(rng, (cfg.m_bs * cfg.p_profiles, cfg.l_pilot))
    y = observe(a, cfg, math.inf, rng) + w
    rec = recover_channel(y, cfg)
    np.testing.assert_allclose(rec - a, dense_recovery(w, cfg), atol=1e-10)


def test_residual_noise_scale_prediction(cfg):
    # with P = N, inversion turns iid observation noise into iid channel
    # noise with per-entry variance sigma^2 / (L * M * P)
    rows = cfg.m_bs * cfg.p_profiles
    predicted = math.sqrt(1 / (cfg.l_pilot * rows))
    sigma = 0.4
    rng = np.random.default_rng(77)
    samples = []
    for _ in range(400):
        w = sigma / math.sqrt(2) * complex_normal(rng, (rows, cfg.l_pilot))
        samples.append(recover_channel(w, cfg).ravel())
    var = np.var(np.concatenate(samples))
    assert var == pytest.approx((sigma * predicted) ** 2, rel=0.10)


def test_recovery_invariant_to_far_field_angles(cfg, pose):
    # the static-link angles cancel through the left inverse
    recs = []
    for theta_bs, theta_ris, phi_ris in ((0.5, 0.7, 0.9), (1.1, 0.2, 1.3)):
        c = replace(cfg, theta_bs=theta_bs, theta_ris=theta_ris, phi_ris=phi_ris)
        a = ris_ue_channel(pose.as_tuple(), c, ChannelMode.FRESNEL)
        y = observe(a, c, math.inf, np.random.default_rng(0))
        recs.append(recover_channel(y, c))
    np.testing.assert_allclose(recs[0], recs[1], atol=1e-9)


def test_sound_and_recover_noiseless_returns_channel(cfg, pose):
    a = ris_ue_channel(pose.as_tuple(), cfg, ChannelMode.FRESNEL)[None]
    rng = np.random.default_rng(99)
    assert sound_and_recover(a, cfg, math.inf, [rng]) is a
    # the stream was not consumed
    assert rng.standard_normal() == np.random.default_rng(99).standard_normal()


def test_sound_and_recover_rejects_malformed_stack(cfg, pose):
    a = ris_ue_channel(pose.as_tuple(), cfg, ChannelMode.FRESNEL)
    stack = np.stack([a, a, a])
    rngs = [np.random.default_rng(t) for t in range(4)]
    # a single channel, a stack with the wrong element count, and too few or
    # too many generators for its three trials
    for x, gens in ((a, rngs[:1]), (stack[:, 1:], rngs[:3]), (stack, rngs[:2]),
                    (stack, rngs)):
        with pytest.raises(ValueError, match=r"\(T, 35, 5\) stack and T generators"):
            sound_and_recover(x, cfg, 10.0, gens)


@st.composite
def sounding_configs(draw):
    n_x, n_y = draw(st.lists(st.sampled_from([3, 5, 7, 9]), min_size=2, max_size=2,
                             unique=True))
    n = n_x * n_y
    k_ue = draw(st.sampled_from([3, 5, 7]))
    return SystemConfig(m_bs=draw(st.integers(1, 4)), k_ue=k_ue, n_x=n_x, n_y=n_y,
                        p_profiles=draw(st.integers(n, 3 * n)),
                        l_pilot=draw(st.integers(k_ue, k_ue + 4)),
                        theta_bs=draw(st.floats(0.0, 1.5)),
                        theta_ris=draw(st.floats(0.0, 1.5)))


@settings(max_examples=20, deadline=None)
@given(cfg=sounding_configs(), seed=st.integers(0, 2 ** 32 - 1))
def test_recovery_matches_dense_oracle(cfg, seed):
    rng = np.random.default_rng(seed)
    a = complex_normal(rng, (cfg.n_ris, cfg.k_ue))
    y = observe(a, cfg, math.inf, rng)
    assert np.abs(recover_channel(y, cfg) - a).max() < 1e-10

    y_noisy = observe(a, cfg, 5.0, rng)
    assert np.abs(recover_channel(y_noisy, cfg) - dense_recovery(y_noisy, cfg)).max() < 1e-10


@settings(max_examples=20, deadline=None)
@given(cfg=sounding_configs(), snr_db=st.floats(-10.0, 40.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_trial_path_matches_dense_recovery(cfg, snr_db, seed):
    pose = Pose(r=1.5, theta=math.radians(80), phi=math.radians(25),
                psi=math.radians(140), gamma=math.radians(60))
    result = check_trial_path_recovery(cfg, pose, snr_db=snr_db, seed=seed)
    assert result.passed, result.detail
