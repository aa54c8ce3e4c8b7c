"""Estimator: transforms, TLS ratios, per-stage and end-to-end estimation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rispose.estimator as est_mod
from rispose.channel import ChannelMode, observe, ris_ue_channel, sound_and_recover
from rispose.estimator import (EstimationError,
                               direction_shifts, direction_transform,
                               distance_shift, distance_transform,
                               estimate_direction, estimate_distance,
                               estimate_orientation, estimate_pose,
                               estimate_pose_from_channel, orientation_shifts,
                               orientation_transform, tls_phase_ratio)
from rispose.geometry import (Pose, SystemConfig, near_field_bounds,
                              poses_from_uniforms, sample_pose, unit_direction)


@pytest.fixture
def cfg():
    return SystemConfig()


@pytest.fixture
def pose():
    return Pose(r=3.0, theta=math.radians(60), phi=math.radians(40),
                psi=math.radians(120), gamma=math.radians(30))


def fresnel(pose, cfg):
    return ris_ue_channel(pose.as_tuple(), cfg, ChannelMode.FRESNEL)


def fresnel_stack(poses, cfg):
    """Fresnel channels of a list of poses (or one pose) as a (T, n_ris, k_ue) stack."""
    poses = [poses] if isinstance(poses, Pose) else poses
    return ris_ue_channel(np.array([p.as_tuple() for p in poses]), cfg,
                          ChannelMode.FRESNEL)


def spoil_columns(x, cfg, cols):
    """Leave columns ``cols`` of stack ``x`` with an unidentifiable y-fit.

    Each column is negligible except for its last y-row, so its y-fit cannot
    identify a ratio while its x-fit returns a finite, wrong one.
    """
    x[..., cols] *= 1e-15
    est_mod._grid(x, cfg)[:, :, -1, cols] = 1.0


def orientation_phases(d, delta_ex, delta_ey, cfg):
    """Per-antenna x/y orientation phases of a stack ``d``, (2, T, k_ue), not unwrapped.

    The first step of ``estimate_orientation`` written out: each antenna's
    TLS shift ratios over the (T,) direction ratios.
    """
    gx, gy = est_mod._shift_ratios(d, cfg)
    return np.angle(np.stack([gx / delta_ex[:, None], gy / delta_ey[:, None]]))


def antenna_azimuths(phases, cfg):
    """Per-antenna orientation azimuths of ``orientation_phases``; NaN at the centre."""
    k = cfg.antenna_offsets()
    sgn = np.where(k == 0, np.nan, np.sign(k))
    return np.arctan2(sgn * phases[1] / cfg.d_y, sgn * phases[0] / cfg.d_x)


def element_indices(cfg):
    """Signed (n, m) index of every element in row order: x-major, y fastest."""
    n, m = np.meshgrid(np.arange(cfg.n_x) - cfg.n_x // 2,
                       np.arange(cfg.n_y) - cfg.n_y // 2, indexing="ij")
    return n.ravel(), m.ravel()


# ---------------------------------------------------------------- shift pairs
# Shift pairs are slices of the (n_x, n_y, K) grid view: g[:-1]/g[1:] along
# x and g[:, :-1]/g[:, 1:] along y.  5 x 7 keeps the two axes apart.

@pytest.fixture
def cfg_5x7():
    return SystemConfig(n_x=5, n_y=7, p_profiles=35, k_ue=5, l_pilot=5)


def test_shift_pairs_counts(cfg_5x7):
    g = est_mod._grid(np.arange(cfg_5x7.n_ris), cfg_5x7)
    assert g[:-1].size == g[1:].size == (cfg_5x7.n_x - 1) * cfg_5x7.n_y
    assert g[:, :-1].size == g[:, 1:].size == cfg_5x7.n_x * (cfg_5x7.n_y - 1)


def test_shift_pairs_are_axis_neighbors(cfg_5x7):
    n_idx, m_idx = (est_mod._grid(idx, cfg_5x7) for idx in element_indices(cfg_5x7))
    assert np.all(n_idx[1:] == n_idx[:-1] + 1)
    assert np.all(m_idx[1:] == m_idx[:-1])
    assert np.all(m_idx[:, 1:] == m_idx[:, :-1] + 1)
    assert np.all(n_idx[:, 1:] == n_idx[:, :-1])


# ----------------------------------------------------------------- transforms

def test_distance_transform_formula(cfg, pose):
    # entries depend on distance and position only:
    # exp(-j (4 pi / wl) (((k d_u)^2 + |s|^2) / (2 r) - e.s))
    b = distance_transform(fresnel(pose, cfg))
    e = unit_direction(pose.theta, pose.phi)
    n_idx, m_idx = element_indices(cfg)
    sx, sy = n_idx * cfg.d_x, m_idx * cfg.d_y
    for k in (-cfg.k_half, 0, 3):
        phase = ((k * cfg.d_u) ** 2 + sx ** 2 + sy ** 2) / (2 * pose.r) \
            - (e[0] * sx + e[1] * sy)
        expected = np.exp(-4j * np.pi * phase / cfg.wavelength)
        np.testing.assert_allclose(b[:, k + cfg.k_half], expected, atol=1e-12)


def test_distance_transform_symmetries(cfg, pose):
    a = fresnel(pose, cfg)
    b = distance_transform(a)
    np.testing.assert_allclose(b, b[:, ::-1], atol=1e-12)  # column flip fixed
    np.testing.assert_allclose(b[:, cfg.k_half], a[:, cfg.k_half] ** 2,
                               atol=1e-12)


def test_direction_transform_properties(cfg, pose):
    c = direction_transform(fresnel(pose, cfg))
    # conjugate-centrosymmetric under the double flip
    np.testing.assert_allclose(c, np.conj(c[::-1, ::-1]), atol=1e-12)
    center_row = cfg.n_ris // 2
    assert c[center_row, cfg.k_half] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    # row pairs advance by the direction ratios in every column
    ex, ey = direction_shifts(pose, cfg)
    g = est_mod._grid(c, cfg)
    np.testing.assert_allclose(g[1:], g[:-1] * ex, atol=1e-12)
    np.testing.assert_allclose(g[:, 1:], g[:, :-1] * ey, atol=1e-12)


def test_direction_shifts_frozen_values(cfg):
    pose = Pose(r=3.0, theta=math.radians(60), phi=math.radians(40),
                psi=math.radians(120), gamma=math.radians(30))
    ex, ey = direction_shifts(pose, cfg)
    assert ex == pytest.approx(0.3592802470995228 + 0.9332297166529289j,
                               abs=1e-12)
    assert ey == pytest.approx(-0.4911243805865496 + 0.8710894574000296j,
                               abs=1e-12)


def test_orientation_transform_properties(cfg, pose):
    a = fresnel(pose, cfg)
    c = direction_transform(a)
    d = orientation_transform(a)
    np.testing.assert_allclose(d, np.conj(d[::-1, :]), atol=1e-12)
    # at the center antenna the two double-products coincide
    np.testing.assert_allclose(d[:, cfg.k_half], c[:, cfg.k_half], atol=1e-12)
    g = est_mod._grid(d, cfg)
    for k in (-cfg.k_half, -1, 2, cfg.k_half):
        col = k + cfg.k_half
        gx, gy = orientation_shifts(pose, k, cfg)
        np.testing.assert_allclose(g[1:, :, col], g[:-1, :, col] * gx, atol=1e-12)
        np.testing.assert_allclose(g[:, 1:, col], g[:, :-1, col] * gy, atol=1e-12)


# ------------------------------------------------------------------------ TLS

def column(x):
    """An (n,) vector as a (1, n, 1) stack: one trial, one column."""
    return np.asarray(x)[None, :, None]


def test_tls_phase_ratio_simple_pair():
    got = tls_phase_ratio(column([1.0, 1.0]), column([1.0j, 1.0j]))
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(1.0j, abs=1e-12)


def test_tls_phase_ratio_exact_on_rank_one():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    ratio = np.exp(1j * math.pi / 4)
    assert tls_phase_ratio(column(u), column(u * ratio))[0, 0] == pytest.approx(
        ratio, abs=1e-12)
    # invariant to a common complex scaling of the pair
    scale = 2.3 - 0.7j
    assert tls_phase_ratio(column(scale * u), column(scale * u * ratio))[0, 0] \
        == pytest.approx(ratio, abs=1e-12)


def test_tls_phase_ratio_perturbation_accuracy():
    # 20 perturbed rank-one pairs, fitted as one (20, 80, 1) stack
    rng = np.random.default_rng(17)
    ratio = np.exp(0.6j)
    us, vs = [], []
    for _ in range(20):
        u = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        v = u * ratio
        noise_u = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        noise_v = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        us.append(u + 1e-3 * noise_u)
        vs.append(v + 1e-3 * noise_v)
    got = tls_phase_ratio(np.stack(us)[..., None], np.stack(vs)[..., None])
    assert got.shape == (20, 1)
    assert np.abs(got - ratio).max() < 5e-3


def svd_ratio(u, v):
    """Reference TLS ratio: -V12 / V22 of the stack's smallest right singular pair."""
    _, _, vh = np.linalg.svd(np.column_stack((u, v)), full_matrices=False)
    v12, v22 = np.conj(vh[-1])
    return -v12 / v22 if abs(v22) >= 1e-12 else complex(np.nan, np.nan)


def test_tls_phase_ratio_matches_svd_per_column():
    rng = np.random.default_rng(23)
    n, cols = 40, 12
    u = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    ratios = np.exp(1j * rng.uniform(-np.pi, np.pi, cols))
    noise = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
    scale = np.logspace(-4, 0.5, cols)  # from nearly rank one to noise-dominated
    v = u * ratios + scale * noise
    # unequal column norms on both sides of |u| = |v|; |v| >> |u| needs the
    # cancellation-free form of a - lmin
    u[:, 3] *= 2.5
    v[:, 7] *= 1e4
    u[:, 5], v[:, 5] = 1e-15, 1.0  # null direction along u: no finite ratio
    got = tls_phase_ratio(u[None], v[None])
    expected = np.array([svd_ratio(u[:, j], v[:, j]) for j in range(cols)])
    assert got.shape == (1, cols)
    assert np.isnan(got[0, 5]) and np.isnan(expected[5])
    ok = np.arange(cols) != 5
    np.testing.assert_allclose(got[0, ok], expected[ok], rtol=1e-12)
    # a one-column stack gives the same value as its column in the wide stack
    one = tls_phase_ratio(u[None, :, :1], v[None, :, :1])
    assert one.shape == (1, 1)
    assert one[0, 0] == pytest.approx(expected[0], rel=1e-12)
    # a (T, n, cols) stack of trials fits each trial on its own
    stacked = tls_phase_ratio(np.stack([u, v[::-1]]), np.stack([v, u[::-1]]))
    assert stacked.shape == (2, cols)
    np.testing.assert_allclose(stacked[0][ok], got[0, ok], rtol=1e-12)
    np.testing.assert_allclose(stacked[1], tls_phase_ratio(v[None, ::-1], u[None, ::-1])[0],
                               rtol=1e-12)


def test_tls_phase_ratio_input_validation():
    # stacks only: unequal shapes, and 1-D, 2-D and 4-D inputs are rejected
    for u, v in ((np.ones((1, 3, 1)), np.ones((1, 4, 1))),
                 (np.ones((1, 3, 2)), np.ones((1, 3, 3))),
                 (np.ones(3), np.ones(3)),
                 (np.ones((3, 2)), np.ones((3, 2))),
                 (np.ones((3, 2, 2, 2)), np.ones((3, 2, 2, 2)))):
        with pytest.raises(ValueError, match="stacks"):
            tls_phase_ratio(u, v)
    with pytest.raises(ValueError, match="nonzero norm"):
        tls_phase_ratio(np.zeros((1, 3, 1)), np.ones((1, 3, 1)))
    stack = np.ones((1, 3, 2))
    stack[..., 1] = 0.0
    with pytest.raises(ValueError, match="nonzero norm"):
        tls_phase_ratio(np.ones((1, 3, 2)), stack)
    # degenerate fit: NaN, not an exception
    assert np.isnan(tls_phase_ratio(column([1e-15, 1e-15]), column([1.0, 1.0]))).all()


# ---------------------------------------------------------------- slope fits

def test_slope_matches_lstsq_on_masked_entries():
    rng = np.random.default_rng(29)
    x = rng.standard_normal(9)
    y = rng.standard_normal((4, 6, 9))
    mask = rng.random((6, 9)) < 0.6
    mask[0] = False  # an empty mask
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = est_mod._slope(y, x, mask)
    assert got.shape == (4, 6) and got.dtype == y.dtype
    assert np.isnan(got[:, 0]).all()
    for i in range(4):
        for j in range(1, 6):
            m = mask[j]
            expected = np.linalg.lstsq(x[m, None], y[i, j, m], rcond=None)[0][0]
            assert got[i, j] == pytest.approx(expected, rel=1e-12)


def test_slope_with_unit_x_is_the_masked_mean():
    # complex y with x = 1: the mean over the mask, bit for bit; NaN entries
    # outside the mask do not reach it
    rng = np.random.default_rng(31)
    y = rng.standard_normal((5, 15)) + 1j * rng.standard_normal((5, 15))
    mask = rng.random((5, 15)) < 0.7
    mask[2] = False
    y[~mask] = complex(np.nan, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = est_mod._slope(y, 1.0, mask)
    assert got.dtype == y.dtype
    assert np.isnan(got[2])
    rows = mask.any(axis=-1)
    mean = np.where(mask, y, 0).sum(axis=-1)[rows] / np.count_nonzero(mask, axis=-1)[rows]
    np.testing.assert_array_equal(got[rows], mean)
    for i in np.flatnonzero(rows):
        assert got[i] == pytest.approx(y[i, mask[i]].mean(), rel=1e-14)


# ----------------------------------------------------------------- estimators

def test_distance_shift_frozen_phase():
    cfg = SystemConfig()
    # r = 2 m with half-wavelength antenna spacing
    assert np.angle(distance_shift(0, 2.0, cfg)) == pytest.approx(
        -0.25918139392115797, abs=1e-12)


def test_estimate_distance_noiseless(cfg, pose):
    r_hat = estimate_distance(distance_transform(fresnel_stack(pose, cfg)), cfg)
    assert r_hat == pytest.approx(3.0, rel=1e-6)


def test_estimate_distance_wrapped_phases():
    # close range: outer column pairs wrap past +-pi and must be unwrapped
    cfg = SystemConfig()
    pose = Pose(r=1.40, theta=math.radians(100), phi=math.radians(20),
                psi=math.radians(30), gamma=math.radians(70))
    r_hat = estimate_distance(distance_transform(fresnel_stack(pose, cfg)), cfg)
    assert r_hat == pytest.approx(1.40, rel=1e-9)


def test_estimate_distance_infinite_distance_failure(cfg):
    # zero phase on every column pair: the stage gives NaN, and the trial
    # fails at stage distance with no stage's values in its row
    a = np.ones((1, cfg.n_ris, cfg.k_ue), dtype=complex)
    r_hat = estimate_distance(distance_transform(a), cfg)
    assert r_hat.shape == (1,) and np.isnan(r_hat).all()
    estimates, stage = estimate_pose_from_channel(a, cfg)
    assert list(stage) == ["distance"]
    assert np.isnan(estimates).all()


def test_estimate_distance_shape_check(cfg):
    with pytest.raises(ValueError):
        estimate_distance(np.ones((1, 5, 5), dtype=complex), cfg)


def test_stages_take_stacks_only(cfg):
    # a single (n_ris, k_ue) channel is not a stack: every stage rejects it
    one = np.ones((cfg.n_ris, cfg.k_ue), dtype=complex)
    delta = np.ones(1, dtype=complex)
    for call in (lambda: estimate_distance(one, cfg),
                 lambda: estimate_direction(one, cfg),
                 lambda: estimate_orientation(one, delta, delta, np.ones(1), cfg),
                 lambda: estimate_pose_from_channel(one, cfg)):
        with pytest.raises(ValueError, match="stack"):
            call()


def test_estimate_direction_noiseless(cfg, pose):
    theta, phi, ex, ey = estimate_direction(
        direction_transform(fresnel_stack(pose, cfg)), cfg)
    assert theta == pytest.approx(pose.theta, abs=1e-6)
    assert phi == pytest.approx(pose.phi, abs=1e-6)
    true_ex, true_ey = direction_shifts(pose, cfg)
    assert ex == pytest.approx(true_ex, abs=1e-9)
    assert ey == pytest.approx(true_ey, abs=1e-9)


def test_estimate_direction_skips_column_in_both_means(cfg, pose):
    # column 2's y-fit cannot identify a ratio while its x-fit returns a
    # finite, wrong one, so the column must drop out of both averages
    c = direction_transform(fresnel_stack(pose, cfg))
    spoil_columns(c, cfg, 2)
    ratios_x, ratios_y = est_mod._shift_ratios(c, cfg)
    true_ex, _ = direction_shifts(pose, cfg)
    assert np.isnan(ratios_y[0, 2])
    assert abs(ratios_x[0, 2] - true_ex) > 0.1
    _, _, ex, _ = estimate_direction(c, cfg)
    assert ex == pytest.approx(true_ex, abs=1e-12)


def test_estimate_direction_broadside_azimuth_exact(cfg):
    # azimuth 90 degrees zeroes the x-phase; two-argument arctangent keeps
    # the quadrant exactly
    pose = Pose(r=3.0, theta=math.pi / 2, phi=math.radians(40),
                psi=math.radians(120), gamma=math.radians(30))
    theta, phi, *_ = estimate_direction(direction_transform(fresnel_stack(pose, cfg)),
                                        cfg)
    assert theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert phi == pytest.approx(pose.phi, abs=1e-9)


def test_estimate_direction_invariant_to_orientation(cfg):
    base = dict(r=2.4, theta=math.radians(100), phi=math.radians(55))
    p1 = Pose(**base, psi=math.radians(20), gamma=math.radians(75))
    p2 = Pose(**base, psi=math.radians(160), gamma=math.radians(25))
    theta, phi, *_ = estimate_direction(direction_transform(fresnel_stack([p1, p2], cfg)),
                                        cfg)
    assert theta[0] == pytest.approx(theta[1], abs=1e-12)
    assert phi[0] == pytest.approx(phi[1], abs=1e-12)


def true_ratios(pose, cfg):
    """The model direction ratios and distance of one pose, as (1,) arrays."""
    ex, ey = direction_shifts(pose, cfg)
    return np.array([ex]), np.array([ey]), np.array([pose.r])


def test_estimate_orientation_noiseless(cfg, pose):
    d = orientation_transform(fresnel_stack(pose, cfg))
    psi, gamma = estimate_orientation(d, *true_ratios(pose, cfg), cfg)
    assert psi == pytest.approx(pose.psi, abs=1e-6)
    assert gamma == pytest.approx(pose.gamma, abs=1e-6)
    # an antenna whose y-fit cannot identify a ratio is skipped: its finite,
    # wrong x-ratio reaches neither slope fit
    spoil_columns(d, cfg, 0)
    gx, gy = est_mod._shift_ratios(d, cfg)
    assert np.isnan(gy[0, 0]) and np.isfinite(gx[0, 0])
    psi, gamma = estimate_orientation(d, *true_ratios(pose, cfg), cfg)
    assert psi == pytest.approx(pose.psi, abs=1e-6)
    assert gamma == pytest.approx(pose.gamma, abs=1e-6)


def test_estimate_orientation_sign_symmetry(cfg, pose):
    # the negative and the positive antenna offsets each give the exact
    # orientation alone: a slope on signed k keeps the quadrant
    d = orientation_transform(fresnel_stack(pose, cfg))
    k = cfg.antenna_offsets()
    for spoiled in (k > 0, k < 0):
        half = d.copy()
        spoil_columns(half, cfg, np.flatnonzero(spoiled))
        psi, gamma = estimate_orientation(half, *true_ratios(pose, cfg), cfg)
        assert psi == pytest.approx(pose.psi, abs=1e-9)
        assert gamma == pytest.approx(pose.gamma, abs=1e-9)
    # the center antenna carries no orientation signal: alone it fails
    spoil_columns(d, cfg, np.flatnonzero(k != 0))
    psi, gamma = estimate_orientation(d, *true_ratios(pose, cfg), cfg)
    assert np.isnan(psi).all() and np.isnan(gamma).all()


def test_estimate_orientation_flat_limit(cfg, pose):
    # no antenna-dependent phase at all (every antenna's elevation is the
    # 90 degree limit): the orientation phases are zero up to rounding, so
    # the azimuth is undefined and the trial fails as it does on exact zeros
    ex, ey, r = true_ratios(pose, cfg)
    n_idx, m_idx = element_indices(cfg)
    d_flat = ((ex ** n_idx) * (ey ** m_idx))[None, :, None] \
        * np.ones(cfg.k_ue)[None, None, :]
    phases = orientation_phases(d_flat, ex, ey, cfg)
    assert np.abs(phases).max() <= est_mod._ZERO_PHASE
    psi, gamma = estimate_orientation(d_flat, ex, ey, r, cfg)
    assert np.isnan(psi).all() and np.isnan(gamma).all()


def test_estimate_orientation_all_zero_phases_fail(cfg, pose, monkeypatch):
    ex, _ = direction_shifts(pose, cfg)
    stage = est_mod.estimate_orientation

    def collapsed(u, v):
        # every column's x and y ratios collapse to ex
        return np.full(u.shape[:-2] + u.shape[-1:], ex)

    def zero_phases(d, delta_ex, delta_ey, r_hat, cfg):
        monkeypatch.setattr(est_mod, "tls_phase_ratio", collapsed)
        return stage(d, np.full(len(d), ex), np.full(len(d), ex), r_hat, cfg)

    d = np.ones((1, cfg.n_ris, cfg.k_ue), dtype=complex)
    psi, gamma = zero_phases(d, None, None, np.array([pose.r]), cfg)
    assert np.isnan(psi).all() and np.isnan(gamma).all()
    # the earlier stages see the true ratios; the orientation stage fails,
    # and the trial's row keeps the distance and direction
    monkeypatch.undo()
    monkeypatch.setattr(est_mod, "estimate_orientation", zero_phases)
    estimates, stage_names = estimate_pose_from_channel(fresnel_stack(pose, cfg), cfg)
    assert list(stage_names) == ["orientation"]
    np.testing.assert_allclose(estimates[0, :3], pose.as_tuple()[:3], rtol=1e-6)
    assert np.isnan(estimates[0, 3:]).all()


def test_estimate_orientation_requires_positive_distance(cfg, pose, monkeypatch):
    d = orientation_transform(fresnel_stack(pose, cfg))
    ex, ey, _ = true_ratios(pose, cfg)
    for r_hat in (-1.0, 0.0, math.inf):
        psi, gamma = estimate_orientation(d, ex, ey, np.array([r_hat]), cfg)
        assert np.isnan(psi).all() and np.isnan(gamma).all()
    # a negative distance that gets past the distance stage fails orientation
    monkeypatch.setattr(est_mod, "estimate_distance",
                        lambda b, cfg: np.full(len(b), -1.0))
    estimates, stage = estimate_pose_from_channel(fresnel_stack(pose, cfg), cfg)
    assert list(stage) == ["orientation"]
    assert estimates[0, 0] == -1.0
    assert np.isfinite(estimates[0, 1:3]).all() and np.isnan(estimates[0, 3:]).all()


def test_estimate_orientation_without_direction_ratios(cfg, pose):
    # a trial whose direction ratios are NaN (it failed at direction) fits no
    # antenna: it gets NaN, the other trials keep their exact estimates, and
    # no division by NaN warns
    poses = [pose, replace(pose, psi=math.radians(20)), replace(pose, gamma=math.radians(60))]
    d = orientation_transform(fresnel_stack(poses, cfg))
    dex, dey, r = (np.concatenate(x) for x in zip(*(true_ratios(p, cfg) for p in poses)))
    want_psi, want_gamma = estimate_orientation(d, dex, dey, r, cfg)
    dex[1] = dey[1] = complex(np.nan, np.nan)
    dex[2] = complex(np.nan, np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi, gamma = estimate_orientation(d, dex, dey, r, cfg)
    assert np.isnan(psi[1:]).all() and np.isnan(gamma[1:]).all()
    assert psi[0] == want_psi[0] and gamma[0] == want_gamma[0]
    assert psi[0] == pytest.approx(pose.psi, abs=1e-6)
    assert gamma[0] == pytest.approx(pose.gamma, abs=1e-6)


def test_orientation_azimuth_near_pi_does_not_wrap(cfg):
    # at psi = 169 deg and 0 dB some per-antenna azimuths land past the +-pi
    # cut; an arithmetic mean of them is off by up to 2 pi / K
    poses = np.array([replace(sample_pose(np.random.default_rng([11, t]), cfg),
                              psi=math.radians(169.0)).as_tuple() for t in range(40)])
    a = sound_and_recover(ris_ue_channel(poses, cfg, ChannelMode.FRESNEL), cfg, 0.0,
                          [np.random.default_rng([12, t]) for t in range(40)])
    estimates, stage = estimate_pose_from_channel(a, cfg)
    ok = np.equal(stage, None)
    _, _, ex, ey = estimate_direction(direction_transform(a[ok]), cfg)
    psi_k = antenna_azimuths(orientation_phases(orientation_transform(a[ok]), ex, ey,
                                                cfg), cfg)
    assert (np.nanmin(psi_k, axis=-1) < 0).any()  # the cut is exercised
    errors = ((estimates[ok, 3] - poses[ok, 3]) / poses[ok, 3]) ** 2
    assert len(errors) >= 35
    assert errors.max() < 1e-2
    assert errors.mean() < 1e-3


def test_orientation_phases_unwrap_at_short_range():
    # at N = 49 the outer antennas' orientation phase exceeds pi near the
    # lower near-field edge; noiseless Fresnel must still be exact over the
    # whole pose box
    for k_ue in (11, 15):
        cfg = SystemConfig(n_x=7, n_y=7, k_ue=k_ue)
        poses = [sample_pose(np.random.default_rng([5, t]), cfg) for t in range(400)]
        true = np.array([p.as_tuple() for p in poses])
        a = fresnel_stack(poses, cfg)
        estimates, stage = estimate_pose_from_channel(a, cfg)
        assert np.equal(stage, None).all()
        err = np.abs(estimates - true) / true
        assert err.max() < 1e-6, (k_ue, err.max())
        # the measured per-antenna phases are wrapped where the model's
        # exceed pi: 4 pi k d_u cos(gamma) (d_x cos(psi), d_y sin(psi)) / (wl r)
        ex, ey = np.array([direction_shifts(p, cfg) for p in poses]).T
        scale = (4 * np.pi * cfg.antenna_offsets() * cfg.d_u
                 * np.cos(true[:, 4:]) / (cfg.wavelength * true[:, :1]))
        model = np.stack([scale * cfg.d_x * np.cos(true[:, 3:4]),
                          scale * cfg.d_y * np.sin(true[:, 3:4])])
        measured = orientation_phases(orientation_transform(a), ex, ey, cfg)
        wrapped = np.abs(measured - model) > np.pi
        np.testing.assert_array_equal(wrapped, np.abs(model) > np.pi)
        assert wrapped.any(), k_ue


def test_orientation_near_vertical_is_continuous(cfg):
    pose = Pose(r=3.0, theta=math.radians(60), phi=math.radians(40),
                psi=math.radians(120), gamma=math.pi / 2 - 1e-6)
    estimates, _ = estimate_pose_from_channel(fresnel_stack(pose, cfg), cfg)
    assert estimates[0, 4] == pytest.approx(pose.gamma, abs=1e-6)
    assert estimates[0, 3] == pytest.approx(pose.psi, abs=1e-6)


# ------------------------------------------------------------------ end to end

def test_estimate_pose_noiseless_random_poses(cfg):
    rng = np.random.default_rng(314)
    poses = [sample_pose(rng, cfg) for _ in range(20)]
    estimates, stage = estimate_pose_from_channel(fresnel_stack(poses, cfg), cfg)
    assert np.equal(stage, None).all()
    for (r, th, ph, ps, ga), pose in zip(estimates, poses):
        assert r == pytest.approx(pose.r, rel=1e-6)
        assert th == pytest.approx(pose.theta, abs=1e-6)
        assert ph == pytest.approx(pose.phi, abs=1e-6)
        assert ps == pytest.approx(pose.psi, abs=1e-6)
        assert ga == pytest.approx(pose.gamma, abs=1e-6)


def test_estimate_pose_full_pipeline(cfg, pose):
    a = fresnel(pose, cfg)
    # P = N and a profile count that is not a multiple of N
    for p in (cfg.n_ris, cfg.n_ris + 2):
        c = replace(cfg, p_profiles=p)
        y = observe(a, c, math.inf, np.random.default_rng(0))
        est = estimate_pose(y, c)
        assert est.r_hat == pytest.approx(pose.r, rel=1e-6)
        assert est.psi_hat == pytest.approx(pose.psi, abs=1e-6)


def test_estimate_pose_partial_results_on_late_failure(cfg, pose, monkeypatch):
    # a stage fails a trial with NaN; its row keeps the values of the stages
    # it passed and holds NaN after them, and estimate_pose raises that stage
    a = fresnel_stack(pose, cfg)
    y = observe(a[0], cfg, math.inf, np.random.default_rng(0))

    def failed_orientation(d, *args):
        return np.full(len(d), np.nan), np.full(len(d), np.nan)

    monkeypatch.setattr(est_mod, "estimate_orientation", failed_orientation)
    estimates, stage = estimate_pose_from_channel(a, cfg)
    assert list(stage) == ["orientation"]
    assert estimates[0, 0] == pytest.approx(pose.r, rel=1e-6)
    assert estimates[0, 1] == pytest.approx(pose.theta, abs=1e-6)
    assert estimates[0, 2] == pytest.approx(pose.phi, abs=1e-6)
    assert np.isnan(estimates[0, 3:]).all()
    with pytest.raises(EstimationError) as exc:
        estimate_pose(y, cfg)
    assert exc.value.stage == "orientation"

    def failed_direction(c, cfg):
        nan = np.full(len(c), np.nan)
        return nan, nan, nan + 0j, nan + 0j

    monkeypatch.setattr(est_mod, "estimate_direction", failed_direction)
    estimates, stage = estimate_pose_from_channel(a, cfg)
    assert list(stage) == ["direction"]
    assert estimates[0, 0] == pytest.approx(pose.r, rel=1e-6)
    assert np.isnan(estimates[0, 1:]).all()
    with pytest.raises(EstimationError) as exc:
        estimate_pose(y, cfg)
    assert exc.value.stage == "direction"


def test_conjugated_channel_fails_whole_row_at_distance(cfg, pose):
    # every stage sees every finite trial: a conjugated Fresnel channel has the
    # distance phases of a negative distance, but finite direction angles (its
    # direction phases are negated).  Its row is NaN from the distance stage
    # on, and the other trials' rows are those of a stack without it.
    a = fresnel_stack([pose, replace(pose, r=2.0), replace(pose, theta=math.radians(20))], cfg)
    a[1] = a[1].conj()
    assert np.isnan(estimate_distance(distance_transform(a[1:2]), cfg)).all()
    theta, phi, _, _ = estimate_direction(direction_transform(a[1:2]), cfg)
    assert np.isfinite(theta).all() and np.isfinite(phi).all()
    estimates, stage = estimate_pose_from_channel(a, cfg)
    assert list(stage) == [None, "distance", None]
    assert np.isnan(estimates[1]).all()
    others, _ = estimate_pose_from_channel(a[[0, 2]], cfg)
    np.testing.assert_array_equal(estimates[[0, 2]], others)


def test_estimate_pose_error_names_stage_once(cfg):
    # an all-ones channel has zero phase on every column pair: the distance
    # stage's own error comes through, not a copy with the stage prefixed again
    y = observe(np.ones((cfg.n_ris, cfg.k_ue), dtype=complex), cfg, math.inf,
                np.random.default_rng(0))
    with pytest.raises(EstimationError) as exc:
        estimate_pose(y, cfg)
    assert exc.value.stage == "distance"
    assert str(exc.value).startswith("distance: every column-pair phase")
    assert str(exc.value).count("distance:") == 1


def test_estimate_pose_error_decreases_with_noise(cfg, pose):
    # consistency: median error shrinks as the channel perturbation shrinks
    a = fresnel(pose, cfg)
    medians = []
    for scale in (1e-2, 1e-3, 1e-4):
        rng = np.random.default_rng(55)
        noise = [rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
                 for _ in range(31)]
        estimates, _ = estimate_pose_from_channel(a + scale * np.stack(noise), cfg)
        medians.append(np.median(np.abs(estimates[:, 0] - pose.r)))
    assert medians[0] > medians[1] > medians[2]


def test_estimate_pose_model_mismatch_small_at_long_range(cfg):
    # exact spherical distances vs the quadratic model the solver inverts:
    # at the far edge of the near field the gap is below a percent
    r_min, r_max = near_field_bounds(cfg)
    pose = Pose(r=r_max, theta=math.radians(40), phi=math.radians(45),
                psi=math.radians(165.26), gamma=math.radians(30))
    a = ris_ue_channel(pose.as_tuple(), cfg, ChannelMode.EXACT)
    estimates, _ = estimate_pose_from_channel(a[None], cfg)
    for got, true in zip(estimates[0], pose.as_tuple()):
        assert abs(got - true) / abs(true) < 1e-2


# --------------------------------------------------------- whole-box properties

@st.composite
def stacked_cases(draw):
    """A config at default spacings, a stack of poses over the whole box (edges
    included), the rows where NaN channels go, and a channel noise level."""
    n_x, n_y = draw(st.lists(st.sampled_from([3, 5, 7, 9]), min_size=2, max_size=2,
                             unique=True))
    cfg = SystemConfig(n_x=n_x, n_y=n_y, k_ue=draw(st.sampled_from([3, 5, 7])))
    unit = st.floats(0.0, 1.0)
    u = draw(st.lists(st.lists(unit, min_size=5, max_size=5), min_size=1, max_size=6))
    nan_rows = draw(st.lists(st.integers(0, len(u)), max_size=2))
    level = draw(st.sampled_from([0.0, 0.3, 3.0]))
    return cfg, poses_from_uniforms(np.array(u), cfg), nan_rows, level


@settings(max_examples=100, deadline=None)
@given(case=stacked_cases(), seed=st.integers(0, 2 ** 32 - 1))
def test_estimator_properties_over_the_box(case, seed):
    # noiseless Fresnel is exact at every drawn size and pose; NaN channels
    # fail as nonfinite; no NaN reaches a trial not marked failed; and every
    # row equals its stack of one
    cfg, poses, nan_rows, level = case
    a = ris_ue_channel(poses, cfg, ChannelMode.FRESNEL)
    rng = np.random.default_rng(seed)
    a = a + level * (rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape))
    a = np.insert(a, nan_rows, np.nan, axis=0)
    is_pose = np.insert(np.ones(len(poses), bool), nan_rows, False)
    estimates, stage = estimate_pose_from_channel(a, cfg)
    assert (stage[~is_pose] == "nonfinite").all()
    ok = np.equal(stage, None)
    assert np.isfinite(estimates[ok]).all()
    if level == 0.0:
        assert ok[is_pose].all()
        err = np.abs(estimates[is_pose] - poses)
        err[:, 0] /= poses[:, 0]
        assert err.max() < 1e-6
    for t in range(len(a)):
        one, one_stage = estimate_pose_from_channel(a[t:t + 1], cfg)
        assert one_stage[0] == stage[t]
        np.testing.assert_allclose(estimates[t], one[0], rtol=1e-12)
