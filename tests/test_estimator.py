"""Estimator: transforms, TLS ratios, per-stage and end-to-end estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest

import rispose.estimator as est_mod
from rispose.channel import ChannelMode, observe, ris_ue_channel
from rispose.estimator import (EstimationError,
                               direction_shifts, direction_transform,
                               distance_shift, distance_transform,
                               estimate_direction, estimate_distance,
                               estimate_orientation, estimate_pose,
                               estimate_pose_from_channel, orientation_shifts,
                               orientation_transform, tls_phase_ratio)
from rispose.geometry import (Pose, SystemConfig, near_field_bounds,
                              sample_pose, unit_direction)
from rispose.montecarlo import run_trial


@pytest.fixture
def cfg():
    return SystemConfig()


@pytest.fixture
def pose():
    return Pose(r=3.0, theta=math.radians(60), phi=math.radians(40),
                psi=math.radians(120), gamma=math.radians(30))


def fresnel(pose, cfg):
    return ris_ue_channel(pose, cfg, ChannelMode.FRESNEL)


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

def test_tls_phase_ratio_simple_pair():
    got = tls_phase_ratio(np.array([1.0, 1.0]), np.array([1.0j, 1.0j]))
    assert got == pytest.approx(1.0j, abs=1e-12)


def test_tls_phase_ratio_exact_on_rank_one():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    ratio = np.exp(1j * math.pi / 4)
    assert tls_phase_ratio(u, u * ratio) == pytest.approx(ratio, abs=1e-12)
    # invariant to a common complex scaling of the pair
    scale = 2.3 - 0.7j
    assert tls_phase_ratio(scale * u, scale * u * ratio) == pytest.approx(
        ratio, abs=1e-12)


def test_tls_phase_ratio_perturbation_accuracy():
    rng = np.random.default_rng(17)
    ratio = np.exp(0.6j)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        v = u * ratio
        noise_u = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        noise_v = rng.standard_normal(80) + 1j * rng.standard_normal(80)
        got = tls_phase_ratio(u + 1e-3 * noise_u, v + 1e-3 * noise_v)
        worst = max(worst, abs(got - ratio))
    assert worst < 5e-3


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
    got = tls_phase_ratio(u, v)
    expected = np.array([svd_ratio(u[:, j], v[:, j]) for j in range(cols)])
    assert got.shape == (cols,)
    assert np.isnan(got[5]) and np.isnan(expected[5])
    ok = np.arange(cols) != 5
    np.testing.assert_allclose(got[ok], expected[ok], rtol=1e-12)
    # a single (n,) pair gives the same value as its column in the stack
    single = tls_phase_ratio(u[:, 0], v[:, 0])
    assert isinstance(single, complex)
    assert single == pytest.approx(expected[0], rel=1e-12)


def test_tls_phase_ratio_input_validation():
    with pytest.raises(ValueError):
        tls_phase_ratio(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        tls_phase_ratio(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError):
        tls_phase_ratio(np.ones((3, 2, 2)), np.ones((3, 2, 2)))
    with pytest.raises(ValueError):
        tls_phase_ratio(np.zeros(3), np.ones(3))
    stack = np.ones((3, 2))
    stack[:, 1] = 0.0
    with pytest.raises(ValueError):
        tls_phase_ratio(np.ones((3, 2)), stack)
    # degenerate fit: NaN, not an exception
    assert np.isnan(tls_phase_ratio(np.array([1e-15, 1e-15]), np.array([1.0, 1.0])))


# ----------------------------------------------------------------- estimators

def test_distance_shift_frozen_phase():
    cfg = SystemConfig()
    # r = 2 m with half-wavelength antenna spacing
    assert np.angle(distance_shift(0, 2.0, cfg)) == pytest.approx(
        -0.25918139392115797, abs=1e-12)


def test_estimate_distance_noiseless(cfg, pose):
    r_hat = estimate_distance(distance_transform(fresnel(pose, cfg)), cfg)
    assert r_hat == pytest.approx(3.0, rel=1e-6)


def test_estimate_distance_wrapped_phases():
    # close range: outer column pairs wrap past +-pi and must be unwrapped
    cfg = SystemConfig()
    pose = Pose(r=1.40, theta=math.radians(100), phi=math.radians(20),
                psi=math.radians(30), gamma=math.radians(70))
    r_hat = estimate_distance(distance_transform(fresnel(pose, cfg)), cfg)
    assert r_hat == pytest.approx(1.40, rel=1e-9)


def test_estimate_distance_infinite_distance_failure(cfg):
    with pytest.raises(EstimationError) as exc:
        estimate_distance(np.ones((cfg.n_ris, cfg.k_ue), dtype=complex), cfg)
    assert exc.value.stage == "distance"


def test_estimate_distance_shape_check(cfg):
    with pytest.raises(ValueError):
        estimate_distance(np.ones((5, 5), dtype=complex), cfg)


def test_estimate_direction_noiseless(cfg, pose):
    theta, phi, ex, ey, _ = estimate_direction(
        direction_transform(fresnel(pose, cfg)), cfg)
    assert theta == pytest.approx(pose.theta, abs=1e-6)
    assert phi == pytest.approx(pose.phi, abs=1e-6)
    true_ex, true_ey = direction_shifts(pose, cfg)
    assert ex == pytest.approx(true_ex, abs=1e-9)
    assert ey == pytest.approx(true_ey, abs=1e-9)


def test_estimate_direction_skips_column_in_both_means(cfg, pose):
    # one column is negligible except for its last y-row: its y-fit cannot
    # identify a ratio while its x-fit returns a finite, wrong one, so the
    # column must drop out of both averages
    c = direction_transform(fresnel(pose, cfg))
    c[:, 2] *= 1e-15
    est_mod._grid(c, cfg)[:, -1, 2] = 1.0
    _, _, ex, _, diag = estimate_direction(c, cfg)
    true_ex, _ = direction_shifts(pose, cfg)
    assert ex == pytest.approx(true_ex, abs=1e-12)
    assert diag["direction_skipped_cols"] == 1


def test_estimate_direction_broadside_azimuth_exact(cfg):
    # azimuth 90 degrees zeroes the x-phase; two-argument arctangent keeps
    # the quadrant exactly
    pose = Pose(r=3.0, theta=math.pi / 2, phi=math.radians(40),
                psi=math.radians(120), gamma=math.radians(30))
    theta, phi, *_ = estimate_direction(direction_transform(fresnel(pose, cfg)),
                                        cfg)
    assert theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert phi == pytest.approx(pose.phi, abs=1e-9)


def test_estimate_direction_invariant_to_orientation(cfg):
    base = dict(r=2.4, theta=math.radians(100), phi=math.radians(55))
    p1 = Pose(**base, psi=math.radians(20), gamma=math.radians(75))
    p2 = Pose(**base, psi=math.radians(160), gamma=math.radians(25))
    out1 = estimate_direction(direction_transform(fresnel(p1, cfg)), cfg)
    out2 = estimate_direction(direction_transform(fresnel(p2, cfg)), cfg)
    assert out1[0] == pytest.approx(out2[0], abs=1e-12)
    assert out1[1] == pytest.approx(out2[1], abs=1e-12)


def test_estimate_orientation_noiseless(cfg, pose):
    d = orientation_transform(fresnel(pose, cfg))
    ex, ey = direction_shifts(pose, cfg)
    psi, gamma, diag = estimate_orientation(d, ex, ey, pose.r, cfg)
    assert psi == pytest.approx(pose.psi, abs=1e-6)
    assert gamma == pytest.approx(pose.gamma, abs=1e-6)
    assert diag["gamma_cos_arg_max"] <= 1.0 + 1e-12
    assert diag["orientation_skipped"] == 0
    # an antenna whose y-fit cannot identify a ratio is skipped and counted
    d[:, 0] *= 1e-15
    est_mod._grid(d, cfg)[:, -1, 0] = 1.0
    psi, gamma, diag = estimate_orientation(d, ex, ey, pose.r, cfg)
    assert psi == pytest.approx(pose.psi, abs=1e-6)
    assert gamma == pytest.approx(pose.gamma, abs=1e-6)
    assert diag["orientation_skipped"] == 1
    assert math.isnan(diag["gamma_per_k"][0])


def test_estimate_orientation_sign_symmetry(cfg, pose):
    # positive and negative antenna offsets agree after sign correction
    d = orientation_transform(fresnel(pose, cfg))
    ex, ey = direction_shifts(pose, cfg)
    _, _, diag = estimate_orientation(d, ex, ey, pose.r, cfg)
    psi_k = diag["psi_per_k"]
    gamma_k = diag["gamma_per_k"]
    for k in range(1, cfg.k_half + 1):
        assert psi_k[cfg.k_half + k] == pytest.approx(psi_k[cfg.k_half - k],
                                                      abs=1e-9)
        assert gamma_k[cfg.k_half + k] == pytest.approx(gamma_k[cfg.k_half - k],
                                                        abs=1e-9)
    assert math.isnan(psi_k[cfg.k_half])  # center antenna carries no signal


def test_estimate_orientation_flat_limit(cfg, pose):
    # no antenna-dependent phase at all: the elevation limit is 90 degrees
    ex, ey = direction_shifts(pose, cfg)
    n_idx, m_idx = element_indices(cfg)
    d_flat = ((ex ** n_idx) * (ey ** m_idx))[:, None] \
        * np.ones(cfg.k_ue)[None, :]
    psi, gamma, _ = estimate_orientation(d_flat.astype(complex), ex, ey,
                                         pose.r, cfg)
    assert gamma == pytest.approx(math.pi / 2, abs=1e-9)


def test_estimate_orientation_all_zero_phases_fail(cfg, pose, monkeypatch):
    ex, ey = direction_shifts(pose, cfg)
    # every column's x and y ratios collapse to ex
    monkeypatch.setattr(est_mod, "tls_phase_ratio",
                        lambda u, v: np.full(u.shape[1], ex))
    d = np.ones((cfg.n_ris, cfg.k_ue), dtype=complex)
    with pytest.raises(EstimationError) as exc:
        estimate_orientation(d, ex, ex, pose.r, cfg)
    assert exc.value.stage == "orientation"


def test_estimate_orientation_requires_positive_distance(cfg, pose):
    d = orientation_transform(fresnel(pose, cfg))
    ex, ey = direction_shifts(pose, cfg)
    with pytest.raises(EstimationError):
        estimate_orientation(d, ex, ey, -1.0, cfg)


def test_orientation_azimuth_near_pi_does_not_wrap(cfg):
    # at psi = 169 deg and 0 dB some per-antenna azimuths land past the +-pi
    # cut; an arithmetic mean of them is off by up to 2 pi / K
    psi_true = math.radians(169.0)
    wrapped = 0
    errors = []
    for t in range(40):
        pose = replace(sample_pose(np.random.default_rng([11, t]), cfg), psi=psi_true)
        result = run_trial(cfg, pose, 0.0, ChannelMode.FRESNEL,
                           np.random.default_rng([12, t]))
        if result.failed:
            continue
        wrapped += bool(np.nanmin(result.estimate.diagnostics["psi_per_k"]) < 0)
        errors.append(result.squared_relative_error["psi"])
    assert wrapped > 0  # the cut is exercised
    assert len(errors) >= 35
    assert max(errors) < 1e-2
    assert np.mean(errors) < 1e-3


def test_orientation_phases_unwrap_at_short_range():
    # at N = 49 the outer antennas' orientation phase exceeds pi near the
    # lower near-field edge; noiseless Fresnel must still be exact over the
    # whole pose box
    for k_ue in (11, 15):
        cfg = SystemConfig(n_x=7, n_y=7, k_ue=k_ue)
        worst = 0.0
        for t in range(400):
            pose = sample_pose(np.random.default_rng([5, t]), cfg)
            est = estimate_pose_from_channel(fresnel(pose, cfg), cfg)
            worst = max(worst, max(abs(got - true) / true
                                   for got, true in zip(est.as_tuple(), pose.as_tuple())))
        assert worst < 1e-6, (k_ue, worst)


def test_orientation_near_vertical_is_continuous(cfg):
    pose = Pose(r=3.0, theta=math.radians(60), phi=math.radians(40),
                psi=math.radians(120), gamma=math.pi / 2 - 1e-6)
    est = estimate_pose_from_channel(fresnel(pose, cfg), cfg)
    assert est.gamma_hat == pytest.approx(pose.gamma, abs=1e-6)
    assert est.psi_hat == pytest.approx(pose.psi, abs=1e-6)


# ------------------------------------------------------------------ end to end

def test_estimate_pose_noiseless_random_poses(cfg):
    rng = np.random.default_rng(314)
    for _ in range(20):
        pose = sample_pose(rng, cfg)
        est = estimate_pose_from_channel(fresnel(pose, cfg), cfg)
        r, th, ph, ps, ga = est.as_tuple()
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
    def boom(*args, **kwargs):
        raise EstimationError("orientation", "forced failure")

    monkeypatch.setattr(est_mod, "estimate_orientation", boom)
    with pytest.raises(EstimationError) as exc:
        estimate_pose_from_channel(fresnel(pose, cfg), cfg)
    assert exc.value.stage == "orientation"
    assert exc.value.partial["r_hat"] == pytest.approx(pose.r, rel=1e-6)
    assert exc.value.partial["theta_hat"] == pytest.approx(pose.theta, abs=1e-6)


def test_estimate_pose_error_names_stage_once(cfg):
    # an all-ones channel has zero phase on every column pair: the distance
    # stage's own error comes through, not a copy with the stage prefixed again
    with pytest.raises(EstimationError) as exc:
        estimate_pose_from_channel(np.ones((cfg.n_ris, cfg.k_ue), dtype=complex), cfg)
    assert exc.value.stage == "distance"
    assert str(exc.value).startswith("distance: every column-pair phase")
    assert str(exc.value).count("distance:") == 1


def test_estimate_pose_error_decreases_with_noise(cfg, pose):
    # consistency: median error shrinks as the channel perturbation shrinks
    a = fresnel(pose, cfg)
    medians = []
    for scale in (1e-2, 1e-3, 1e-4):
        errs = []
        rng = np.random.default_rng(55)
        for _ in range(31):
            noise = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
            est = estimate_pose_from_channel(a + scale * noise, cfg)
            errs.append(abs(est.r_hat - pose.r))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_estimate_pose_model_mismatch_small_at_long_range(cfg):
    # exact spherical distances vs the quadratic model the solver inverts:
    # at the far edge of the near field the gap is below a percent
    r_min, r_max = near_field_bounds(cfg)
    pose = Pose(r=r_max, theta=math.radians(40), phi=math.radians(45),
                psi=math.radians(165.26), gamma=math.radians(30))
    a = ris_ue_channel(pose, cfg, ChannelMode.EXACT)
    est = estimate_pose_from_channel(a, cfg)
    for got, true in zip(est.as_tuple(), pose.as_tuple()):
        assert abs(got - true) / abs(true) < 1e-2
