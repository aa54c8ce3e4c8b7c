"""Geometry: unit directions, near-field bounds, config and pose checks, pose sampling."""

import math

import numpy as np
import pytest

from rispose.geometry import (Pose, SystemConfig, near_field_bounds,
                              sample_pose, unit_direction)


@pytest.fixture
def cfg():
    return SystemConfig()


def test_unit_direction_axis_cases():
    np.testing.assert_allclose(unit_direction(0.0, 0.0), [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(unit_direction(math.pi / 2, 0.0), [0, 1, 0],
                               atol=1e-15)
    np.testing.assert_allclose(unit_direction(0.3, math.pi / 2), [0, 0, 1],
                               atol=1e-15)


def test_unit_direction_is_unit_norm():
    rng = np.random.default_rng(3)
    for _ in range(100):
        az = rng.uniform(-math.pi, math.pi)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        assert np.linalg.norm(unit_direction(az, el)) == pytest.approx(1.0, abs=1e-14)


def test_near_field_bounds_default_array(cfg):
    # frozen from independent evaluation of the Fresnel/Fraunhofer formulas
    r_min, r_max = near_field_bounds(cfg)
    assert r_min == pytest.approx(1.360154175643681, abs=1e-12)
    assert r_max == pytest.approx(8.25, rel=1e-12)


def test_near_field_bounds_grow_with_aperture():
    small = near_field_bounds(SystemConfig(n_x=9, n_y=9, p_profiles=81))
    large = near_field_bounds(SystemConfig(n_x=15, n_y=15, p_profiles=225))
    assert small[0] < large[0] and small[1] < large[1]
    assert small[0] < small[1] and large[0] < large[1]


def test_system_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(k_ue=10)  # even
    with pytest.raises(ValueError):
        SystemConfig(n_x=1)
    with pytest.raises(ValueError):
        SystemConfig(l_pilot=5)  # below k_ue
    with pytest.raises(ValueError):
        SystemConfig(p_profiles=100)  # below the RIS size
    with pytest.raises(ValueError):
        SystemConfig(wavelength=0.0)


def test_wrap_rules_at_their_edges():
    # each wrap-free rule accepts a config just inside its edge and rejects
    # one just outside, naming the rule
    cfg = SystemConfig()
    wl = cfg.wavelength
    cos10 = math.cos(math.radians(10.0))
    r_min = near_field_bounds(cfg)[0]
    # the largest |cos(theta) cos(phi)| and |sin(theta) cos(phi)| of the box
    edges = [("d_x", wl / (4 * cos10 * cos10), {}, "direction wrap rule"),
             ("d_y", wl / (4 * cos10), {}, "direction wrap rule"),
             ("d_u", math.sqrt(r_min * wl / 2), {}, "distance wrap rule")]
    # a 3 x 3 RIS with d_x << d_y: 4 d_u d_y / wavelength = d_u reaches r_min
    # before 2 d_u^2 / wavelength does
    small = dict(n_x=3, n_y=3, d_x=0.01)
    edges.append(("d_u", near_field_bounds(SystemConfig(**small, d_u=0.05))[0], small,
                  "orientation wrap rule"))
    for name, edge, base, rule in edges:
        SystemConfig(**base, **{name: edge * (1 - 1e-9)})
        with pytest.raises(ValueError, match=rule):
            SystemConfig(**base, **{name: edge * (1 + 1e-9)})
    # the defaults pass; a 3 x 3 RIS, half-wavelength spacing and d_u = wavelength
    # at N = 49 do not
    for fields, rule in (({"n_x": 3, "n_y": 3}, "distance"),
                         ({"d_x": wl / 2}, "direction"), ({"d_y": wl / 2}, "direction"),
                         ({"n_x": 7, "n_y": 7, "d_u": wl}, "distance")):
        with pytest.raises(ValueError, match=f"{rule} wrap rule"):
            SystemConfig(**fields)


def test_system_config_profile_default_resolves_to_ris_size():
    cfg = SystemConfig(n_x=9, n_y=9)
    assert cfg.p_profiles == 81
    assert cfg.n_ris == 81
    assert cfg.k_half == 5


def test_pose_validation():
    with pytest.raises(ValueError):
        Pose(r=-1.0, theta=1.0, phi=0.5, psi=1.0, gamma=0.5)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError):
            Pose(r=r, theta=1.0, phi=0.5, psi=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        Pose(r=2.0, theta=0.0, phi=0.5, psi=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        Pose(r=2.0, theta=1.0, phi=math.pi / 2, psi=1.0, gamma=0.5)
    with pytest.raises(ValueError):
        Pose(r=2.0, theta=1.0, phi=0.5, psi=math.pi, gamma=0.5)


def test_sample_pose_ranges_and_determinism(cfg):
    r_min, r_max = near_field_bounds(cfg)
    rng = np.random.default_rng(11)
    poses = [sample_pose(rng, cfg) for _ in range(200)]
    for p in poses:
        assert r_min <= p.r <= r_max
        assert math.radians(10) <= p.theta <= math.radians(170)
        assert math.radians(10) <= p.phi <= math.radians(80)
        assert math.radians(15) <= p.psi <= math.radians(170)
        assert math.radians(15) <= p.gamma <= math.radians(80)
    # fixed seed reproduces the identical sequence
    rng2 = np.random.default_rng(11)
    poses2 = [sample_pose(rng2, cfg) for _ in range(200)]
    assert poses == poses2

