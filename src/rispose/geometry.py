"""Array geometry, near-field bounds, and pose sampling.

Conventions used throughout the package:

* The RIS is a uniform planar array in the xy-plane, centered at the origin,
  with an odd number of elements per axis so that a center element exists.
* The user terminal is a uniform linear array of K antennas (K odd) whose
  center antenna sits at distance ``r`` from the RIS center.
* All angles are in radians and all lengths in meters.  Degrees appear only
  at the command-line boundary.
* Azimuth/elevation pairs map to unit vectors via
  ``[cos(az) cos(el), sin(az) cos(el), sin(el)]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Pose sampling ranges (degrees).  Kept away from the axis singularities at
# 0 and 180 azimuth / 0 and 90 elevation where individual angles become
# unidentifiable or relative errors blow up.
THETA_RANGE_DEG = (10.0, 170.0)
PHI_RANGE_DEG = (10.0, 80.0)
PSI_RANGE_DEG = (15.0, 170.0)
GAMMA_RANGE_DEG = (15.0, 80.0)

# Largest |cos(theta) cos(phi)| and |sin(theta) cos(phi)| over the pose box:
# |cos(theta)| peaks at a theta edge, sin(theta) at 90 degrees (inside the
# range) and cos(phi) at the lower phi edge.
_COS_PHI_MAX = math.cos(math.radians(PHI_RANGE_DEG[0]))
_DIRECTION_EXTENT = (max(abs(math.cos(math.radians(t))) for t in THETA_RANGE_DEG)
                     * _COS_PHI_MAX, _COS_PHI_MAX)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    Attributes:
        m_bs: number of base-station antennas.
        k_ue: number of user antennas (odd, >= 3).
        n_x, n_y: RIS elements per axis (odd, >= 3).
        p_profiles: number of RIS phase profiles used for sounding.  ``None``
            resolves to the RIS size ``n_x * n_y``.
        l_pilot: pilot sequence length (>= k_ue).
        wavelength: carrier wavelength in meters.
        d_u: user array antenna spacing.
        d_b: base-station antenna spacing.
        d_x, d_y: RIS element spacing per axis.
        theta_bs: BS array broadside angle seen from the RIS.
        theta_ris, phi_ris: azimuth/elevation of the BS seen from the RIS.
    """

    m_bs: int = 9
    k_ue: int = 11
    n_x: int = 11
    n_y: int = 11
    p_profiles: int | None = None
    l_pilot: int = 50
    wavelength: float = 0.33
    d_u: float = 0.165
    d_b: float = 0.165
    d_x: float = 0.0825
    d_y: float = 0.0825
    theta_bs: float = math.radians(30.0)
    theta_ris: float = math.radians(40.0)
    phi_ris: float = math.radians(50.0)

    def __post_init__(self):
        if self.p_profiles is None:
            object.__setattr__(self, "p_profiles", self.n_x * self.n_y)
        for name in ("m_bs", "k_ue", "n_x", "n_y", "p_profiles", "l_pilot"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        for name in ("k_ue", "n_x", "n_y"):
            v = getattr(self, name)
            if v % 2 == 0 or v < 3:
                raise ValueError(f"{name} must be odd and >= 3, got {v}")
        if self.l_pilot < self.k_ue:
            raise ValueError(
                f"l_pilot must be >= k_ue for pilot recovery "
                f"({self.l_pilot} < {self.k_ue})"
            )
        if self.p_profiles < self.n_ris:
            raise ValueError(
                f"p_profiles must be >= the RIS size "
                f"({self.p_profiles} < {self.n_ris})"
            )
        for name in ("wavelength", "d_u", "d_b", "d_x", "d_y"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        for name in ("theta_bs", "theta_ris", "phi_ris"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        # pose sampling draws r from this window, so it must be a finite range
        try:
            window = near_field_bounds(self)
        except OverflowError:
            window = (math.inf, math.inf)
        if not all(math.isfinite(v) for v in window):
            raise ValueError("the near-field window of this RIS aperture and "
                             "wavelength overflows a float")
        # the same rule for the UE array: its far-field distance
        # 2 ((k_ue - 1) d_u)^2 / wavelength must be finite (x * x gives inf
        # where x ** 2 would raise)
        ue_aperture = (self.k_ue - 1) * self.d_u
        if not math.isfinite(2.0 * ue_aperture * ue_aperture / self.wavelength):
            raise ValueError(f"d_u = {self.d_u!r}: the far-field distance of this "
                             f"UE array and wavelength overflows a float")
        # the estimator reads phases that are ambiguous once they pass pi, so
        # no pose of the box or the near-field window may let one wrap
        for name, cosine, extent in zip(("d_x", "d_y"), ("cos", "sin"),
                                        _DIRECTION_EXTENT):
            if not getattr(self, name) * extent < self.wavelength / 4:
                raise ValueError(
                    f"{name} = {getattr(self, name)!r} breaks the direction wrap rule "
                    f"{name} max|{cosine}(theta) cos(phi)| < wavelength / 4 over the "
                    f"pose box: {name} must be below "
                    f"{self.wavelength / (4 * extent):.4g} m")
        r_min = window[0]
        for rule, bound in (
                ("distance wrap rule r_min > 2 d_u^2 / wavelength",
                 distance_wrap_bound(self)),
                ("orientation wrap rule r_min > 4 d_u max(d_x, d_y) / wavelength",
                 4.0 * self.d_u * max(self.d_x, self.d_y) / self.wavelength)):
            if not r_min > bound:
                raise ValueError(f"the near-field window starts at r_min = {r_min:.4g} m, "
                                 f"which breaks the {rule} = {bound:.4g} m")

    @property
    def n_ris(self) -> int:
        """Total number of RIS elements."""
        return self.n_x * self.n_y

    @property
    def k_half(self) -> int:
        return (self.k_ue - 1) // 2

    def antenna_offsets(self) -> np.ndarray:
        """Signed antenna indices ``[-k_half, ..., k_half]`` of the UE array."""
        return np.arange(-self.k_half, self.k_half + 1)


@dataclass(frozen=True)
class Pose:
    """5D user pose: position in spherical form plus array orientation.

    ``r`` is the distance from the RIS center to the center antenna,
    ``theta``/``phi`` the azimuth/elevation of that antenna, and
    ``psi``/``gamma`` the azimuth/elevation of the array axis direction.
    """

    r: float
    theta: float
    phi: float
    psi: float
    gamma: float

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise ValueError(f"r must be positive and finite, got {self.r!r}")
        for name, hi in (("theta", math.pi), ("phi", math.pi / 2),
                         ("psi", math.pi), ("gamma", math.pi / 2)):
            v = getattr(self, name)
            if not 0.0 < v < hi:
                raise ValueError(
                    f"{name} must lie strictly inside (0, {hi:.6g}), got {v!r}"
                )

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r, self.theta, self.phi, self.psi, self.gamma)


def unit_direction(azimuth, elevation) -> np.ndarray:
    """Unit vector for an azimuth/elevation pair, shape (3,); (3, ...) for arrays."""
    ce = np.cos(elevation)
    return np.array([np.cos(azimuth) * ce, np.sin(azimuth) * ce, np.sin(elevation)])


def near_field_bounds(cfg: SystemConfig) -> tuple[float, float]:
    """Radiating near-field distance window of the RIS, (r_min, r_max).

    The lower edge is the Fresnel distance 0.62 * sqrt(D^3 / wavelength) and
    the upper edge the Fraunhofer distance 2 * D^2 / wavelength, where D is
    the RIS diagonal.
    """
    a = (cfg.n_x - 1) * cfg.d_x
    b = (cfg.n_y - 1) * cfg.d_y
    diag_sq = a * a + b * b
    r_min = 0.62 * math.sqrt(diag_sq ** 1.5 / cfg.wavelength)
    r_max = 2.0 * diag_sq / cfg.wavelength
    return r_min, r_max


def distance_wrap_bound(cfg: SystemConfig) -> float:
    """Range 2 d_u^2 / wavelength below which the centre column-pair phase wraps."""
    return 2.0 * cfg.d_u * cfg.d_u / cfg.wavelength


def poses_from_uniforms(u: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Pose arrays, (r, theta, phi, psi, gamma) on the last axis, from uniforms ``u``.

    ``u`` is in the draw order (theta, phi, psi, gamma, r) on its last axis.
    Each value maps to ``lo + (hi - lo) * u`` over its angle range (then in
    radians) or ``near_field_bounds(cfg)``: ``Generator.uniform``'s own
    arithmetic, so ``rng.random(5)`` maps to exactly ``sample_pose(rng, cfg)``.
    """
    lo, hi = np.array([THETA_RANGE_DEG, PHI_RANGE_DEG, PSI_RANGE_DEG, GAMMA_RANGE_DEG,
                       near_field_bounds(cfg)]).T
    x = lo + (hi - lo) * u
    return np.concatenate([x[..., 4:], np.radians(x[..., :4])], axis=-1)


def sample_pose(rng: np.random.Generator, cfg: SystemConfig) -> Pose:
    """A uniform random pose in the box: ``poses_from_uniforms`` of ``rng.random(5)``."""
    return Pose(*poses_from_uniforms(rng.random(5), cfg).tolist())
