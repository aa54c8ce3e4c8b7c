"""Closed-form 5D pose estimators built on shift-invariance of the channel.

Three element-wise products of the recovered channel ``a`` with flipped or
conjugate-flipped copies of itself isolate one unknown each:

* ``distance_transform``  a * flip_cols(a): adjacent columns differ by a
  distance-only phase ratio.
* ``direction_transform`` a * conj(flip_rows(flip_cols(a))): rows shifted by
  one element along x (or y) differ by a ratio fixed by the position
  azimuth/elevation.
* ``orientation_transform`` a * conj(flip_rows(a)): the same row shifts give
  per-antenna ratios that add an orientation term on top of the position
  term.

Row shifts are slices of the (n_x, n_y, k_ue) grid view of a transform.
Each ratio is estimated by a closed-form rank-one total-least-squares fit,
for all columns at once, and converted back to a parameter through its
phase.  All of it is exact for the Fresnel channel model and approximate
for true Euclidean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import recover_channel
from .geometry import Pose, SystemConfig

_TLS_TOL = 1e-12


class EstimationError(Exception):
    """Estimation failed at a named stage; partial results may be attached."""

    def __init__(self, stage: str, message: str, partial: dict | None = None):
        super().__init__(f"{stage}: {message}")
        self.stage = stage
        self.partial = partial if partial is not None else {}


@dataclass(frozen=True)
class PoseEstimate:
    """Estimated pose with per-stage diagnostics."""

    r_hat: float
    theta_hat: float
    phi_hat: float
    psi_hat: float
    gamma_hat: float
    diagnostics: dict = field(repr=False, default_factory=dict)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r_hat, self.theta_hat, self.phi_hat,
                self.psi_hat, self.gamma_hat)


def distance_transform(a: np.ndarray) -> np.ndarray:
    """a * a with columns flipped; rows gain a column-pair distance ratio."""
    return a * a[:, ::-1]


def direction_transform(a: np.ndarray) -> np.ndarray:
    """a * conj(a) with rows and columns flipped; isolates the position angles."""
    return a * np.conj(a[::-1, ::-1])


def orientation_transform(a: np.ndarray) -> np.ndarray:
    """a * conj(a) with rows flipped; keeps position plus orientation terms."""
    return a * np.conj(a[::-1, :])


def _grid(x: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """View an (n_ris, k_ue) matrix as the (n_x, n_y, k_ue) element grid.

    Rows are x-major with y varying fastest (``ris_ue_channel``), so the
    x-neighbour rows are ``g[:-1]``/``g[1:]``, the y-neighbour rows
    ``g[:, :-1]``/``g[:, 1:]``, and ``g[::-1, ::-1]`` mirrors the array
    through its center.
    """
    return x.reshape(cfg.n_x, cfg.n_y, -1)


def _shift_ratios(x: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-column TLS ratios between rows one element apart along x and y."""
    g = _grid(x, cfg)
    k = g.shape[-1]
    gx = tls_phase_ratio(g[:-1].reshape(-1, k), g[1:].reshape(-1, k))
    gy = tls_phase_ratio(g[:, :-1].reshape(-1, k), g[:, 1:].reshape(-1, k))
    return gx, gy


def tls_phase_ratio(u: np.ndarray, v: np.ndarray) -> complex | np.ndarray:
    """Total-least-squares estimate of the scalar ratio in ``v ~ u * delta``.

    ``u`` and ``v`` are (n,) vectors or (n, cols) stacks fitted column by
    column.  With ``a = |u|^2``, ``c = |v|^2`` and ``b = u^H v``, the null
    direction of the Gram matrix ``[[a, b], [b*, c]]`` of ``[u v]`` gives
    ``delta = b / (a - lmin)`` (Golub & Van Loan, *Matrix Computations*,
    section 6.3): the SVD fit in closed form.  Exact for a noiseless
    rank-one stack, symmetric in the noise on u and v otherwise.

    Returns:
        A complex for (n,) inputs, a (cols,) array otherwise; NaN where the
        fit cannot identify a finite ratio.

    Raises:
        ValueError: on shape mismatch or an all-zero input column.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim not in (1, 2) or u.shape != v.shape:
        raise ValueError(f"need equal-shape 1-D or 2-D inputs, got {u.shape} and {v.shape}")
    single = u.ndim == 1
    if single:
        u, v = u[:, None], v[:, None]
    a = (u.conj() * u).real.sum(axis=0)
    c = (v.conj() * v).real.sum(axis=0)
    if not (np.all(a > 0) and np.all(c > 0)):
        raise ValueError("inputs must have nonzero norm")
    b = (u.conj() * v).sum(axis=0)
    abs_b = np.abs(b)
    half = (a - c) / 2
    # a - lmin = half + root; for a < c the same value is |b|^2 / (root - half),
    # which avoids the cancellation
    s = np.hypot(half, abs_b) + np.abs(half)
    den = np.divide(abs_b ** 2, s, out=s.copy(), where=half < 0)
    # den / hypot(den, |b|) is the null vector's component along v
    degenerate = den <= _TLS_TOL * np.hypot(den, abs_b)
    ratio = np.divide(b, den, out=np.full(b.shape, complex(np.nan, np.nan)),
                      where=~degenerate)
    return complex(ratio[0]) if single else ratio


def distance_shift(k: int, r: float, cfg: SystemConfig) -> complex:
    """Model column-pair ratio of the distance transform for antenna index k."""
    phase = -2.0 * math.pi * (2 * k + 1) * cfg.d_u ** 2 / (cfg.wavelength * r)
    return complex(np.exp(1j * phase))


def direction_shifts(pose: Pose, cfg: SystemConfig) -> tuple[complex, complex]:
    """Model x/y row-pair ratios of the direction transform."""
    c = 4.0 * math.pi / cfg.wavelength * math.cos(pose.phi)
    ex = np.exp(1j * c * cfg.d_x * math.cos(pose.theta))
    ey = np.exp(1j * c * cfg.d_y * math.sin(pose.theta))
    return complex(ex), complex(ey)


def orientation_shifts(pose: Pose, k: int,
                       cfg: SystemConfig) -> tuple[complex, complex]:
    """Model x/y row-pair ratios of the orientation transform at antenna k."""
    ex, ey = direction_shifts(pose, cfg)
    c = 4.0 * math.pi * k * cfg.d_u / (cfg.wavelength * pose.r) * math.cos(pose.gamma)
    gx = ex * np.exp(1j * c * cfg.d_x * math.cos(pose.psi))
    gy = ey * np.exp(1j * c * cfg.d_y * math.sin(pose.psi))
    return complex(gx), complex(gy)


def _nearest_branch(phase: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """``phase`` moved by whole turns to the branch nearest ``predicted``."""
    return phase + 2 * np.pi * np.round((predicted - phase) / (2 * np.pi))


def estimate_distance(b: np.ndarray, cfg: SystemConfig) -> float:
    """Distance from the distance transform ``b``, shape (n_ris, k_ue).

    Each adjacent column pair (k, k+1) yields a phase whose model value is
    ``-2 pi (2k+1) d_u^2 / (wavelength r)``.  The two center pairs, where
    the phase magnitude is smallest and cannot wrap inside the near field,
    give a coarse distance; the remaining phases are unwrapped to the branch
    nearest their model prediction before inverting.  The estimate is the
    mean of the per-pair distances.
    """
    n, k_ue = b.shape
    if n != cfg.n_ris or k_ue != cfg.k_ue:
        raise ValueError(f"expected shape {(cfg.n_ris, cfg.k_ue)}, got {b.shape}")
    kh = cfg.k_half
    k_vals = np.arange(-kh, kh)  # pair (k, k+1) per entry
    coeff = -2.0 * math.pi * (2 * k_vals + 1) * cfg.d_u ** 2 / cfg.wavelength

    # NaN for an unidentifiable pair, excluded below
    phases = np.angle(tls_phase_ratio(b[:, :-1], b[:, 1:]))

    # coarse distance from the |2k+1| = 1 pairs (k = -1 and k = 0)
    coarse = []
    for idx in (kh - 1, kh):
        ph = phases[idx]
        if np.isfinite(ph) and ph != 0.0 and coeff[idx] / ph > 0:
            coarse.append(coeff[idx] / ph)
    if coarse:
        phases = _nearest_branch(phases, coeff / float(np.mean(coarse)))

    valid = np.isfinite(phases) & (phases != 0.0)
    if not valid.any():
        raise EstimationError("distance", "every column-pair phase was zero or "
                              "unidentifiable (infinite-distance indication)")
    r_hat = float(np.mean(coeff[valid] / phases[valid]))
    if not (math.isfinite(r_hat) and r_hat > 0):
        raise EstimationError("distance", f"non-physical distance {r_hat!r}")
    return r_hat


def estimate_direction(
    c: np.ndarray, cfg: SystemConfig
) -> tuple[float, float, complex, complex, dict]:
    """Position azimuth/elevation from the direction transform ``c``.

    Per column, a TLS fit over x-axis (y-axis) row pairs estimates the two
    element-shift ratios; the complex ratios are averaged over the columns
    where both fits identify a ratio (the rest count as skipped), then
    the azimuth comes from the two-argument arctangent of the scaled phases
    and the elevation from an arccosine (argument clipped into [0, 1], with
    the raw value kept as a diagnostic).

    Returns:
        (theta_hat, phi_hat, delta_ex, delta_ey, diagnostics).
    """
    if c.shape != (cfg.n_ris, cfg.k_ue):
        raise ValueError(f"expected shape {(cfg.n_ris, cfg.k_ue)}, got {c.shape}")
    ratios_x, ratios_y = _shift_ratios(c, cfg)
    fit = np.isfinite(ratios_x) & np.isfinite(ratios_y)
    if not fit.any():
        raise EstimationError("direction", "shift ratio unidentifiable in every column")
    # a column enters both means or neither
    delta_ex = complex(np.mean(ratios_x[fit]))
    delta_ey = complex(np.mean(ratios_y[fit]))
    skipped = int(cfg.k_ue - np.count_nonzero(fit))
    ax = np.angle(delta_ex) / cfg.d_x
    ay = np.angle(delta_ey) / cfg.d_y
    if ax == 0.0 and ay == 0.0:
        # elevation exactly 90 degrees leaves the azimuth undefined
        raise EstimationError("direction", "both direction phases vanish")
    theta_hat = math.atan2(ay, ax)
    cos_arg = cfg.wavelength / (4 * math.pi) * math.hypot(ax, ay)
    phi_hat = math.acos(min(max(cos_arg, 0.0), 1.0))
    diag = {"phi_cos_arg": cos_arg, "direction_skipped_cols": skipped}
    return theta_hat, phi_hat, delta_ex, delta_ey, diag


def estimate_orientation(
    d: np.ndarray, delta_ex: complex, delta_ey: complex, r_hat: float,
    cfg: SystemConfig
) -> tuple[float, float, dict]:
    """Orientation azimuth/elevation from the orientation transform ``d``.

    For each off-center antenna k, the x/y shift ratios are divided by the
    direction ratios to leave pure orientation phases that scale with
    ``k / r``.  The |k| = 1 antennas, whose phases cannot wrap inside the
    near field, give the slope in k; every phase is unwrapped to the branch
    nearest k times that slope (left as is if neither |k| = 1 antenna was
    fitted).  Each k yields an azimuth (sign-corrected so negative k does
    not flip the quadrant) and an elevation.  The azimuths are averaged on
    the circle, the elevations arithmetically.

    Returns:
        (psi_hat, gamma_hat, diagnostics).
    """
    if d.shape != (cfg.n_ris, cfg.k_ue):
        raise ValueError(f"expected shape {(cfg.n_ris, cfg.k_ue)}, got {d.shape}")
    if not (math.isfinite(r_hat) and r_hat > 0):
        raise EstimationError("orientation", f"invalid distance input {r_hat!r}")
    gx, gy = _shift_ratios(d, cfg)
    k = cfg.antenna_offsets()
    # the center antenna carries no orientation phase
    off_center = k != 0
    cols = np.flatnonzero(off_center & np.isfinite(gx) & np.isfinite(gy))
    skipped = int(np.count_nonzero(off_center)) - cols.size
    kc = k[cols]
    sgn = np.sign(kc)
    phases = np.angle(np.stack([gx[cols] / delta_ex, gy[cols] / delta_ey]))
    inner = np.abs(kc) == 1
    if inner.any():
        slope = (phases[:, inner] * sgn[inner]).mean(axis=1)
        phases = _nearest_branch(phases, slope[:, None] * kc)
    alpha_x = phases[0] / cfg.d_x
    alpha_y = phases[1] / cfg.d_y
    # exact zeros carry no azimuth information; averaging atan2(0, 0)
    # would silently bias the mean toward zero
    has_azimuth = (alpha_x != 0.0) | (alpha_y != 0.0)
    if not has_azimuth.any():
        raise EstimationError(
            "orientation", "orientation phases unidentifiable for every antenna")
    psi = np.arctan2(sgn * alpha_y, sgn * alpha_x)[has_azimuth]
    cos_args = (cfg.wavelength * r_hat / (4 * math.pi * np.abs(kc) * cfg.d_u)
                * np.hypot(alpha_x, alpha_y))
    gamma = np.arccos(np.clip(cos_args, 0.0, 1.0))
    psi_per_k = np.full(cfg.k_ue, np.nan)
    psi_per_k[cols[has_azimuth]] = psi
    gamma_per_k = np.full(cfg.k_ue, np.nan)
    gamma_per_k[cols] = gamma
    diag = {"gamma_cos_arg_max": float(cos_args.max()), "orientation_skipped": skipped,
            "psi_per_k": psi_per_k, "gamma_per_k": gamma_per_k}
    # per-antenna azimuths near pi wrap to near -pi; take the circular mean
    # and wrap it into [-pi/2, 3pi/2), the 2 pi window centred on (0, pi)
    psi_hat = (np.angle(np.mean(np.exp(1j * psi))) + math.pi / 2) % (2 * math.pi) - math.pi / 2
    return float(psi_hat), float(np.mean(gamma)), diag


def estimate_pose_from_channel(a: np.ndarray, cfg: SystemConfig) -> PoseEstimate:
    """Run the three-stage estimator on an already recovered channel matrix.

    Args:
        a: recovered (n_ris, k_ue) channel.
        cfg: system parameters.

    Returns:
        PoseEstimate with all five parameters and stage diagnostics.

    Raises:
        EstimationError: if any stage fails; ``partial`` carries whatever
            earlier stages produced.  Stage ``nonfinite`` means ``a`` holds
            an inf or NaN, as after noise that overflowed.
    """
    if not np.isfinite(a).all():
        raise EstimationError("nonfinite", "recovered channel is not finite")
    partial: dict = {}
    try:
        r_hat = estimate_distance(distance_transform(a), cfg)
        partial["r_hat"] = r_hat
        theta_hat, phi_hat, dex, dey, diag_dir = estimate_direction(
            direction_transform(a), cfg)
        partial.update({"theta_hat": theta_hat, "phi_hat": phi_hat})
        psi_hat, gamma_hat, diag_ori = estimate_orientation(
            orientation_transform(a), dex, dey, r_hat, cfg)
    except EstimationError as err:
        err.partial = {**partial, **err.partial}
        raise
    diagnostics = {**diag_dir, **diag_ori}
    return PoseEstimate(
        r_hat=r_hat, theta_hat=theta_hat, phi_hat=phi_hat,
        psi_hat=psi_hat, gamma_hat=gamma_hat, diagnostics=diagnostics,
    )


def estimate_pose(y: np.ndarray, cfg: SystemConfig) -> PoseEstimate:
    """Recover the channel from an observation and estimate the full pose.

    Chains closed-form channel recovery (``recover_channel``) with
    distance, direction, and orientation estimation.

    Args:
        y: stacked observation, shape (m_bs * p_profiles, l_pilot).
        cfg: system parameters.

    Raises:
        EstimationError: if any estimation stage fails.
        ValueError: on an observation of the wrong shape.
    """
    return estimate_pose_from_channel(recover_channel(y, cfg), cfg)
