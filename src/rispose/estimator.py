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
for all columns at once.  Each stage's phases are linear in one unknown
per axis, which one least-squares slope fit (``_slope``) estimates and
converts back to a parameter.  All of it is exact for the Fresnel channel
model and approximate for true Euclidean distances.

Every stage takes a (T, n_ris, k_ue) stack of T trials only and runs the
same arithmetic on all of them at once.  A stage marks a failed trial with
NaN, and ``estimate_pose_from_channel`` gives it a stage name.  Only
``estimate_pose``, the one single-channel entry point, raises, from its
stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import recover_channel
from .geometry import Pose, SystemConfig

_TLS_TOL = 1e-12

# A phase this close to 0 is rounding residue, not a measurement: c eps pi with
# c = 64.  The pose box's smallest phases are many orders of magnitude above it.
_ZERO_PHASE = 64 * np.finfo(float).eps * math.pi

# The stages in pipeline order, each with its EstimationError message; a failed
# trial's stage is the first whose column is NaN
_FAILURES = {
    "nonfinite": "recovered channel is not finite",
    "distance": "every column-pair phase was zero, unidentifiable or of the "
                "sign of a negative distance (infinite-distance indication)",
    "direction": "shift ratios unidentifiable in every column, or both "
                 "direction phases vanish",
    "orientation": "orientation phases unidentifiable for every antenna or "
                   "all zero, or the distance was not finite and positive",
}
_STAGES = np.array(list(_FAILURES), dtype=object)


class EstimationError(Exception):
    """Estimation failed at a named stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class PoseEstimate:
    """Estimated pose of one channel."""

    r_hat: float
    theta_hat: float
    phi_hat: float
    psi_hat: float
    gamma_hat: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r_hat, self.theta_hat, self.phi_hat,
                self.psi_hat, self.gamma_hat)


def distance_transform(a: np.ndarray) -> np.ndarray:
    """a * a with columns flipped; rows gain a column-pair distance ratio."""
    return a * a[..., ::-1]


def direction_transform(a: np.ndarray) -> np.ndarray:
    """a * conj(a) with rows and columns flipped; isolates the position angles."""
    return a * np.conj(a[..., ::-1, ::-1])


def orientation_transform(a: np.ndarray) -> np.ndarray:
    """a * conj(a) with rows flipped; keeps position plus orientation terms."""
    return a * np.conj(a[..., ::-1, :])


def _grid(x: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """View an (n_ris, k_ue) matrix as the (n_x, n_y, k_ue) element grid.

    Rows are x-major with y varying fastest (``ris_ue_channel``), so the
    x-neighbour rows are ``g[:-1]``/``g[1:]``, the y-neighbour rows
    ``g[:, :-1]``/``g[:, 1:]``, and ``g[::-1, ::-1]`` mirrors the array
    through its center.  Leading axes are kept.
    """
    return x.reshape(*x.shape[:-2], cfg.n_x, cfg.n_y, -1)


def _trials(x: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """``x`` if it is a (T, n_ris, k_ue) stack; ValueError otherwise."""
    if x.ndim != 3 or x.shape[1:] != (cfg.n_ris, cfg.k_ue):
        raise ValueError(f"expected a (T, {cfg.n_ris}, {cfg.k_ue}) stack, got {x.shape}")
    return x


def _slope(y: np.ndarray, x, mask: np.ndarray) -> np.ndarray:
    """Least-squares slope of ``y ~ x * slope`` over ``mask`` along the last axis.

    ``sum(x y) / sum(x^2)`` over the masked entries (Kay, *Fundamentals of
    Statistical Signal Processing I*, ch. 4); with ``x = 1`` it is the mean.
    NaN, in the dtype of ``x * y``, where ``mask`` is empty.
    """
    num = np.where(mask, x * y, 0).sum(axis=-1)
    den = np.where(mask, x * x, 0).sum(axis=-1)
    return np.divide(num, den, out=np.full(num.shape, np.nan, num.dtype), where=den > 0)


def _shift_ratios(x: np.ndarray, cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-column TLS ratios between rows one element apart along x and y.

    ``x`` is a (T, n_ris, k_ue) stack; the ratios are (T, k_ue).
    """
    t, nx, ny, k = len(x), cfg.n_x, cfg.n_y, cfg.k_ue
    g = x.reshape(t, nx, ny, k)  # ``_grid`` with every size given, as T may be 0
    gx = tls_phase_ratio(*(s.reshape(t, (nx - 1) * ny, k) for s in (g[:, :-1], g[:, 1:])))
    gy = tls_phase_ratio(*(s.reshape(t, nx * (ny - 1), k)
                           for s in (g[:, :, :-1], g[:, :, 1:])))
    return gx, gy


def tls_phase_ratio(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Total-least-squares estimate of the scalar ratio in ``v ~ u * delta``.

    ``u`` and ``v`` are (T, n, cols) stacks of T trials, fitted column by
    column.  With ``a = |u|^2``, ``c = |v|^2`` and ``b = u^H v``, the null
    direction of the Gram matrix ``[[a, b], [b*, c]]`` of ``[u v]`` gives
    ``delta = b / (a - lmin)`` (Golub & Van Loan, *Matrix Computations*,
    section 6.3): the SVD fit in closed form.  Exact for a noiseless
    rank-one stack, symmetric in the noise on u and v otherwise.

    Returns:
        A (T, cols) array; NaN where the fit cannot identify a finite ratio.

    Raises:
        ValueError: on inputs that are not equal-shape 3-D stacks, or an
            all-zero input column.
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.ndim != 3 or u.shape != v.shape:
        raise ValueError(f"need equal-shape (T, n, cols) stacks, got {u.shape} "
                         f"and {v.shape}")
    a = (u.conj() * u).real.sum(axis=-2)
    c = (v.conj() * v).real.sum(axis=-2)
    if not (np.all(a > 0) and np.all(c > 0)):
        raise ValueError("inputs must have nonzero norm")
    b = (u.conj() * v).sum(axis=-2)
    abs_b = np.abs(b)
    half = (a - c) / 2
    # a - lmin = half + root; for a < c the same value is |b|^2 / (root - half),
    # which avoids the cancellation
    s = np.hypot(half, abs_b) + np.abs(half)
    den = np.divide(abs_b ** 2, s, out=s.copy(), where=half < 0)
    # den / hypot(den, |b|) is the null vector's component along v
    degenerate = den <= _TLS_TOL * np.hypot(den, abs_b)
    return np.divide(b, den, out=np.full(b.shape, complex(np.nan, np.nan)),
                     where=~degenerate)


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


def estimate_distance(b: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Distances from a (T, n_ris, k_ue) stack ``b`` of distance transforms.

    Each adjacent column pair (k, k+1) yields a phase whose model value is
    ``coeff_k / r`` with ``coeff_k = -2 pi (2k+1) d_u^2 / wavelength``.  Only
    pairs whose phase is nonzero and has the sign of a positive distance
    enter a fit.  The two center pairs, where the phase magnitude is
    smallest and cannot wrap inside the near field, give a coarse 1/r; the
    phases are unwrapped to the branch nearest their model prediction from
    it.  1/r is then the least-squares slope of the phases on ``coeff_k``.

    Returns:
        A (T,) array, NaN where a trial fails.
    """
    stack = _trials(b, cfg)
    kh = cfg.k_half
    k_vals = np.arange(-kh, kh)  # pair (k, k+1) per entry
    coeff = -2.0 * math.pi * (2 * k_vals + 1) * cfg.d_u ** 2 / cfg.wavelength
    # coeff * phase above this: a nonzero phase of a positive distance's sign
    bound = _ZERO_PHASE * np.abs(coeff)

    # NaN for an unidentifiable pair; it compares False and is excluded
    phases = np.angle(tls_phase_ratio(stack[..., :-1], stack[..., 1:]))

    # coarse 1/r from the |2k+1| = 1 pairs (k = -1 and k = 0)
    center = np.abs(2 * k_vals + 1) == 1
    coarse = _slope(phases, coeff, center & (coeff * phases > bound))
    has = np.isfinite(coarse)
    phases[has] = _nearest_branch(phases[has], coeff * coarse[has, None])
    return 1 / _slope(phases, coeff, coeff * phases > bound)


def estimate_direction(c: np.ndarray, cfg: SystemConfig) -> tuple:
    """Position azimuth/elevation from a stack ``c`` of direction transforms.

    Per column, a TLS fit over x-axis (y-axis) row pairs estimates the two
    element-shift ratios; the complex ratios are averaged over the columns
    where both fits identify a ratio (the rest are skipped), then
    the azimuth comes from the two-argument arctangent of the scaled phases
    and the elevation from an arccosine (argument clipped into [0, 1]).

    Returns:
        (theta_hat, phi_hat, delta_ex, delta_ey): (T,) arrays, NaN where a
        trial fails.
    """
    stack = _trials(c, cfg)
    ratios_x, ratios_y = _shift_ratios(stack, cfg)
    fit = np.isfinite(ratios_x) & np.isfinite(ratios_y)
    # a column enters both means or neither
    delta_ex = _slope(ratios_x, 1.0, fit)
    delta_ey = _slope(ratios_y, 1.0, fit)
    phase_x, phase_y = np.angle(delta_ex), np.angle(delta_ey)
    ax, ay = phase_x / cfg.d_x, phase_y / cfg.d_y
    # elevation 90 degrees leaves the azimuth undefined
    vanish = (np.abs(phase_x) <= _ZERO_PHASE) & (np.abs(phase_y) <= _ZERO_PHASE)
    theta_hat = np.arctan2(ay, ax)
    cos_arg = cfg.wavelength / (4 * math.pi) * np.hypot(ax, ay)
    phi_hat = np.arccos(np.clip(cos_arg, 0.0, 1.0))
    for x in (theta_hat, phi_hat, delta_ex, delta_ey):
        x[vanish] = np.nan
    return theta_hat, phi_hat, delta_ex, delta_ey


def estimate_orientation(
    d: np.ndarray, delta_ex, delta_ey, r_hat, cfg: SystemConfig
) -> tuple:
    """Orientation azimuth/elevation from a stack ``d`` of orientation transforms.

    For each off-center antenna k, the x/y shift ratios are divided by the
    direction ratios to leave pure orientation phases ``k * (A_x, A_y)``.
    The |k| = 1 antennas, whose phases cannot wrap inside the near field,
    give a coarse slope; every phase is unwrapped to the branch nearest k
    times it (left as is if neither |k| = 1 antenna was fitted).  (A_x, A_y)
    are then the least-squares slopes of the phases on k over the fitted
    antennas.  With ``alpha = (A_x / d_x, A_y / d_y)``, the azimuth is
    ``atan2(alpha_y, alpha_x)`` and the elevation
    ``arccos(wavelength r |alpha| / (4 pi d_u))`` (argument clipped into
    [0, 1]).  The direction ratios and distances are (T,) arrays.

    Returns:
        (psi_hat, gamma_hat): (T,) arrays, NaN where a trial fails: where
        its distance is not finite and positive, no antenna is fitted (as
        where a direction ratio is NaN), or both slopes are zero (the
        azimuth is undefined).
    """
    stack = _trials(d, cfg)
    r = np.where(np.isfinite(r_hat) & (r_hat > 0), r_hat, np.nan)
    # the center antenna carries no orientation phase
    k = cfg.antenna_offsets()
    off_center = k != 0
    kc = k[off_center]
    gx, gy = (ratio[:, off_center] for ratio in _shift_ratios(stack, cfg))
    ratios = np.stack([delta_ex, delta_ey])[:, :, None]  # (2, T, 1)
    # a trial without direction ratios fits no antenna; dividing by a stand-in
    # 1 rather than NaN keeps the division free of invalid-value warnings
    known = np.isfinite(ratios).all(axis=0)
    used = np.isfinite(gx) & np.isfinite(gy) & known
    phases = np.angle(np.stack([gx, gy]) / np.where(known, ratios, 1))  # (2, T, K - 1)
    coarse = _slope(phases, kc, used & (np.abs(kc) == 1))  # (2, T)
    has = np.isfinite(coarse[0])
    phases[:, has] = _nearest_branch(phases[:, has], coarse[:, has, None] * kc)
    slope_x, slope_y = _slope(phases, kc, used)
    # both slopes zero leave the azimuth undefined (with no antenna fitted
    # they are NaN, and so are both estimates)
    vanish = (np.abs(slope_x) <= _ZERO_PHASE) & (np.abs(slope_y) <= _ZERO_PHASE)
    alpha_x, alpha_y = slope_x / cfg.d_x, slope_y / cfg.d_y
    # wrap into [-pi/2, 3pi/2), the 2 pi window centred on (0, pi)
    psi_hat = (np.arctan2(alpha_y, alpha_x) + math.pi / 2) % (2 * math.pi) - math.pi / 2
    cos_arg = cfg.wavelength * r / (4 * math.pi * cfg.d_u) * np.hypot(alpha_x, alpha_y)
    gamma_hat = np.arccos(np.clip(cos_arg, 0.0, 1.0))
    failed = np.isnan(r) | vanish
    psi_hat[failed] = np.nan
    gamma_hat[failed] = np.nan
    return psi_hat, gamma_hat


def estimate_pose_from_channel(a: np.ndarray,
                               cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run the three-stage estimator on a stack of recovered channels.

    Every stage runs once on every trial whose channel is finite; a stage
    marks a failed trial with NaN, which the later stages carry through
    without touching the other trials.  A trial's stage is the first key
    of ``_FAILURES`` whose column is NaN.

    Args:
        a: (T, n_ris, k_ue) stack of recovered channels.
        cfg: system parameters.

    Returns:
        ``(estimates, stage)``: a (T, 5) array of (r, theta, phi, psi,
        gamma) rows holding the values of the stages each trial passed, NaN
        after them; and a (T,) object array holding each failed trial's
        stage name, else None.  Stage ``nonfinite`` means the trial's
        channel holds an inf or NaN, as after noise that overflowed.

    Raises:
        ValueError: if ``a`` is not such a stack.
    """
    a = _trials(a, cfg)
    finite = np.isfinite(a).all(axis=(1, 2))
    ok = a if finite.all() else a[finite]
    r = estimate_distance(distance_transform(ok), cfg)
    theta, phi, dex, dey = estimate_direction(direction_transform(ok), cfg)
    psi, gamma = estimate_orientation(orientation_transform(ok), dex, dey, r, cfg)
    estimates = np.full((len(a), 5), np.nan)
    estimates[finite] = np.stack([r, theta, phi, psi, gamma], axis=1)
    estimates[np.isnan(estimates[:, 0]), 1:] = np.nan
    # one column per key of _FAILURES: nonfinite, distance, direction, orientation
    failed = np.column_stack([~finite, np.isnan(estimates[:, [0, 1, 3]])])
    stage = np.where(failed.any(axis=1), _STAGES[failed.argmax(axis=1)], None)
    return estimates, stage


def estimate_pose(y: np.ndarray, cfg: SystemConfig) -> PoseEstimate:
    """Recover the channel from an observation and estimate the full pose.

    The single-channel entry point: closed-form channel recovery
    (``recover_channel``), then ``estimate_pose_from_channel`` on a stack
    of one.

    Args:
        y: stacked observation, shape (m_bs * p_profiles, l_pilot).
        cfg: system parameters.

    Raises:
        EstimationError: if any estimation stage fails.
        ValueError: on an observation of the wrong shape.
    """
    estimates, stage = estimate_pose_from_channel(recover_channel(y, cfg)[None], cfg)
    if stage[0] is not None:
        raise EstimationError(stage[0], _FAILURES[stage[0]])
    return PoseEstimate(*estimates[0].tolist())
