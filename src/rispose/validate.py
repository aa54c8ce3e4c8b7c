"""Self-check suite: algebraic identities at small dimensions.

Each check is a pure function returning a CheckResult; ``run_validation``
executes the whole suite on a small config so the CLI can verify the build
in seconds.  The acceptance tests call the same checks at their own
dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import (ChannelMode, observe, pilot_matrix, recover_channel,
                      ris_bs_channel, ris_profiles, ris_ue_channel, sound_and_recover)
from .estimator import (_grid, direction_shifts, direction_transform,
                        distance_shift, distance_transform,
                        estimate_pose_from_channel, orientation_shifts,
                        orientation_transform, tls_phase_ratio)
from .geometry import Pose, SystemConfig
from .montecarlo import run_trial

# identity checks are exact algebra; estimator checks allow roundoff growth
TOL_IDENTITY = 1e-12
TOL_OPERATOR = 1e-10
TOL_ESTIMATE = 1e-6


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, err: float, tol: float) -> CheckResult:
    return CheckResult(name, err < tol, f"max deviation {err:.3e} (tolerance {tol:.0e})")


def validation_config() -> SystemConfig:
    """Small, fast dimensions exercising n_x != n_y."""
    return SystemConfig(m_bs=3, k_ue=7, n_x=5, n_y=7, p_profiles=35, l_pilot=10)


def validation_pose() -> Pose:
    return Pose(r=1.8, theta=math.radians(75.0), phi=math.radians(35.0),
                psi=math.radians(130.0), gamma=math.radians(40.0))


def check_distance_identity(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Adjacent columns of the distance transform differ by the model ratio."""
    b = distance_transform(ris_ue_channel(pose, cfg, ChannelMode.FRESNEL))
    pred = np.array([distance_shift(k, pose.r, cfg) for k in range(-cfg.k_half, cfg.k_half)])
    worst = float(np.abs(b[:, 1:] - b[:, :-1] * pred).max())
    return _result("distance shift identity", worst, TOL_IDENTITY)


def check_direction_identity(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Row pairs of the direction transform carry the x/y direction ratios."""
    c = _grid(direction_transform(ris_ue_channel(pose, cfg, ChannelMode.FRESNEL)), cfg)
    ex, ey = direction_shifts(pose, cfg)
    worst = max(float(np.abs(c[1:] - c[:-1] * ex).max()),
                float(np.abs(c[:, 1:] - c[:, :-1] * ey).max()))
    return _result("direction shift identity", worst, TOL_IDENTITY)


def check_orientation_identity(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Row pairs of the orientation transform carry the per-antenna ratios."""
    d = _grid(orientation_transform(ris_ue_channel(pose, cfg, ChannelMode.FRESNEL)), cfg)
    gx, gy = np.array([orientation_shifts(pose, k, cfg)
                       for k in cfg.antenna_offsets()]).T
    worst = max(float(np.abs(d[1:] - d[:-1] * gx).max()),
                float(np.abs(d[:, 1:] - d[:, :-1] * gy).max()))
    return _result("orientation shift identity", worst, TOL_IDENTITY)


def check_flip_symmetries(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Noiseless transforms are symmetric under their defining flips."""
    a = ris_ue_channel(pose, cfg, ChannelMode.FRESNEL)
    b = distance_transform(a)
    c = direction_transform(a)
    d = orientation_transform(a)
    worst = max(
        float(np.abs(b - b[:, ::-1]).max()),
        float(np.abs(c - np.conj(c[::-1, ::-1])).max()),
        float(np.abs(d - np.conj(d[::-1, :])).max()),
    )
    return _result("transform flip symmetries", worst, TOL_IDENTITY)


def check_profile_orthogonality(cfg: SystemConfig) -> CheckResult:
    """Profile matrix satisfies profiles^H profiles = P I when N divides P."""
    worst = 0.0
    for mult in (1, 2):
        p = mult * cfg.n_ris
        phi = ris_profiles(replace(cfg, p_profiles=p))
        gram = phi.conj().T @ phi
        worst = max(worst, float(np.abs(gram - p * np.eye(cfg.n_ris)).max()))
    return _result("profile orthogonality", worst, TOL_IDENTITY)


def check_pilot_orthogonality(cfg: SystemConfig) -> CheckResult:
    """Pilot block satisfies S S^H = (power / K) I."""
    s = pilot_matrix(cfg)
    gram = s @ s.conj().T
    target = cfg.power_w / cfg.k_ue * np.eye(cfg.k_ue)
    return _result("pilot orthogonality", float(np.abs(gram - target).max()),
                   TOL_IDENTITY)


def dense_measurement_matrix(cfg: SystemConfig) -> np.ndarray:
    """Stacked sounding matrix, shape (m_bs * p_profiles, n_ris).

    Block p (m_bs rows) is ``h @ diag(profiles[p])`` for the RIS-BS channel
    ``h``.  ``observe`` applies it without forming it; this explicit form is
    the reference for the closed-form sounding and recovery.
    """
    h_b, h_r = ris_bs_channel(cfg)
    h = np.outer(h_b, h_r.conj())
    return (ris_profiles(cfg)[:, None, :] * h[None, :, :]).reshape(-1, cfg.n_ris)


def dense_recovery(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Reference recovery ``pinv(hbar) @ y @ pinv(s)`` with SVD pseudoinverses."""
    return (np.linalg.pinv(dense_measurement_matrix(cfg)) @ y
            @ np.linalg.pinv(pilot_matrix(cfg)))


def check_pinv_paths(cfg: SystemConfig) -> CheckResult:
    """Closed-form recovery equals the dense SVD pseudoinverses.

    Checked on a random (noise-like) observation at P = N and at a profile
    count that is not a multiple of N.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    for p in (cfg.n_ris, 2 * cfg.n_ris - 1):
        c = replace(cfg, p_profiles=p)
        shape = (c.m_bs * p, c.l_pilot)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        diff = recover_channel(y, c) - dense_recovery(y, c)
        worst = max(worst, float(np.abs(diff).max()))
    return _result("closed-form vs dense pinv recovery", worst, TOL_OPERATOR)


def check_noiseless_recovery(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Noiseless observe equals the dense product and recovers the channel."""
    hbar = dense_measurement_matrix(cfg)
    s = pilot_matrix(cfg)
    rng = np.random.default_rng(0)
    worst = 0.0
    for mode in ChannelMode:
        a = ris_ue_channel(pose, cfg, mode)
        y = observe(a, cfg, math.inf, rng)
        worst = max(worst, float(np.abs(y - hbar @ a @ s).max()),
                    float(np.abs(recover_channel(y, cfg) - a).max()))
    return _result("noiseless channel recovery", worst, TOL_OPERATOR)


def check_trial_path_recovery(cfg: SystemConfig, pose: Pose, snr_db: float = 10.0,
                              seed: int = 0) -> CheckResult:
    """The trial path equals dense recovery of ``observe``, on the same stream.

    ``sound_and_recover`` and ``dense_recovery(observe(...))``, each from a
    generator seeded with ``seed``, must agree at the config's profile
    count, at P = N and at P = 2N - 1, and leave their generators in the
    same state (their next draws are equal).
    """
    worst = 0.0
    same_stream = True
    a = ris_ue_channel(pose, cfg, ChannelMode.FRESNEL)
    for p in sorted({cfg.p_profiles, cfg.n_ris, 2 * cfg.n_ris - 1}):
        c = replace(cfg, p_profiles=p)
        trial_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sound_and_recover(a, c, snr_db, trial_rng)
        want = dense_recovery(observe(a, c, snr_db, ref_rng), c)
        worst = max(worst, float(np.abs(got - want).max()))
        same_stream &= bool(trial_rng.standard_normal() == ref_rng.standard_normal())
    if not same_stream:
        return CheckResult("trial-path recovery", False,
                           "generators end in different states")
    return _result("trial-path recovery", worst, TOL_OPERATOR)


def check_tls_exactness() -> CheckResult:
    """TLS ratio is exact on a noiseless rank-one pair."""
    rng = np.random.default_rng(7)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    true = np.exp(1j * math.pi / 4)
    err = abs(tls_phase_ratio(u, u * true) - true)
    return _result("TLS rank-one exactness", float(err), TOL_IDENTITY)


def check_zero_noise_estimate(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Full noiseless Fresnel pipeline recovers the pose."""
    a = ris_ue_channel(pose, cfg, ChannelMode.FRESNEL)
    est = estimate_pose_from_channel(a, cfg)
    true = pose.as_tuple()
    got = est.as_tuple()
    err = max(abs(g - t) / (abs(t) if i == 0 else 1.0)
              for i, (g, t) in enumerate(zip(got, true)))
    return _result("zero-noise pose estimate", float(err), TOL_ESTIMATE)


def check_trial_determinism(cfg: SystemConfig, pose: Pose) -> CheckResult:
    """Same seed, same inputs, bit-identical trial outcome."""
    results = []
    for _ in range(2):
        rng = np.random.default_rng(12345)
        results.append(run_trial(cfg, pose, 10.0, ChannelMode.FRESNEL, rng))
    r0, r1 = results
    same = (r0.failed == r1.failed and r0.squared_relative_error
            == r1.squared_relative_error)
    return CheckResult("trial determinism", bool(same),
                       "bit-identical" if same else "results differ")


def run_validation() -> list[CheckResult]:
    """Run every check on the validation config."""
    cfg = validation_config()
    pose = validation_pose()
    return [
        check_distance_identity(cfg, pose),
        check_direction_identity(cfg, pose),
        check_orientation_identity(cfg, pose),
        check_flip_symmetries(cfg, pose),
        check_profile_orthogonality(cfg),
        check_pilot_orthogonality(cfg),
        check_pinv_paths(cfg),
        check_noiseless_recovery(cfg, pose),
        check_trial_path_recovery(cfg, pose),
        check_tls_exactness(),
        check_zero_noise_estimate(cfg, pose),
        check_trial_determinism(cfg, pose),
    ]
