"""Least-squares recovery of the RIS-UE channel from sounding observations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import _pilot_scale, _profile_residues, ris_bs_channel
from .geometry import SystemConfig


@dataclass(frozen=True)
class RecoveredChannel:
    """Channel estimate plus bookkeeping from the recovery step.

    Attributes:
        matrix: recovered (n_ris, k_ue) channel, equal to the true channel
            plus transformed noise.
        residual_noise_scale: per-entry std of the post-recovery noise as a
            multiple of the observation noise std (Frobenius-average gain of
            the two-sided pseudoinverse).
    """

    matrix: np.ndarray
    residual_noise_scale: float


def recover_channel(y: np.ndarray, cfg: SystemConfig) -> RecoveredChannel:
    """Least-squares inverse of the sounding in ``observe``, for any P >= N.

    The RIS-BS link is ``np.outer(h_b, h_r.conj())`` with unit-modulus
    factors and profile p is DFT row ``p mod n_ris``, so the Gram matrix of
    the stacked measurement matrix is ``M diag(h_r) C diag(h_r)^H`` with C
    circulant, which the DFT diagonalises.  The exact left pseudoinverse is
    therefore: project each block onto ``h_b`` (``w_p = h_b^H y_p / M``),
    average the w_p that share a residue ``p mod n_ris``, inverse-FFT over
    the element axis and multiply by ``h_r``.  The orthogonal pilots invert
    as ``s^H K / power``; ``s`` is the first K rows of the L-point DFT, so
    that is an inverse FFT over the pilot axis, of which the first K
    columns are kept.  No BLAS routine runs.

    Noiseless observations recover the channel to machine precision; with
    noise the estimate is channel plus colored noise whose average gain is
    reported in ``residual_noise_scale``.

    Raises:
        ValueError: if ``y`` is not (m_bs * p_profiles, l_pilot).
    """
    shape = (cfg.m_bs * cfg.p_profiles, cfg.l_pilot)
    if y.shape != shape:
        raise ValueError(f"expected observation shape {shape}, got {y.shape}")
    h_b, h_r = ris_bs_channel(cfg)
    blocks = y.reshape(cfg.p_profiles, cfg.m_bs, cfg.l_pilot)
    w = (h_b.conj()[None, :, None] * blocks).sum(axis=1) / cfg.m_bs
    residue, counts = _profile_residues(cfg)
    folded = np.zeros((cfg.n_ris, cfg.l_pilot), dtype=complex)
    np.add.at(folded, residue, w)
    pilot_gain = cfg.k_ue / cfg.power_w
    # s^H K / power is the first k_ue columns of an ifft over the pilot axis,
    # times L * scale * K / power; the element-axis ifft then has k_ue columns
    x = np.fft.ifft(folded / counts[:, None], axis=1)[:, :cfg.k_ue]
    x = h_r[:, None] * np.fft.ifft(x, axis=0)
    matrix = (_pilot_scale(cfg) * cfg.l_pilot * pilot_gain) * x
    gain = math.sqrt(pilot_gain / (cfg.m_bs * cfg.n_ris ** 2) * np.sum(1.0 / counts))
    return RecoveredChannel(matrix=matrix, residual_noise_scale=gain)
