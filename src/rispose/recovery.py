"""Least-squares recovery of the RIS-UE channel from sounding observations.

``recover_channel`` inverts a given observation.  ``sound_and_recover`` is
the Monte Carlo trial path: it returns what ``recover_channel(observe(...))``
would, from the same noise draw, without forming the observation.
"""

from __future__ import annotations

import numpy as np

from .channel import _noise_std, _pilot_scale, _profile_residues, ris_bs_channel
from .geometry import SystemConfig


def _project(blocks: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``sum_m coef[m] * blocks[:, m, :]`` of (P, M, L) blocks, shape (P, L).

    Accumulated one m at a time, so no (P, M, L) temporary is formed and no
    BLAS routine runs.
    """
    w = coef[0] * blocks[:, 0, :]
    for m in range(1, blocks.shape[1]):
        w += coef[m] * blocks[:, m, :]
    return w


def _invert(w: np.ndarray, cfg: SystemConfig, h_r: np.ndarray) -> np.ndarray:
    """Channel from the per-profile projections ``w_p = h_b^H y_p``, shape (P, L).

    Sums the w_p that share a residue ``p mod n_ris`` and averages them,
    inverts the pilots as an inverse FFT over the pilot axis whose first
    k_ue columns are kept, then the profiles as an inverse FFT over the
    element axis times ``h_r``, and scales by ``1/M`` and the pilot gain.
    """
    n = cfg.n_ris
    _, counts = _profile_residues(cfg)
    # profile p is DFT row p mod n: sum the chunks of n consecutive profiles
    folded = w[:n].copy()
    for start in range(n, cfg.p_profiles, n):
        chunk = w[start:start + n]
        folded[:len(chunk)] += chunk
    folded /= counts[:, None]
    # s^H K / power is the first k_ue columns of an ifft over the pilot axis,
    # times L * scale * K / power; the element-axis ifft then has k_ue columns
    x = np.fft.ifft(folded, axis=1)[:, :cfg.k_ue]
    x = h_r[:, None] * np.fft.ifft(x, axis=0)
    x *= _pilot_scale(cfg) * cfg.l_pilot * cfg.k_ue / (cfg.power_w * cfg.m_bs)
    return x


def recover_channel(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
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

    Noiseless observations recover the (n_ris, k_ue) channel to machine
    precision; with noise the estimate is the channel plus colored noise.

    Raises:
        ValueError: if ``y`` is not (m_bs * p_profiles, l_pilot).
    """
    shape = (cfg.m_bs * cfg.p_profiles, cfg.l_pilot)
    if y.shape != shape:
        raise ValueError(f"expected observation shape {shape}, got {y.shape}")
    h_b, h_r = ris_bs_channel(cfg)
    blocks = y.reshape(cfg.p_profiles, cfg.m_bs, cfg.l_pilot)
    return _invert(_project(blocks, h_b.conj()), cfg, h_r)


def sound_and_recover(a: np.ndarray, cfg: SystemConfig, snr_db: float,
                      rng: np.random.Generator) -> np.ndarray:
    """``recover_channel(observe(a, cfg, snr_db, rng), cfg)``, unformed.

    Recovery is an exact left inverse of the sounding, so that round trip
    is ``a`` plus the recovered noise, and only the noise is computed:
    ``observe``'s own draw (every real part, then every imaginary part)
    goes plane by plane into one reused (P, M, L) buffer, and each plane is
    projected on ``h_b`` before the next is drawn.  The generator ends in
    the state ``observe`` leaves it in.  ``snr_db = inf`` returns ``a``
    itself and leaves the generator untouched.  A finite SNR so low that
    the noise overflows yields a nonfinite channel, as ``observe`` does.

    Raises:
        ValueError: if ``snr_db`` is NaN or -inf.
    """
    h_b, h_r = ris_bs_channel(cfg)
    std = _noise_std(np.fft.fft(h_r.conj()[:, None] * a, axis=0), cfg, snr_db)
    if not std > 0:
        return a
    coef = h_b.conj()
    plane = np.empty((cfg.p_profiles, cfg.m_bs, cfg.l_pilot))
    rng.standard_normal(out=plane)
    w = _project(plane, coef)
    rng.standard_normal(out=plane)
    w += _project(plane, 1j * coef)
    return a + std * _invert(w, cfg, h_r)
