"""Synthetic channels, the sounding of the RIS-UE link, its noise and inverse.

The RIS-UE channel collects per-element, per-antenna phase shifts relative
to the reference path (RIS center to UE center).  Entries have unit modulus;
path loss is left out since the estimators only use phase structure.

The BS sounds it through the rank-one RIS-BS link, P RIS phase profiles and
K pilots of L symbols.  Profile p is row p mod N of the N-point DFT matrix
and the pilots are the first K rows of the L-point DFT matrix, so ``observe``
is ``h_b`` times a 2-D FFT of the channel, and ``recover_channel`` its exact
inverse: a projection on ``h_b``, then two inverse FFTs.  ``sound_and_recover``,
the Monte Carlo trial path, is that round trip on a stack of T trials without
forming the observation.
No BLAS routine runs; ``validate`` checks all three against the dense forms.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .geometry import SystemConfig, unit_direction


class ChannelMode(enum.Enum):
    """Distance model for the RIS-UE link."""

    EXACT = "exact"
    FRESNEL = "fresnel"


def ris_ue_channel(pose: np.ndarray, cfg: SystemConfig, mode: ChannelMode) -> np.ndarray:
    """Near-field RIS-UE channel matrix, shape (n_ris, k_ue), complex.

    Entry (i, k) is ``exp(-j 2 pi (r_ik - r) / wavelength)`` where ``r_ik``
    is the distance from RIS element i at ``s`` to UE antenna k at
    ``r e + u g`` (``u = k d_u``) and ``r`` the reference distance.  EXACT
    mode, the default of ``run_sweep`` and the CLI, keeps true distances.
    FRESNEL mode drops the ``-(u e.g - e.s)^2 / (2 r)`` term from the
    expansion of ``r_ik - r`` to first order in 1/r; the estimators invert
    it exactly, and are biased on EXACT channels unless ``e.g`` is near 0.

    Args:
        pose: a pose array, (r, theta, phi, psi, gamma) on its last axis
            (``Pose.as_tuple()`` for a ``Pose``).  Any value is modelled,
            the box edges included (an estimate can sit on them).
        cfg: system parameters.
        mode: distance model.

    Returns:
        Complex matrix with rows in linear element order (x-major, y varying
        fastest) and columns in antenna order -k_half ... k_half, behind the
        pose array's leading axes: (n_ris, k_ue) for a (5,) pose, a
        (T, n_ris, k_ue) stack for (T, 5) poses.
    """
    pose = np.asarray(pose, dtype=float)
    # element coordinates on the two grid axes, antenna offsets on the last;
    # pose quantities broadcast over them, shape (..., 1, 1, 1)
    sx = (np.arange(cfg.n_x) - cfg.n_x // 2)[:, None, None] * cfg.d_x
    sy = (np.arange(cfg.n_y) - cfg.n_y // 2)[None, :, None] * cfg.d_y
    ku = cfg.antenna_offsets() * cfg.d_u
    r, theta, phi, psi, gamma = np.moveaxis(pose, -1, 0)[..., None, None, None]
    e, g = unit_direction(theta, phi), unit_direction(psi, gamma)

    if mode is ChannelMode.EXACT:
        # antenna positions r e + u g, one coordinate array per axis
        qx, qy, qz = r * e + g * ku
        excess = np.sqrt((qx - sx) ** 2 + (qy - sy) ** 2 + qz ** 2) - r
    elif mode is ChannelMode.FRESNEL:
        s_sq = sx * sx + sy * sy
        e_dot_s = e[0] * sx + e[1] * sy
        g_dot_s = g[0] * sx + g[1] * sy
        e_dot_g = e[0] * g[0] + e[1] * g[1] + e[2] * g[2]
        excess = (
            (ku ** 2 + s_sq) / (2 * r)
            + ku * (e_dot_g - g_dot_s / r)
            - e_dot_s
        )
    else:
        raise ValueError(f"unknown channel mode {mode!r}")
    excess = excess.reshape(*pose.shape[:-1], cfg.n_ris, -1)
    return np.exp(-2j * np.pi * excess / cfg.wavelength)


def _steering(count: int, zeta: float, wavelength: float) -> np.ndarray:
    """Centered ULA steering vector for spatial frequency ``zeta``."""
    half = (count - 1) / 2
    t = half - np.arange(count)
    return np.exp(2j * np.pi * t * zeta / wavelength)


def ris_bs_channel(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Factors ``(h_b, h_r)`` of the static far-field RIS-BS channel.

    The channel is the rank-one ``np.outer(h_b, h_r.conj())``, shape
    (m_bs, n_ris): the BS steering vector times the conjugated RIS steering
    vector (x-axis response Kronecker y-axis response, matching the linear
    element order).  Both factors have unit-modulus entries.
    """
    h_b = _steering(cfg.m_bs, cfg.d_b * math.sin(cfg.theta_bs), cfg.wavelength)
    h_rx = _steering(cfg.n_x, cfg.d_x * math.cos(cfg.theta_ris) * math.cos(cfg.phi_ris),
                     cfg.wavelength)
    h_ry = _steering(cfg.n_y, cfg.d_y * math.sin(cfg.theta_ris) * math.cos(cfg.phi_ris),
                     cfg.wavelength)
    return h_b, np.kron(h_rx, h_ry)


def ris_profiles(cfg: SystemConfig) -> np.ndarray:
    """RIS phase profiles, one per row, shape (p_profiles, n_ris).

    DFT rows ``exp(-j 2 pi p i / n_ris)``, the explicit form of the profiles
    ``observe`` applies through FFTs.  When p_profiles is a multiple of
    n_ris, ``profiles^H profiles = p_profiles * I``.
    """
    p = np.arange(cfg.p_profiles)[:, None]
    i = np.arange(cfg.n_ris)[None, :]
    # reduce p*i mod n_ris in exact integer arithmetic: keeps every phase
    # argument below 2 pi, so Gram cancellation stays at eps scale even for
    # p_profiles >> n_ris
    return np.exp(-2j * np.pi * ((p * i) % cfg.n_ris) / cfg.n_ris)


def _pilot_scale(cfg: SystemConfig) -> float:
    """Entry magnitude of the pilot block: power split over antennas and symbols."""
    return math.sqrt(cfg.power_w / (cfg.k_ue * cfg.l_pilot))


def _profile_residues(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """DFT row ``p mod n_ris`` of each profile, and how many profiles share each row."""
    residue = np.arange(cfg.p_profiles) % cfg.n_ris
    return residue, np.bincount(residue, minlength=cfg.n_ris)


@functools.lru_cache(maxsize=16)
def _link(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(h_b, h_r, counts)`` of ``ris_bs_channel`` and ``_profile_residues``.

    Pose-independent, so built once per config and shared read-only by
    every trial of a sweep's grid point.
    """
    h_b, h_r = ris_bs_channel(cfg)
    _, counts = _profile_residues(cfg)
    for x in (h_b, h_r, counts):
        x.flags.writeable = False
    return h_b, h_r, counts


def pilot_matrix(cfg: SystemConfig) -> np.ndarray:
    """Orthogonal pilot block, shape (k_ue, l_pilot).

    First k_ue rows of the l_pilot-point DFT matrix, scaled so that
    ``S S^H = (power_w / k_ue) * I`` (total transmit power split across
    antennas and pilot symbols).  ``a @ S`` is therefore the zero-padded
    FFT ``np.fft.fft(a, n=l_pilot, axis=1)`` times that scale, which is how
    ``observe`` applies it; this matrix is the explicit form the tests and
    the validation suite check against.
    """
    a = np.arange(cfg.k_ue)[:, None]
    b = np.arange(cfg.l_pilot)[None, :]
    return _pilot_scale(cfg) * np.exp(-2j * np.pi * a * b / cfg.l_pilot)


def check_snr(snr_db, what: str = "snr_db") -> float:
    """``snr_db`` as a float; ValueError naming ``what`` if NaN or -inf (+inf is noiseless)."""
    snr_db = float(snr_db)
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"{what} must be a number above -inf, got {snr_db!r}")
    return snr_db


def _noise_std(u: np.ndarray, cfg: SystemConfig, snr_db: float) -> np.ndarray:
    """Per-part noise std of the observation at the receive SNR ``snr_db``.

    ``u`` is the element-axis spectrum ``fft(conj(h_r) * a, axis=-2)`` of the
    (n_ris, k_ue) channel ``a``, or of each channel in a (T, n_ris, k_ue)
    stack.  Observation block p is ``h_b`` times the pilot-axis FFT of
    ``u[p mod n_ris]``, scaled by ``_pilot_scale``; with ``|h_b| = 1`` and
    Parseval (``|fft(x, n=L)|^2 = L |x|^2``) the mean signal power per
    entry is ``scale^2 * sum_r c_r |u_r|^2 / P``, where ``c_r`` counts the
    profiles with residue r.  The noise variance per entry is that power
    over ``10^(snr_db / 10)``, split evenly over the real and imaginary
    parts.  ``snr_db = inf`` gives 0; below about -6165 dB the gain is inf
    rather than an OverflowError.

    Returns:
        The std, one per channel: shape () or (T,).

    Raises:
        ValueError: if ``snr_db`` is NaN or -inf.
    """
    check_snr(snr_db)
    _, _, counts = _link(cfg)
    energy = (counts * (u.real ** 2 + u.imag ** 2).sum(axis=-1)).sum(axis=-1)
    with np.errstate(over="ignore"):
        gain = float(np.power(10.0, -snr_db / 20.0))
    std = _pilot_scale(cfg) * np.sqrt(energy / (2 * cfg.p_profiles))
    # an overflowing product is inf, which yields a nonfinite channel; no
    # signal times an infinite gain is NaN, which draws no noise
    with np.errstate(over="ignore", invalid="ignore"):
        return std * gain


def observe(a: np.ndarray, cfg: SystemConfig, snr_db: float,
            rng: np.random.Generator) -> np.ndarray:
    """Stacked noisy sounding observation, shape (m_bs * p_profiles, l_pilot).

    Block p (m_bs rows) is ``h @ diag(profiles[p]) @ a @ s`` for the RIS-BS
    channel ``h``, ``profiles = ris_profiles(cfg)`` and ``s = pilot_matrix(cfg)``:
    ``h_b`` times row ``p mod n_ris`` of a 2-D FFT of ``conj(h_r) * a``.

    Circular complex Gaussian noise is added at the receive SNR ``snr_db``:
    mean signal power per entry over the per-entry noise variance
    (``_noise_std``).  The noise is two ``standard_normal(y.shape)`` draws:
    every real part, then every imaginary part.  ``snr_db = inf`` is noiseless
    and leaves the generator untouched.  A finite SNR so low that the noise
    overflows yields a nonfinite observation, which estimation reports as
    a failure.

    Raises:
        ValueError: if ``snr_db`` is NaN or -inf.
    """
    h_b, h_r, _ = _link(cfg)
    # row r is conj(h_r) * profile row r applied to the channel, times the
    # pilots; the element-axis FFT goes first, while there are only k_ue columns
    u = np.fft.fft(h_r.conj()[:, None] * a, axis=0)
    std = float(_noise_std(u, cfg, snr_db))
    t = np.fft.fft(u, n=cfg.l_pilot, axis=1)
    t *= _pilot_scale(cfg)
    residue, _ = _profile_residues(cfg)
    y = (h_b[None, :, None] * t[residue][:, None, :]).reshape(-1, cfg.l_pilot)
    if std > 0:
        y.real += std * rng.standard_normal(y.shape)
        y.imag += std * rng.standard_normal(y.shape)
    return y


def _project(blocks: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``sum_m coef[m] * blocks[:, m, :]`` of (P, M, L) blocks, shape (P, L).

    Accumulated one m at a time, so no (P, M, L) temporary is formed and no
    BLAS routine runs.
    """
    w = coef[0] * blocks[:, 0, :]
    for m in range(1, blocks.shape[1]):
        w += coef[m] * blocks[:, m, :]
    return w


def _pilot_inverse(w: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Pilot inverse of the per-profile projections ``w_p = h_b^H y_p``, (P, L).

    Sums the w_p that share a residue ``p mod n_ris`` and averages them,
    then inverts the pilots as an inverse FFT over the pilot axis whose
    first k_ue columns are kept: shape (n_ris, k_ue).  Overwrites ``w``.
    """
    n = cfg.n_ris
    _, _, counts = _link(cfg)
    # profile p is DFT row p mod n: sum the chunks of n consecutive profiles
    # into the first chunk, in place
    folded = w[:n]
    for start in range(n, cfg.p_profiles, n):
        chunk = w[start:start + n]
        folded[:len(chunk)] += chunk
    folded /= counts[:, None]
    # s^H K / power is the first k_ue columns of an ifft over the pilot axis,
    # times L * scale * K / power
    return np.fft.ifft(folded, axis=1)[:, :cfg.k_ue]


def _profile_inverse(x: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Channel from ``_pilot_inverse`` output, (n_ris, k_ue) or a (T, n_ris, k_ue) stack.

    Inverts the profiles as an inverse FFT over the element axis times
    ``h_r``, and scales by ``1/M`` and the pilot gain.
    """
    _, h_r, _ = _link(cfg)
    x = h_r[:, None] * np.fft.ifft(x, axis=-2)
    x *= _pilot_scale(cfg) * cfg.l_pilot * cfg.k_ue / (cfg.power_w * cfg.m_bs)
    return x


def recover_channel(y: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Least-squares inverse of the sounding in ``observe``, for any P >= N.

    The RIS-BS link ``np.outer(h_b, h_r.conj())`` has unit-modulus factors
    and the profiles are DFT rows, so the Gram matrix of the stacked
    measurement matrix is ``M diag(h_r) C diag(h_r)^H`` with C circulant,
    which the DFT diagonalises.  The exact left pseudoinverse is therefore:
    project each block onto ``h_b`` (``w_p = h_b^H y_p / M``), average the
    w_p that share a residue ``p mod n_ris``, inverse-FFT over the element
    axis and multiply by ``h_r``.  The DFT pilots invert as ``s^H K / power``:
    an inverse FFT over the pilot axis, of which the first K columns are kept.

    Noiseless observations recover the (n_ris, k_ue) channel to machine
    precision; with noise the estimate is the channel plus colored noise.

    Raises:
        ValueError: if ``y`` is not (m_bs * p_profiles, l_pilot).
    """
    shape = (cfg.m_bs * cfg.p_profiles, cfg.l_pilot)
    if y.shape != shape:
        raise ValueError(f"expected observation shape {shape}, got {y.shape}")
    h_b, _, _ = _link(cfg)
    w = _project(y.reshape(cfg.p_profiles, cfg.m_bs, cfg.l_pilot), h_b.conj())
    return _profile_inverse(_pilot_inverse(w, cfg), cfg)


def sound_and_recover(a: np.ndarray, cfg: SystemConfig, snr_db: float,
                      rngs: list[np.random.Generator]) -> np.ndarray:
    """``recover_channel(observe(a[t], cfg, snr_db, rngs[t]), cfg)`` for every t, unformed.

    ``a`` is a (T, n_ris, k_ue) stack and ``rngs`` its T generators; one
    channel is a stack of one.  Recovery is an exact left inverse of the
    sounding, so the round trip is the channel plus the recovered noise, and
    only the noise is computed: trial t's is ``observe``'s own draw from
    ``rngs[t]`` (every real part, then every imaginary part), plane by plane
    into one reused (P, M, L) buffer, each plane projected on ``h_b`` before
    the next is drawn.  Each generator ends where ``observe`` leaves it.  A
    channel whose noise level is not positive (NaN included) draws no noise;
    ``snr_db = inf`` returns ``a`` itself.  A finite SNR so low that the
    noise overflows yields a nonfinite channel, as ``observe`` does.

    Raises:
        ValueError: if ``snr_db`` is NaN or -inf.
    """
    h_b, h_r, _ = _link(cfg)
    std = _noise_std(np.fft.fft(h_r.conj()[:, None] * a, axis=-2), cfg, snr_db)
    noisy = np.flatnonzero(std > 0)
    if noisy.size == 0:
        return a
    coef = h_b.conj()
    plane = np.empty((cfg.p_profiles, cfg.m_bs, cfg.l_pilot))
    x = np.empty((noisy.size, cfg.n_ris, cfg.k_ue), complex)
    for t, x_t in zip(noisy, x):
        rngs[t].standard_normal(out=plane)
        w = _project(plane, coef)
        rngs[t].standard_normal(out=plane)
        w += _project(plane, 1j * coef)
        x_t[...] = _pilot_inverse(w, cfg)
    noise = _profile_inverse(x, cfg)
    noise *= std[noisy, None, None]
    out = a.copy()
    out[noisy] += noise
    return out
