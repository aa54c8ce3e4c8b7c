"""Monte Carlo benchmarking: seeded trials and NMSE sweeps over SNR/N/K/P.

NMSE of a parameter x is the mean of ((x_hat - x) / x)^2 over non-failed
trials, with angles compared in radians.  Failed trials are counted and
reported per grid point, never silently dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelMode, ris_ue_channel, sound_and_recover
from .estimator import EstimationError, PoseEstimate, estimate_pose_from_channel
from .geometry import Pose, SystemConfig, sample_pose

PARAMS = ("r", "theta", "phi", "psi", "gamma")

# Sweep axes in fixed evaluation order; the codes feed seed derivation so
# every (axis, value, trial) triple owns an independent substream.
AXIS_CODES = {"snr_db": 0, "N": 1, "K": 2, "P": 3}

# Pose draws use a stream shared by every grid point (common random numbers):
# point-to-point NMSE comparisons are then paired over poses and only differ
# through the noise, which sharpens trend estimates at fixed trial counts.
POSE_STREAM_CODE = 4

NMSE_DEFINITION = ("mean over non-failed trials of ((est - true) / true)^2 "
                   "per parameter; angles in radians")


@dataclass(frozen=True)
class TrialResult:
    """Outcome of a single estimation trial; ``stage`` names where it failed."""

    estimate: PoseEstimate | None
    squared_relative_error: dict[str, float] | None
    stage: str | None = None

    @property
    def failed(self) -> bool:
        return self.stage is not None


@dataclass(frozen=True)
class NmseRow:
    """One (grid point, parameter) aggregate of a sweep."""

    sweep_var: str
    sweep_value: float
    param: str
    nmse: float
    trials: int
    failures: int
    seed: int


@dataclass
class NmseTable:
    """Sweep results plus run metadata (metadata serializes to JSON only)."""

    rows: list[NmseRow] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    CSV_HEADER = "sweep_var,sweep_value,param,nmse,trials,failures,seed"

    @staticmethod
    def _fmt(value) -> str:
        if isinstance(value, float) and value.is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(value)

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(",".join([
                row.sweep_var, self._fmt(row.sweep_value), row.param,
                repr(row.nmse), str(row.trials), str(row.failures),
                str(row.seed),
            ]))
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "metadata": self.metadata,
            "rows": [vars(row) for row in self.rows],
        }


def run_trial(cfg: SystemConfig, pose: Pose, snr_db: float, mode: ChannelMode,
              rng: np.random.Generator) -> TrialResult:
    """Sound the channel of one pose, recover it and estimate the pose.

    ``snr_db = inf`` means noiseless.  The recovered channel comes from
    ``sound_and_recover``: the same value and noise draw as
    ``recover_channel(observe(...))``, without forming the observation.
    Estimation failures are recorded in the result, not raised.

    Raises:
        ValueError: if ``snr_db`` is NaN or -inf.
    """
    a = sound_and_recover(ris_ue_channel(pose, cfg, mode), cfg, snr_db, rng)
    try:
        est = estimate_pose_from_channel(a, cfg)
    except EstimationError as err:
        return TrialResult(estimate=None, squared_relative_error=None,
                           stage=err.stage)
    errors = {
        name: ((est_val - true_val) / true_val) ** 2
        for name, est_val, true_val in zip(PARAMS, est.as_tuple(), pose.as_tuple())
    }
    if not all(math.isfinite(v) for v in errors.values()):
        return TrialResult(estimate=est, squared_relative_error=None,
                           stage="nonfinite")
    return TrialResult(estimate=est, squared_relative_error=errors)


def trial_seed(master_seed: int, axis: str, value, trial: int) -> np.random.SeedSequence:
    """Derived noise seed for one trial, independent of execution order.

    The sweep value is folded in by exact bit pattern (ints as-is, floats
    via their 64-bit representation) so distinct grid points never share a
    noise stream even if they compare numerically equal across types.
    """
    if isinstance(value, (int, np.integer)) and axis != "snr_db":
        value_bits = int(value)
    else:
        value_bits = int(np.float64(value).view(np.uint64))
    return np.random.SeedSequence([master_seed, AXIS_CODES[axis], value_bits, trial])


def pose_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Derived pose seed for one trial, shared across grid points."""
    return np.random.SeedSequence([master_seed, POSE_STREAM_CODE, trial])


def _config_for(cfg_base: SystemConfig, axis: str, value) -> tuple[SystemConfig, float | None]:
    """Derive the grid-point config; returns (config, snr override or None)."""
    if axis == "snr_db":
        return cfg_base, float(value)
    if axis == "N":
        side = math.isqrt(int(value))
        if side * side != int(value) or side % 2 == 0:
            raise ValueError(f"RIS size sweep value {value} is not an odd square")
        return replace(cfg_base, n_x=side, n_y=side, p_profiles=int(value)), None
    if axis == "K":
        return replace(cfg_base, k_ue=int(value)), None
    if axis == "P":
        return replace(cfg_base, p_profiles=int(value)), None
    raise ValueError(f"unknown sweep axis {axis!r}")


def grid_points(cfg_base: SystemConfig, grid: dict[str, list]) -> list[tuple]:
    """Every point of a sweep grid in fixed axis order, with its config.

    Returns:
        (axis, value, config, snr override or None) per grid point.

    Raises:
        ValueError: on an unknown axis, or a value whose grid-point config
            the axis or ``SystemConfig`` rejects.
    """
    unknown = set(grid) - set(AXIS_CODES)
    if unknown:
        raise ValueError(f"unknown sweep axes {sorted(unknown)}")
    return [(axis, value, *_config_for(cfg_base, axis, value))
            for axis in AXIS_CODES for value in grid.get(axis, [])]


def run_sweep(cfg_base: SystemConfig, grid: dict[str, list], trials: int,
              master_seed: int, snr_db: float = 15.0,
              mode: ChannelMode = ChannelMode.EXACT) -> NmseTable:
    """Run seeded Monte Carlo trials over a sweep grid and aggregate NMSE.

    Args:
        cfg_base: baseline system parameters.
        grid: axis name -> list of values; axes are "snr_db", "N" (total RIS
            elements, odd squares; also sets p_profiles = N), "K", "P".
        trials: trials per grid point.
        master_seed: root of the per-trial seed derivation.
        snr_db: operating SNR for the non-SNR axes.
        mode: channel model for synthesis.

    Returns:
        NmseTable with one row per (axis, value, parameter), in fixed axis
        order regardless of dict ordering, plus run metadata.

    Raises:
        ValueError: on an empty grid, a bad grid point (see ``grid_points``;
            checked before any trial runs) or ``trials < 1``.
    """
    points = grid_points(cfg_base, grid)
    if not points:
        raise ValueError("sweep grid is empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    table = NmseTable(metadata={
        "nmse_definition": NMSE_DEFINITION,
        "mode": mode.value,
        "trials_per_point": trials,
        "master_seed": master_seed,
        "snr_db": snr_db,
    })
    for axis, value, cfg, snr_override in points:
        point_snr = snr_override if snr_override is not None else snr_db
        sums = {p: 0.0 for p in PARAMS}
        failures = 0
        for t in range(trials):
            rng = np.random.default_rng(trial_seed(master_seed, axis, value, t))
            pose = sample_pose(np.random.default_rng(pose_seed(master_seed, t)), cfg)
            result = run_trial(cfg, pose, point_snr, mode, rng)
            if result.failed:
                failures += 1
                continue
            for p in PARAMS:
                sums[p] += result.squared_relative_error[p]
        ok = trials - failures
        for p in PARAMS:
            nmse = sums[p] / ok if ok > 0 else math.nan
            table.rows.append(NmseRow(
                sweep_var=axis, sweep_value=float(value), param=p,
                nmse=nmse, trials=trials, failures=failures,
                seed=master_seed,
            ))
    return table
