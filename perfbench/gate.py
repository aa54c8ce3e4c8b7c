"""Correctness gate of the benchmark; runs untimed.

* Noiseless Fresnel trials at every grid point's config, over a fixed set
  of poses, must recover every parameter to a relative error below 1e-6
  (acceptance criterion 1's threshold).  The poses are the acceptance
  suite's reference pose and the centre of the sampling box.
* The same check over random in-box poses drawn from the run's seed is
  recorded, not gated: on small arrays the orientation phase can wrap at
  short range, a known estimator defect (see README.md).
* Every NMSE row of every measured sweep must be finite.
* Sweeps repeated with the same master seed, traced or not, must print
  byte-identical CSV.
"""

from __future__ import annotations

import math

import numpy as np

NOISELESS_REL_TOL = 1e-6
RANDOM_POSES = 8  # per distinct grid-point config
RANDOM_POSE_STREAM = 7  # keeps these poses apart from any sweep's pose stream


def fixed_poses(rispose, cfg):
    """The acceptance suite's reference pose and the sampling box's centre."""
    geometry = rispose.geometry
    mid = lambda lo_hi: math.radians(sum(lo_hi) / 2)  # noqa: E731
    return [
        rispose.Pose(r=2.0, theta=math.radians(75), phi=math.radians(35),
                     psi=math.radians(130), gamma=math.radians(40)),
        rispose.Pose(r=sum(rispose.near_field_bounds(cfg)) / 2,
                     theta=mid(geometry.THETA_RANGE_DEG), phi=mid(geometry.PHI_RANGE_DEG),
                     psi=mid(geometry.PSI_RANGE_DEG), gamma=mid(geometry.GAMMA_RANGE_DEG)),
    ]


def noiseless_rel_err(rispose, cfg, pose) -> float:
    """Largest relative error of a noiseless Fresnel trial (inf if it failed)."""
    result = rispose.run_trial(cfg, pose, math.inf, rispose.ChannelMode.FRESNEL,
                               np.random.default_rng(0))
    if result.failed:
        return math.inf
    return math.sqrt(max(result.squared_relative_error.values()))


class Gate:
    """Collects correctness problems; the run is correct iff there are none."""

    def __init__(self):
        self.problems: list[str] = []
        self.noiseless_max_rel_err = 0.0
        self.random_poses = 0
        self.random_poses_inexact = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def check_noiseless(self, workload, seed: int) -> None:
        rispose = workload.rispose
        for cfg in dict.fromkeys(workload.point_configs()):  # snr_db points share one
            for pose in fixed_poses(rispose, cfg):
                err = noiseless_rel_err(rispose, cfg, pose)
                self.noiseless_max_rel_err = max(self.noiseless_max_rel_err, err)
                if not err < NOISELESS_REL_TOL:
                    self.problems.append(f"noiseless relative error {err:.3e} >= "
                                         f"{NOISELESS_REL_TOL} ({cfg}, {pose})")
            for i in range(RANDOM_POSES):
                pose = rispose.sample_pose(
                    np.random.default_rng([seed, RANDOM_POSE_STREAM, i]), cfg)
                self.random_poses += 1
                if not noiseless_rel_err(rispose, cfg, pose) < NOISELESS_REL_TOL:
                    self.random_poses_inexact += 1

    def check_finite(self, master_seed: int, table) -> None:
        bad = [row for row in table.rows if not math.isfinite(row.nmse)]
        if bad:
            self.problems.append(f"sweep {master_seed}: {len(bad)} non-finite NMSE rows")

    def check_identical(self, what: str, master_seed: int, expected: str,
                        got: str) -> None:
        if got != expected:
            self.problems.append(f"sweep {master_seed}: {what} CSV differs")
