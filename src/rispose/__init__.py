"""Closed-form 5D pose estimation in the near field of a RIS.

A multi-antenna user transmits pilots that reach the base station through a
reconfigurable intelligent surface; the spherical-wavefront structure of the
RIS-side channel lets a shift-invariance (TLS-ESPRIT style) estimator read
off distance, direction, and array orientation in closed form.  The package
bundles the synthetic channel model, the estimator, and a seeded Monte
Carlo NMSE benchmark harness with a small CLI.
"""

from .channel import (ChannelMode, observe, pilot_matrix, recover_channel,
                      ris_bs_channel, ris_profiles, ris_ue_channel, sound_and_recover)
from .config import ConfigError, RunConfig, load_config, parse_config
from .estimator import (EstimationError, PoseEstimate, direction_transform,
                        distance_transform, estimate_direction, estimate_distance,
                        estimate_orientation, estimate_pose,
                        estimate_pose_from_channel, orientation_transform,
                        tls_phase_ratio)
from .geometry import (Pose, SystemConfig, near_field_bounds, sample_pose,
                       unit_direction)
from .montecarlo import (NmseRow, NmseTable, TrialResult, pose_seed, run_sweep,
                         run_trial, trial_seed)
from .validate import CheckResult, run_validation

__version__ = "0.1.0"

__all__ = [
    "ChannelMode", "CheckResult", "ConfigError", "EstimationError", "NmseRow",
    "NmseTable", "Pose", "PoseEstimate", "RunConfig", "SystemConfig", "TrialResult",
    "direction_transform", "distance_transform", "estimate_direction",
    "estimate_distance", "estimate_orientation", "estimate_pose",
    "estimate_pose_from_channel", "load_config", "near_field_bounds", "observe",
    "orientation_transform", "parse_config", "pilot_matrix", "pose_seed",
    "recover_channel", "ris_bs_channel", "ris_profiles", "ris_ue_channel",
    "run_sweep", "run_trial", "run_validation", "sample_pose",
    "sound_and_recover", "tls_phase_ratio", "trial_seed", "unit_direction",
]
