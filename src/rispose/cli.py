"""Command-line front end: estimate, sweep, validate.

Exit codes: 0 success, 1 estimation/validation failure, 2 configuration or
usage error, 3 unwritable output.  Angles cross this boundary in degrees.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace

import numpy as np

from .channel import ChannelMode
from .config import ConfigError, RunConfig, load_config
from .geometry import Pose, distance_wrap_bound, near_field_bounds, sample_pose
from .montecarlo import pose_seed, run_sweep, run_trial, trial_seed
from .validate import run_validation


def _load(path: str | None) -> RunConfig:
    return load_config(path) if path else RunConfig()


def _apply_overrides(rc: RunConfig, args: argparse.Namespace) -> RunConfig:
    return replace(rc, **{f.name: getattr(args, f.name) for f in fields(RunConfig)
                          if getattr(args, f.name, None) is not None})


def _parse_pose_arg(text: str) -> Pose:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError(f"--pose needs 5 comma-separated values, got {len(parts)}")
    r, theta, phi, psi, gamma = (float(p) for p in parts)
    return Pose(r=r, theta=math.radians(theta), phi=math.radians(phi),
                psi=math.radians(psi), gamma=math.radians(gamma))


def _pose_degrees(values: tuple[float, ...]) -> dict[str, float]:
    r, theta, phi, psi, gamma = values
    return {"r": r, "theta": math.degrees(theta), "phi": math.degrees(phi),
            "psi": math.degrees(psi), "gamma": math.degrees(gamma)}


def _json_text(obj) -> str:
    """Standard JSON; a non-finite float is the string the CSV writes ("inf", "nan")."""
    def finite(v):
        if isinstance(v, float) and not math.isfinite(v):
            return repr(float(v))
        if isinstance(v, dict):
            return {key: finite(x) for key, x in v.items()}
        if isinstance(v, list):
            return [finite(x) for x in v]
        return v
    return json.dumps(finite(obj), indent=2, allow_nan=False)


def cmd_estimate(args: argparse.Namespace) -> int:
    try:
        rc = _apply_overrides(_load(args.config), args)
        cfg = rc.system
        if args.pose:
            pose = _parse_pose_arg(args.pose)
        else:
            # this pose and the noise below are trial 0 of a one-point SNR sweep
            pose = sample_pose(np.random.default_rng(pose_seed(rc.master_seed, 0)), cfg)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    r_min, r_max = near_field_bounds(cfg)
    if not r_min <= pose.r <= r_max:
        wrap = distance_wrap_bound(cfg)
        below = (f", and at or below the distance wrap rule's bound 2 d_u^2 / "
                 f"wavelength = {wrap:.4g} m, where the distance phase wraps"
                 if pose.r <= wrap else "")
        print(f"warning: r = {pose.r:.4g} m outside the near-field window "
              f"[{r_min:.4g}, {r_max:.4g}] m{below}; estimates may be biased",
              file=sys.stderr)
    rng = np.random.default_rng(trial_seed(rc.master_seed, "snr_db", rc.snr_db, 0))
    result = run_trial(cfg, pose, rc.snr_db, rc.mode, rng)
    report = {
        "mode": rc.mode.value,
        "snr_db": rc.snr_db,
        "seed": rc.master_seed,
        "near_field_bounds_m": [r_min, r_max],
        "units": {"r": "m", "theta": "deg", "phi": "deg", "psi": "deg",
                  "gamma": "deg"},
        "true": _pose_degrees(pose.as_tuple()),
    }
    if result.failed:
        report["failed"] = True
        report["stage"] = result.stage
        print(_json_text(report))
        print(f"estimation failed at stage: {result.stage}", file=sys.stderr)
        return 1
    report["estimate"] = _pose_degrees(result.estimate.as_tuple())
    report["sq_rel_err"] = result.squared_relative_error
    print(_json_text(report))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        rc = _apply_overrides(_load(args.config), args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if not any(rc.grid.values()):
        print("error: no sweep axis configured (set sweep_snr_db, sweep_n, "
              "sweep_k, or sweep_p)", file=sys.stderr)
        return 2
    table = run_sweep(rc.system, rc.grid, rc.trials, rc.master_seed,
                      snr_db=rc.snr_db, mode=rc.mode)
    if rc.out_format == "json":
        text = _json_text(table.to_json_obj()) + "\n"
    else:
        text = table.to_csv()
    try:
        with open(rc.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        print(f"error: cannot write {rc.out!r}: {err}", file=sys.stderr)
        return 3
    print(f"wrote {len(table.rows)} rows ({rc.out_format}) to {rc.out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_validation()
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispose",
        description="Closed-form 5D pose estimation of a multi-antenna user "
                    "in the near field of a reconfigurable intelligent surface.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key = value config file")
    common.add_argument("--snr-db", dest="snr_db", type=float, metavar="X",
                        help="operating SNR in dB ('inf' for noiseless)")
    common.add_argument("--seed", dest="master_seed", type=int, metavar="U64",
                        help="master seed")
    common.add_argument("--mode", choices=[m.value for m in ChannelMode],
                        help="channel distance model")

    p_est = sub.add_parser("estimate", parents=[common],
                           help="run a single estimation trial")
    p_est.add_argument("--pose", metavar="R,THETA,PHI,PSI,GAMMA",
                       help="true pose (meters, degrees); default: sampled")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="Monte Carlo NMSE sweep over configured axes")
    p_sweep.add_argument("--trials", type=int, metavar="N",
                         help="trials per grid point")
    p_sweep.add_argument("--out", metavar="PATH", help="output table path")
    p_sweep.add_argument("--format", dest="out_format", choices=["csv", "json"],
                         help="output format")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in invariant suite")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
