"""Run configuration: flat key = value files and defaults.

The file format is one ``key = value`` pair per line, UTF-8, with ``#``
comments and blank lines allowed.  Values at this boundary use presentation
units: angles in degrees and transmit power in dBm.  The key tables below
convert them once, on parsing, to the radians/watts units of
``SystemConfig``, which alone holds the system defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import ChannelMode, check_snr
from .geometry import SystemConfig
from .montecarlo import grid_points


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


def _power_w(raw: str) -> float:
    power_dbm = float(raw)
    try:
        return 10.0 ** (power_dbm / 10.0 - 3.0)
    except OverflowError:
        raise ConfigError(f"power_dbm = {power_dbm!r} overflows the "
                          f"transmit power in watts") from None


def _radians(raw: str) -> float:
    return math.radians(float(raw))


def _list(parse):
    return lambda raw: [parse(v.strip()) for v in raw.split(",") if v.strip()]


# file key -> (SystemConfig field, parser)
_SYSTEM_KEYS = {
    "m": ("m_bs", int), "k": ("k_ue", int), "n_x": ("n_x", int),
    "n_y": ("n_y", int), "p": ("p_profiles", int), "l": ("l_pilot", int),
    "wavelength": ("wavelength", float), "d_u": ("d_u", float),
    "d_b": ("d_b", float), "d_x": ("d_x", float), "d_y": ("d_y", float),
    "power_dbm": ("power_w", _power_w), "theta_bs_deg": ("theta_bs", _radians),
    "theta_ris_deg": ("theta_ris", _radians),
    "phi_ris_deg": ("phi_ris", _radians),
}
# file key -> (sweep axis, parser); an empty list adds no axis
_SWEEP_KEYS = {
    "sweep_snr_db": ("snr_db", _list(float)), "sweep_n": ("N", _list(int)),
    "sweep_k": ("K", _list(int)), "sweep_p": ("P", _list(int)),
}
# file key -> (RunConfig field, parser)
_RUN_KEYS = {
    "mode": ("mode", str), "trials": ("trials", int),
    "master_seed": ("master_seed", int), "snr_db": ("snr_db", float),
    "out": ("out", str), "format": ("out_format", str),
}
# file key -> (destination, target, parser)
_KEYS = {key: (dest, *entry) for dest, table in (
    ("system", _SYSTEM_KEYS), ("grid", _SWEEP_KEYS), ("run", _RUN_KEYS))
    for key, entry in table.items()}


@dataclass
class RunConfig:
    """Full run description: system parameters plus simulation knobs.

    ``grid`` maps sweep axes to values in ``run_sweep``'s grid form.  Each
    grid point's config is built here, so a bad sweep value fails before
    any trial runs.
    """

    system: SystemConfig = SystemConfig()
    mode: ChannelMode = ChannelMode.EXACT
    trials: int = 300
    master_seed: int = 1
    snr_db: float = 15.0
    grid: dict[str, list] = field(default_factory=dict)
    out: str = "nmse.csv"
    out_format: str = "csv"

    def __post_init__(self):
        if isinstance(self.mode, str):
            try:
                self.mode = ChannelMode(self.mode)
            except ValueError:
                raise ConfigError(f"mode must be one of "
                                  f"{[m.value for m in ChannelMode]}, "
                                  f"got {self.mode!r}") from None
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got "
                              f"{self.out_format!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be nonnegative, got "
                              f"{self.master_seed}")
        try:
            check_snr(self.snr_db)
            grid_points(self.system, self.grid)
        except ValueError as err:
            raise ConfigError(str(err)) from None


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text into a RunConfig.

    Raises:
        ConfigError: unknown or duplicate keys, bad syntax, or invalid
            values, with the offending line number in the message.
    """
    seen: set[str] = set()
    values: dict[str, dict] = {"system": {}, "grid": {}, "run": {}}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got "
                              f"{body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        seen.add(key)
        dest, target, parse = _KEYS[key]
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(f"line {line_no}: invalid value {raw!r} for key "
                              f"{key!r}") from None
        if value != []:  # an empty sweep list adds no axis
            values[dest][target] = value
    try:
        system = SystemConfig(**values["system"])
    except ValueError as err:
        raise ConfigError(str(err)) from None
    return RunConfig(system=system, grid=values["grid"], **values["run"])


def load_config(path: str) -> RunConfig:
    """Read and parse a config file; OSError propagates to the caller."""
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
