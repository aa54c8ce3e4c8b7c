"""Run configuration: flat key = value files and defaults.

The file format is one ``key = value`` pair per line, UTF-8, with ``#``
comments and blank lines allowed.  Values at this boundary use presentation
units: angles in degrees and transmit power in dBm.  ``RunConfig.system()``
converts once to the radians/watts units used internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .channel import ChannelMode
from .geometry import SystemConfig


class ConfigError(Exception):
    """Malformed or invalid run configuration."""


_INT_KEYS = {"m", "k", "n_x", "n_y", "p", "l", "trials", "master_seed"}
_FLOAT_KEYS = {"wavelength", "d_u", "d_b", "d_x", "d_y", "power_dbm",
               "theta_bs_deg", "theta_ris_deg", "phi_ris_deg", "snr_db"}
_INT_LIST_KEYS = {"sweep_n", "sweep_k", "sweep_p"}
_FLOAT_LIST_KEYS = {"sweep_snr_db"}
_STR_KEYS = {"mode", "out", "format"}

# file key -> dataclass field (identity unless noted)
_KEY_TO_FIELD = {"format": "out_format"}


@dataclass
class RunConfig:
    """Full run description: system parameters plus simulation knobs."""

    m: int = 9
    k: int = 11
    n_x: int = 11
    n_y: int = 11
    p: int | None = None
    l: int = 50
    wavelength: float = 0.33
    d_u: float = 0.165
    d_b: float = 0.165
    d_x: float = 0.0825
    d_y: float = 0.0825
    power_dbm: float = 40.0
    theta_bs_deg: float = 30.0
    theta_ris_deg: float = 40.0
    phi_ris_deg: float = 50.0
    mode: ChannelMode = ChannelMode.EXACT
    trials: int = 300
    master_seed: int = 1
    snr_db: float = 15.0
    sweep_snr_db: list[float] = field(default_factory=list)
    sweep_n: list[int] = field(default_factory=list)
    sweep_k: list[int] = field(default_factory=list)
    sweep_p: list[int] = field(default_factory=list)
    out: str = "nmse.csv"
    out_format: str = "csv"

    def __post_init__(self):
        if self.p is None:
            self.p = self.n_x * self.n_y
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
        # +inf is the noiseless setting; NaN and -inf have no noise level
        for value in (self.snr_db, *self.sweep_snr_db):
            if math.isnan(value) or value == -math.inf:
                raise ConfigError(f"snr_db values must be numbers above -inf, "
                                  f"got {value!r}")
        try:
            self.system()  # validate SystemConfig invariants eagerly
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def system(self) -> SystemConfig:
        """Convert to internal units (radians, watts).

        Raises:
            ConfigError: if the transmit power in watts overflows a float.
            ValueError: if a ``SystemConfig`` invariant fails.
        """
        try:
            power_w = 10.0 ** (self.power_dbm / 10.0 - 3.0)
        except OverflowError:
            raise ConfigError(f"power_dbm = {self.power_dbm!r} overflows the "
                              f"transmit power in watts") from None
        return SystemConfig(
            m_bs=self.m, k_ue=self.k, n_x=self.n_x, n_y=self.n_y,
            p_profiles=self.p, l_pilot=self.l,
            wavelength=self.wavelength,
            d_u=self.d_u, d_b=self.d_b, d_x=self.d_x, d_y=self.d_y,
            power_w=power_w,
            theta_bs=math.radians(self.theta_bs_deg),
            theta_ris=math.radians(self.theta_ris_deg),
            phi_ris=math.radians(self.phi_ris_deg),
        )

    def sweep_grid(self) -> dict[str, list]:
        """Nonempty sweep axes in run_sweep's grid form."""
        grid = {}
        if self.sweep_snr_db:
            grid["snr_db"] = list(self.sweep_snr_db)
        if self.sweep_n:
            grid["N"] = list(self.sweep_n)
        if self.sweep_k:
            grid["K"] = list(self.sweep_k)
        if self.sweep_p:
            grid["P"] = list(self.sweep_p)
        return grid


def _parse_scalar(key: str, raw: str, line_no: int):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_LIST_KEYS:
            return [int(v.strip()) for v in raw.split(",") if v.strip()]
        if key in _FLOAT_LIST_KEYS:
            return [float(v.strip()) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"line {line_no}: invalid value {raw!r} for key "
                          f"{key!r}") from None
    return raw  # string-valued key


def parse_config(text: str) -> RunConfig:
    """Parse flat key = value text into a RunConfig.

    Raises:
        ConfigError: unknown or duplicate keys, bad syntax, or invalid
            values, with the offending line number in the message.
    """
    values: dict[str, object] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got "
                              f"{body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _INT_KEYS | _FLOAT_KEYS | _INT_LIST_KEYS \
                | _FLOAT_LIST_KEYS | _STR_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        field_name = _KEY_TO_FIELD.get(key, key)
        if field_name in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[field_name] = _parse_scalar(key, raw, line_no)
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """Read and parse a config file; OSError propagates to the caller."""
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())

