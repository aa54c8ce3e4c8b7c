"""Regenerate ``tests/corpus.json``, the regression corpus of seeded outputs.

Run from the repository root:

    PYTHONPATH=src python3 tests/make_corpus.py

Each sweep case below is run with ``run_sweep`` and stored with every
row's NMSE and failure count; each CLI case is a README ``rispose
estimate`` example, stored with its estimate.  ``test_corpus.py`` reruns
the cases from the file and compares.  A change that moves seeded
realisations or estimates on purpose regenerates the file in the same
commit and says which rows moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from rispose import ChannelMode, SystemConfig, run_sweep
from rispose.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus.json"

# (system fields, grid, trials, master seed, operating SNR, mode).  Together
# they cover both modes, the SNR, N, K and P axes, partial stacks (37 trials
# at N = 25 and 49, stacks of 29 and 15) and failed trials (-30 dB).
SWEEPS = [
    ({"n_x": 15, "n_y": 15}, {"snr_db": [-30.0]}, 40, 2, 15.0, "fresnel"),
    ({}, {"snr_db": [-30.0, 0.0, 20.0]}, 15, 1, 15.0, "exact"),
    ({}, {"N": [25, 49]}, 37, 2, -30.0, "exact"),
    ({}, {"N": [25, 49]}, 37, 0, 15.0, "fresnel"),
    ({"n_x": 7, "n_y": 7}, {"K": [11, 15]}, 20, 1, 15.0, "exact"),
    ({}, {"P": [150, 300]}, 6, 2, 15.0, "fresnel"),
    ({"n_x": 5, "n_y": 5}, {"snr_db": [-30.0]}, 150, 0, 15.0, "fresnel"),
]

# the two ``rispose estimate`` examples of README.md
ESTIMATES = [
    ["estimate", "--pose", "2.5,70,35,110,45", "--snr-db", "inf", "--mode", "fresnel"],
    ["estimate", "--seed", "7", "--snr-db", "15"],
]


def sweep_rows(system: dict, grid: dict, trials: int, seed: int, snr_db: float,
               mode: str) -> list[list]:
    """[axis, value, param, nmse or None, failures] per row of one sweep."""
    table = run_sweep(SystemConfig(**system), grid, trials, seed, snr_db=snr_db,
                      mode=ChannelMode(mode))
    return [[row.sweep_var, row.sweep_value, row.param,
             None if row.nmse != row.nmse else row.nmse, row.failures]
            for row in table.rows]


def estimate_report(argv: list[str]) -> dict:
    """The JSON report ``rispose`` prints for ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return json.loads(out.getvalue())


def build() -> dict:
    sweeps = [{"system": system, "grid": grid, "trials": trials, "seed": seed,
               "snr_db": snr_db, "mode": mode,
               "rows": sweep_rows(system, grid, trials, seed, snr_db, mode)}
              for system, grid, trials, seed, snr_db, mode in SWEEPS]
    estimates = [{"argv": argv, "estimate": estimate_report(argv)["estimate"]}
                 for argv in ESTIMATES]
    return {"sweeps": sweeps, "estimates": estimates}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(build(), indent=1, allow_nan=False) + "\n")
    print(f"wrote {CORPUS}")
