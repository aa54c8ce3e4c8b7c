"""Named sweep workloads and the import of the library they run.

Each workload is one ``run_sweep`` call shape: a base config, a sweep grid
and a trial count per grid point.  One call of that shape is a *rep*; the
benchmark times reps with distinct master seeds derived from ``--seed``.
The reasons behind each choice are in README.md next to this file.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (base SystemConfig fields, sweep grid, trials per grid point per rep)
# Trial counts put one rep at roughly 2 s on a 2-core x86 VM, so a 25 s run
# holds about a dozen reps for the median.
SPECS = {
    "snr_sweep_n225": ({"n_x": 15, "n_y": 15}, {"snr_db": [0.0, 10.0, 20.0, 30.0]}, 15),
    "antenna_sweep_n49": ({"n_x": 7, "n_y": 7}, {"K": [11, 15]}, 100),
    "profile_sweep_generic": ({"n_x": 11, "n_y": 11}, {"P": [150, 200, 300]}, 8),
}

# Operating SNR for grid axes other than snr_db.
SNR_DB = 15.0


def import_rispose():
    """Import rispose from ``src/`` of the checkout this file sits in.

    Exits with an error if that source tree is missing, so the benchmark
    never measures some other installed copy of the library.
    """
    init = SRC / "rispose" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: library source not found at {init}")
    sys.path.insert(0, str(SRC))
    import rispose
    if Path(rispose.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported rispose from {rispose.__file__}, "
                         f"expected {init}")
    return rispose


def rep_seed(seed: int, rep: int) -> int:
    """Master seed of rep ``rep`` in a run started with ``--seed seed``."""
    return seed * 1000 + rep


@dataclass(frozen=True)
class Workload:
    name: str
    cfg: object  # rispose.SystemConfig
    grid: dict
    trials: int
    rispose: object  # the imported module

    @property
    def trials_per_rep(self) -> int:
        return self.trials * sum(len(values) for values in self.grid.values())

    def run(self, master_seed: int):
        """One rep: a Fresnel-mode sweep; returns the NmseTable."""
        return self.rispose.run_sweep(self.cfg, self.grid, self.trials, master_seed,
                                      snr_db=SNR_DB,
                                      mode=self.rispose.ChannelMode.FRESNEL)

    def point_configs(self):
        """SystemConfig of every grid point, as the sweep axes define them."""
        for axis, values in self.grid.items():
            for value in values:
                if axis == "snr_db":
                    yield self.cfg
                elif axis == "K":
                    yield replace(self.cfg, k_ue=int(value))
                elif axis == "P":
                    yield replace(self.cfg, p_profiles=int(value))
                else:
                    raise ValueError(f"axis {axis!r} has no grid-point config here")


def build(name: str) -> Workload:
    """Import the library and construct the named workload's config and grid."""
    if name not in SPECS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; "
                         f"choose from {sorted(SPECS)}")
    rispose = import_rispose()
    cfg_fields, grid, trials = SPECS[name]
    return Workload(name=name, cfg=rispose.SystemConfig(**cfg_fields), grid=grid,
                    trials=trials, rispose=rispose)
