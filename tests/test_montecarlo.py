"""Monte Carlo driver: trials, seed derivation, sweeps, NMSE aggregation."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import rispose
import rispose.montecarlo as mc_mod
from rispose.channel import ChannelMode
from rispose.estimator import EstimationError, PoseEstimate
from rispose.geometry import Pose, SystemConfig
from rispose.montecarlo import (AXIS_CODES, PARAMS, NmseTable, pose_seed,
                                run_sweep, run_trial, trial_seed)


@pytest.fixture
def cfg():
    # compact geometry keeps every sweep in this file fast; pilots long
    # enough for the K = 7 sweep point
    return SystemConfig(m_bs=3, k_ue=5, n_x=5, n_y=5, p_profiles=25, l_pilot=8)


@pytest.fixture
def pose():
    return Pose(r=2.5, theta=math.radians(70), phi=math.radians(35),
                psi=math.radians(110), gamma=math.radians(45))


# --------------------------------------------------------------------- trials

def test_run_trial_noiseless_is_exact(cfg, pose):
    rng = np.random.default_rng(0)
    result = run_trial(cfg, pose, math.inf, ChannelMode.FRESNEL, rng)
    assert not result.failed
    assert result.stage is None
    assert result.estimate is not None
    for p in PARAMS:
        assert result.squared_relative_error[p] < 1e-12


def test_run_trial_deterministic(cfg, pose):
    outs = []
    for _ in range(2):
        rng = np.random.default_rng(1234)
        outs.append(run_trial(cfg, pose, 10.0, ChannelMode.FRESNEL, rng))
    assert outs[0].estimate.as_tuple() == outs[1].estimate.as_tuple()
    assert outs[0].squared_relative_error == outs[1].squared_relative_error


def test_run_trial_survives_heavy_noise(cfg, pose):
    # far below any usable operating point the trial must either report
    # failure or produce finite errors, never raise
    for seed in range(10):
        rng = np.random.default_rng(seed)
        result = run_trial(cfg, pose, -100.0, ChannelMode.FRESNEL, rng)
        if result.failed:
            assert result.stage is not None
        else:
            assert all(math.isfinite(v)
                       for v in result.squared_relative_error.values())


def test_run_trial_flags_nonfinite_estimates(cfg, pose, monkeypatch):
    fake = PoseEstimate(r_hat=2.5, theta_hat=math.nan, phi_hat=0.6,
                        psi_hat=1.9, gamma_hat=0.8)
    monkeypatch.setattr(mc_mod, "estimate_pose_from_channel", lambda *a, **k: fake)
    result = run_trial(cfg, pose, math.inf, ChannelMode.FRESNEL,
                       np.random.default_rng(0))
    assert result.failed
    assert result.stage == "nonfinite"
    assert result.estimate is fake


def test_run_trial_rejects_undefined_snr(cfg, pose):
    for snr_db in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="snr_db"):
            run_trial(cfg, pose, snr_db, ChannelMode.FRESNEL,
                      np.random.default_rng(0))


def test_run_trial_never_raises_at_overflowing_snr(cfg, pose):
    # the noise gain overflows near -6165 dB; the observation overflows a
    # little above that; both are recorded failures, not raises
    table = run_sweep(cfg, {"snr_db": [-6160.0, -7000.0]}, trials=3,
                      master_seed=9, mode=ChannelMode.FRESNEL)
    assert len(table.rows) == 2 * len(PARAMS)
    for row in table.rows:
        assert row.failures == 3
        assert math.isnan(row.nmse)
    result = run_trial(cfg, pose, -7000.0, ChannelMode.FRESNEL,
                       np.random.default_rng(0))
    assert result.failed and result.stage == "nonfinite"


# OpenBLAS worker threads spin between trials and burn the second core, so
# nothing on the per-trial path may call into BLAS
TRIAL_PATH_MODULES = ("channel.py", "recovery.py", "estimator.py", "montecarlo.py")
BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def test_trial_path_makes_no_blas_calls():
    src = Path(rispose.__file__).parent
    found = []
    for name in TRIAL_PATH_MODULES:
        for node in ast.walk(ast.parse((src / name).read_text())):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.MatMult):
                found.append(f"{where} @")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in BLAS_CALLS:
                    found.append(f"{where} {func.attr}()")
                elif isinstance(func, ast.Name) and func.id in BLAS_CALLS:
                    found.append(f"{where} {func.id}()")
            elif isinstance(node, ast.Attribute) and node.attr == "linalg":
                found.append(f"{where} linalg")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any("linalg" in n or n in BLAS_CALLS for n in names):
                    found.append(f"{where} import")
    assert found == []


# ------------------------------------------------------------ seed derivation

def test_trial_seeds_are_distinct():
    seen = set()
    for axis, code in AXIS_CODES.items():
        for value in (10, 25):
            for trial in range(3):
                ent = tuple(trial_seed(7, axis, value, trial).entropy)
                assert ent[1] == code
                assert ent not in seen
                seen.add(ent)
    # pose stream never collides with any noise stream
    for trial in range(3):
        ent = tuple(pose_seed(7, trial).entropy)
        assert ent not in seen


def test_trial_seed_snr_int_float_equivalence():
    a = trial_seed(3, "snr_db", 10, 0).entropy
    b = trial_seed(3, "snr_db", 10.0, 0).entropy
    assert list(a) == list(b)
    c = trial_seed(3, "N", 121, 0).entropy
    d = trial_seed(3, "N", np.int64(121), 0).entropy
    assert list(c) == list(d)


# --------------------------------------------------------------------- sweeps

def test_run_sweep_row_layout(cfg):
    table = run_sweep(cfg, {"K": [5, 7], "snr_db": [10.0]}, trials=3,
                      master_seed=11, mode=ChannelMode.FRESNEL)
    assert len(table.rows) == 3 * len(PARAMS)
    # axes come out in fixed order (snr before K) whatever the dict order
    assert [row.sweep_var for row in table.rows[:5]] == ["snr_db"] * 5
    assert [row.sweep_var for row in table.rows[5:]] == ["K"] * 10
    assert [row.sweep_value for row in table.rows[5:10]] == [5.0] * 5
    assert [row.sweep_value for row in table.rows[10:]] == [7.0] * 5
    for start in range(0, len(table.rows), 5):
        assert tuple(r.param for r in table.rows[start:start + 5]) == PARAMS
    assert all(row.trials == 3 and row.seed == 11 for row in table.rows)


def test_run_sweep_order_independent(cfg):
    kwargs = dict(trials=4, master_seed=5, snr_db=15.0,
                  mode=ChannelMode.FRESNEL)
    t1 = run_sweep(cfg, {"K": [5, 7], "snr_db": [10.0, 20.0]}, **kwargs)
    t2 = run_sweep(cfg, {"snr_db": [20.0, 10.0], "K": [7, 5]}, **kwargs)
    key = lambda r: (r.sweep_var, r.sweep_value, r.param)
    m1 = {key(r): (r.nmse, r.failures) for r in t1.rows}
    m2 = {key(r): (r.nmse, r.failures) for r in t2.rows}
    assert m1 == m2


def test_run_sweep_repeatable(cfg):
    args = (cfg, {"snr_db": [12.0]})
    kwargs = dict(trials=5, master_seed=21, mode=ChannelMode.FRESNEL)
    t1 = run_sweep(*args, **kwargs)
    t2 = run_sweep(*args, **kwargs)
    assert [vars(r) for r in t1.rows] == [vars(r) for r in t2.rows]


def test_run_sweep_all_failed_point(cfg, monkeypatch):
    def boom(*args, **kwargs):
        raise EstimationError("distance", "forced")

    monkeypatch.setattr(mc_mod, "estimate_pose_from_channel", boom)
    table = run_sweep(cfg, {"snr_db": [15.0]}, trials=4, master_seed=1)
    for row in table.rows:
        assert row.failures == 4
        assert math.isnan(row.nmse)


def test_run_sweep_input_validation(cfg, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("run_trial called before the grid was checked")

    monkeypatch.setattr(mc_mod, "run_trial", no_trial)
    with pytest.raises(ValueError):
        run_sweep(cfg, {}, trials=2, master_seed=1)
    with pytest.raises(ValueError):
        run_sweep(cfg, {"snr_db": []}, trials=2, master_seed=1)
    with pytest.raises(ValueError):
        run_sweep(cfg, {"Q": [1.0]}, trials=2, master_seed=1)
    with pytest.raises(ValueError):
        run_sweep(cfg, {"N": [120]}, trials=2, master_seed=1)  # not odd square
    with pytest.raises(ValueError):
        run_sweep(cfg, {"snr_db": [10.0]}, trials=0, master_seed=1)
    # every grid point's config is built before the first trial
    for grid in ({"K": [4]}, {"P": [10]}, {"snr_db": [10.0], "K": [5, 4]}):
        with pytest.raises(ValueError):
            run_sweep(cfg, grid, trials=2, master_seed=1)


def test_run_sweep_n_axis_resizes_ris(cfg):
    table = run_sweep(cfg, {"N": [25, 49]}, trials=2, master_seed=3,
                      snr_db=math.inf, mode=ChannelMode.FRESNEL)
    point25 = [r for r in table.rows if r.sweep_value == 25.0]
    assert len(point25) == 5
    assert all(r.failures == 0 for r in table.rows)
    assert all(r.nmse < 1e-12 for r in table.rows)


def test_run_sweep_metadata_keys(cfg):
    table = run_sweep(cfg, {"snr_db": [15.0]}, trials=1, master_seed=6,
                      mode=ChannelMode.FRESNEL)
    assert set(table.metadata) == {"nmse_definition", "mode",
                                   "trials_per_point", "master_seed",
                                   "snr_db"}
    assert table.metadata["mode"] == "fresnel"
    assert table.metadata["trials_per_point"] == 1


# ------------------------------------------------------------- serialization

def test_nmse_table_csv_format(cfg):
    table = run_sweep(cfg, {"snr_db": [10.0], "K": [5]}, trials=2,
                      master_seed=4, mode=ChannelMode.FRESNEL)
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == "sweep_var,sweep_value,param,nmse,trials,failures,seed"
    assert len(lines) == 1 + len(table.rows)
    assert text.endswith("\n")
    for line, row in zip(lines[1:], table.rows):
        fields = line.split(",")
        assert len(fields) == 7
        # integral sweep values print as ints, nmse round-trips exactly
        assert fields[1] == str(int(row.sweep_value))
        assert float(fields[3]) == row.nmse
        assert fields[4:] == [str(row.trials), str(row.failures), str(row.seed)]


def test_nmse_table_json_obj(cfg):
    table = run_sweep(cfg, {"K": [5]}, trials=1, master_seed=8,
                      mode=ChannelMode.FRESNEL)
    obj = table.to_json_obj()
    assert set(obj) == {"metadata", "rows"}
    assert len(obj["rows"]) == 5
    assert obj["rows"][0]["sweep_var"] == "K"
    assert set(obj["rows"][0]) == {"sweep_var", "sweep_value", "param", "nmse",
                                   "trials", "failures", "seed"}
