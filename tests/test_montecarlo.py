"""Monte Carlo driver: trials, seed derivation, sweeps, NMSE aggregation."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import rispose
import rispose.estimator as est_mod
import rispose.montecarlo as mc_mod
from rispose.channel import ChannelMode, ris_ue_channel, sound_and_recover
from rispose.estimator import estimate_pose_from_channel
from rispose.geometry import Pose, SystemConfig, poses_from_uniforms, sample_pose
from rispose.montecarlo import (AXIS_CODES, PARAMS, NmseTable, grid_points,
                                pose_seed, run_sweep, run_trial, trial_seed)


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
    # every stage passes, but one estimate is infinite: the trial fails at
    # "nonfinite" and keeps its estimate
    def infinite_theta(a, cfg):
        estimates, stage = estimate_pose_from_channel(a, cfg)
        estimates[:, 1] = math.inf
        return estimates, stage

    monkeypatch.setattr(mc_mod, "estimate_pose_from_channel", infinite_theta)
    result = run_trial(cfg, pose, math.inf, ChannelMode.FRESNEL,
                       np.random.default_rng(0))
    assert result.failed
    assert result.stage == "nonfinite"
    assert result.squared_relative_error is None
    assert result.estimate.theta_hat == math.inf
    assert result.estimate.r_hat == pytest.approx(pose.r, rel=1e-9)


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
TRIAL_PATH_MODULES = ("channel.py", "estimator.py", "montecarlo.py")
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
    # a sweep estimates stacks of trials; on a stack a stage marks each
    # failed trial with NaN instead of raising
    def boom(b, cfg):
        return np.full(len(b), np.nan)

    monkeypatch.setattr(est_mod, "estimate_distance", boom)
    table = run_sweep(cfg, {"snr_db": [15.0]}, trials=4, master_seed=1)
    for row in table.rows:
        assert row.failures == 4
        assert math.isnan(row.nmse)


def test_run_sweep_input_validation(cfg, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("trials run before the grid was checked")

    monkeypatch.setattr(mc_mod, "_run_trials", no_trial)
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
    # a count axis rejects a value that int() would truncate
    for grid in ({"K": [5.5]}, {"P": [60.9]}, {"N": [49.0000001]},
                 {"snr_db": [10.0], "K": [5, 7.25]}, {"K": [math.inf]}):
        with pytest.raises(ValueError, match="integer"):
            run_sweep(cfg, grid, trials=2, master_seed=1)


def test_run_sweep_checks_snr_before_any_trial(cfg, monkeypatch):
    # a NaN or -inf SNR, on the axis or as the operating SNR, used to run
    # every trial before it until the first one at that SNR raised
    def no_trial(*args, **kwargs):
        raise AssertionError("trials ran before the SNR was checked")

    monkeypatch.setattr(mc_mod, "_run_trials", no_trial)
    for grid, snr_db in (({"snr_db": [10, 20, math.nan]}, 15.0),
                         ({"snr_db": [-math.inf]}, 15.0),
                         ({"K": [5]}, math.nan), ({"K": [5]}, -math.inf)):
        with pytest.raises(ValueError, match="snr_db"):
            run_sweep(cfg, grid, trials=2, master_seed=0, snr_db=snr_db)


def test_grid_points_name_the_rejected_value():
    # with several values on an axis, the error says which one was rejected
    cfg = SystemConfig()
    for grid, message in (({"N": [25, 9]}, "sweep value N = 9: the near-field window"),
                          ({"N": [25, 49, 50]}, "sweep value N = 50: the RIS size"),
                          ({"snr_db": [10.0], "K": [5, 4]}, "sweep value K = 4: k_ue"),
                          ({"P": [121, 10]}, "sweep value P = 10: p_profiles"),
                          ({"K": [7.25]}, "sweep value K = 7.25: the axis needs integer"),
                          ({"snr_db": [10.0, math.nan]}, "sweep value snr_db = nan: the SNR"),
                          ({"snr_db": [-math.inf]}, "sweep value snr_db = -inf: the SNR")):
        with pytest.raises(ValueError) as exc:
            grid_points(cfg, grid)
        assert str(exc.value).startswith(message), str(exc.value)


def trial_loop_rows(cfg_base, grid, trials, master_seed, snr_db, mode):
    """(nmse, failures) per (axis, value, param) from one ``run_trial`` per trial."""
    rows = {}
    for axis, value, cfg, snr_override in grid_points(cfg_base, grid):
        point_snr = snr_db if snr_override is None else snr_override
        errors = []
        for t in range(trials):
            pose = sample_pose(np.random.default_rng(pose_seed(master_seed, t)), cfg)
            rng = np.random.default_rng(trial_seed(master_seed, axis, value, t))
            result = run_trial(cfg, pose, point_snr, mode, rng)
            if not result.failed:
                errors.append([result.squared_relative_error[p] for p in PARAMS])
        nmse = np.mean(errors, axis=0) if errors else np.full(len(PARAMS), np.nan)
        for p, value_p in zip(PARAMS, nmse):
            rows[axis, float(value), p] = (float(value_p), trials - len(errors))
    return rows


@pytest.mark.parametrize("mode", list(ChannelMode))
def test_run_sweep_matches_trial_loop(mode, monkeypatch):
    # a sweep runs its trials as stacks of T, and run_trial is a stack of
    # one: T must not change any trial's result, up to the rounding of
    # numpy's SIMD complex multiply
    trials = 41
    sweeps = (
        # at N = 225, 0 and -10 dB fail some trials (about 1% and 5% in
        # Fresnel mode); -6160 dB overflows every trial's noise
        (SystemConfig(n_x=15, n_y=15), {"snr_db": [0.0, -10.0]}, 15.0),
        (SystemConfig(n_x=7, n_y=7), {"snr_db": [-6160.0], "K": [11, 15]}, 0.0),
        # the near-field window differs per grid point; the pose uniforms do not
        (SystemConfig(), {"N": [25, 49]}, 10.0),
    )
    # trials 5 and 40 fail in whatever stack they land in: their channel is
    # NaN.  They are found by theta, which the shared pose uniforms fix at
    # every grid point.
    bad_theta = [poses_from_uniforms(np.random.default_rng(pose_seed(4, t)).random(5),
                                     SystemConfig())[1] for t in (5, 40)]

    def nan_channels(poses, cfg, mode):
        a = ris_ue_channel(poses, cfg, mode)
        a[np.isin(poses[..., 1], bad_theta)] = np.nan
        return a

    monkeypatch.setattr(mc_mod, "ris_ue_channel", nan_channels)
    failures = 0
    for cfg, grid, snr_db in sweeps:
        for _, _, point_cfg, _ in grid_points(cfg, grid):
            chunk = mc_mod._chunk_size(point_cfg)
            assert chunk > 1 and trials % chunk != 0
        table = run_sweep(cfg, grid, trials, master_seed=4, snr_db=snr_db, mode=mode)
        expected = trial_loop_rows(cfg, grid, trials, 4, snr_db, mode)
        assert len(table.rows) == len(expected)
        for row in table.rows:
            nmse, row_failures = expected[row.sweep_var, row.sweep_value, row.param]
            assert row.failures == row_failures
            if row.sweep_value == -6160.0:
                assert row.failures == trials and math.isnan(row.nmse)
            else:
                assert row.nmse == pytest.approx(nmse, rel=1e-9)
                assert row.failures >= 2
                failures += row.failures
    assert failures > 0  # a stack with some failed trials was exercised


def test_stack_with_failed_trials(cfg):
    # a NaN channel, one that fails the distance stage and two that fail the
    # direction stage, inside a stack: each fails at its own stage, keeps the
    # values of the stages it passed, and every trial matches its stack of
    # one; no RuntimeWarning (the suite turns those into errors)
    poses = np.array([sample_pose(np.random.default_rng([3, t]), cfg).as_tuple()
                      for t in range(7)])
    a = sound_and_recover(ris_ue_channel(poses, cfg, ChannelMode.FRESNEL), cfg, 20.0,
                          [np.random.default_rng([4, t]) for t in range(7)])
    a[1, 3, 2] = np.nan
    a[4] = 1.0
    # a phase on the columns only: the column pairs give a distance, but every
    # row pair of the direction transform is equal, so both direction phases
    # vanish.  With phases 0 or pi/2 the products are exact; with a distance
    # phase they are zero up to rounding (about 1e-34 here)
    a[2] = np.where(cfg.antenna_offsets() % 2 == 0, 1, 1j)
    k = cfg.antenna_offsets()
    a[6] = np.exp(-1j * np.pi * k ** 2 * cfg.d_u ** 2 / (cfg.wavelength * 2.0))
    estimates, stage = estimate_pose_from_channel(a, cfg)
    assert list(stage) == [None, "nonfinite", "direction", None, "distance", None,
                           "direction"]
    assert np.isnan(estimates[[1, 4]]).all()
    assert (estimates[[2, 6], 0] > 0).all() and np.isnan(estimates[[2, 6], 1:]).all()
    assert np.isfinite(estimates[[0, 3, 5]]).all()
    for t in range(7):
        one, one_stage = estimate_pose_from_channel(a[t:t + 1], cfg)
        assert one_stage[0] == stage[t]
        # NaN where the stack's row holds NaN, equal values elsewhere
        np.testing.assert_allclose(estimates[t], one[0], rtol=1e-12)
    # the NaN channel draws no noise and leaves its generator untouched;
    # the others get their own generator's noise
    rngs = [np.random.default_rng([5, t]) for t in range(7)]
    noisy = sound_and_recover(a, cfg, 10.0, rngs)
    assert np.isnan(noisy[1, 3, 2])
    assert rngs[1].standard_normal() == np.random.default_rng([5, 1]).standard_normal()
    for t in (0, 2, 3, 4, 5, 6):
        one = sound_and_recover(a[t:t + 1], cfg, 10.0, [np.random.default_rng([5, t])])
        np.testing.assert_allclose(noisy[t], one[0], rtol=1e-12, atol=1e-12)


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
