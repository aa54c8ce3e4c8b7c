"""Config file parsing, CLI commands and exit codes, self-check suite."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rispose.cli as cli_mod
from rispose.channel import ChannelMode, ris_ue_channel
from rispose.cli import main
from rispose.config import (_RUN_KEYS, _SWEEP_KEYS, _SYSTEM_KEYS, ConfigError,
                            RunConfig, parse_config)
from rispose.estimator import distance_shift
from rispose.geometry import SystemConfig
from rispose.montecarlo import PARAMS, TrialResult, run_sweep
from rispose.validate import run_validation

COMPACT = """\
m = 3
k = 5
n_x = 5
n_y = 5
p = 25
l = 8
mode = fresnel
snr_db = inf
"""

FULL = """\
# every key exercised once
m = 5
k = 5
n_x = 5
n_y = 7
p = 70
l = 9
wavelength = 0.33
d_u = 0.165
d_b = 0.165
d_x = 0.0825
d_y = 0.0825
theta_bs_deg = 25.0
theta_ris_deg = 42.0
phi_ris_deg = 55.0
mode = fresnel
trials = 12
master_seed = 3
snr_db = inf
sweep_snr_db = 0, 10.5, 20
sweep_n = 25, 49
sweep_k = 5, 7
sweep_p = 70, 140
out = results.csv
format = json
"""


# --------------------------------------------------------------------- config

def test_parse_empty_equals_defaults():
    assert parse_config("") == RunConfig()
    assert parse_config("# only a comment\n\n") == RunConfig()
    # RunConfig and SystemConfig each write the system defaults
    assert RunConfig().system == SystemConfig()


def test_parse_full_and_round_trip():
    rc = parse_config(FULL)
    assert rc.mode is ChannelMode.FRESNEL
    assert rc.snr_db == math.inf
    assert rc.grid["snr_db"] == [0.0, 10.5, 20.0]
    assert rc.out_format == "json"


def test_documented_keys_match_parser():
    # FULL and README's key table each list exactly the accepted keys
    accepted = set(_SYSTEM_KEYS) | set(_SWEEP_KEYS) | set(_RUN_KEYS)
    assert len(accepted) == 24
    full = [line.split("=")[0].strip() for line in FULL.splitlines()
            if not line.startswith("#")]
    assert sorted(full) == sorted(accepted)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    table = readme.split("All keys with defaults:", 1)[1].split("\n\n")[1]
    documented = [key for row in table.splitlines()[2:]
                  for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(accepted)


def test_parse_inline_comments_and_spacing():
    rc = parse_config("m = 5   # BS antennas\n\n  trials=7\n")
    assert rc.system.m_bs == 5 and rc.trials == 7


def test_profile_count_defaults_to_ris_size():
    rc = parse_config("n_x = 5\nn_y = 7\nk = 5\nl = 8\n")
    assert rc.system.p_profiles == 35


def test_parse_error_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("m = 9\nk = 11\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="line 2.*duplicate"):
        parse_config("m = 9\nm = 7\n")
    with pytest.raises(ConfigError, match="line 1.*key = value"):
        parse_config("just words\n")
    with pytest.raises(ConfigError, match="line 1.*invalid value"):
        parse_config("m = abc\n")
    # alias keys share the underlying field for duplicate detection
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("format = csv\nformat = json\n")


def test_invalid_settings_rejected():
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = quantum\n")
    with pytest.raises(ConfigError, match="format"):
        parse_config("format = yaml\n")
    with pytest.raises(ConfigError, match="trials"):
        parse_config("trials = 0\n")
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config("master_seed = -1\n")
    with pytest.raises(ConfigError):
        parse_config("k = 4\n")  # UE antenna count must be odd
    # NaN and -inf define no noise level; +inf stays the noiseless setting
    for text in ("snr_db = nan\n", "snr_db = -inf\n",
                 "sweep_snr_db = 0, nan\n", "sweep_snr_db = -inf, 10\n"):
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config(text)
    assert parse_config("snr_db = inf\n").snr_db == math.inf
    # lengths and angles must be finite, and so must the near-field window
    # and the UE array's far-field distance; the spacings must keep every
    # phase the estimator reads wrap-free
    for text, key in (("d_x = inf\n", "d_x"),
                      ("wavelength = nan\n", "wavelength"),
                      ("theta_bs_deg = inf\n", "theta_bs"),
                      ("phi_ris_deg = nan\n", "phi_ris"),
                      ("d_x = 1e200\n", "near-field"),
                      ("wavelength = 1e-320\n", "near-field"),
                      ("d_u = 1e154\n", "d_u"), ("d_u = 1e300\n", "d_u"),
                      ("d_u = 1e152\n", "distance wrap rule"),
                      ("d_x = 0.165\n", "direction wrap rule"),
                      ("n_x = 3\nn_y = 3\n", "distance wrap rule")):
        with pytest.raises(ConfigError, match=key):
            parse_config(text)
    # every sweep value must give a valid grid-point config
    for text, match in (("sweep_n = 50\n", "odd square"), ("sweep_k = 4\n", "k_ue"),
                        ("sweep_p = 10\n", "p_profiles"),
                        ("sweep_n = 25, 9\n", "distance wrap rule"),
                        ("sweep_snr_db = 10\nsweep_k = 4\n", "k_ue")):
        with pytest.raises(ConfigError, match=match):
            parse_config(text)


def test_system_unit_conversion():
    cfg = parse_config("theta_bs_deg = 30.0\n").system
    assert cfg.theta_bs == pytest.approx(math.radians(30.0), abs=1e-15)


def test_sweep_grid_contents():
    assert RunConfig().grid == {}
    rc = parse_config("sweep_k = 5, 7\nsweep_snr_db = 10\n")
    assert rc.grid == {"snr_db": [10.0], "K": [5, 7]}


# ----------------------------------------------------------------------- CLI

@pytest.fixture
def compact_cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(COMPACT)
    return str(path)


def test_cli_estimate_noiseless(compact_cfg_file, capsys):
    code = main(["estimate", "--config", compact_cfg_file,
                 "--pose", "2.5,70,35,110,45"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"true", "estimate", "sq_rel_err", "mode", "snr_db",
                           "near_field_bounds_m", "units"}
    assert report["true"]["theta"] == pytest.approx(70.0, abs=1e-9)
    for name in ("r", "theta", "phi", "psi", "gamma"):
        assert report["estimate"][name] == pytest.approx(report["true"][name],
                                                         abs=1e-6)
    assert all(report["sq_rel_err"][p] < 1e-12 for p in PARAMS)


def test_cli_estimate_sampled_pose(compact_cfg_file, capsys):
    code = main(["estimate", "--config", compact_cfg_file, "--seed", "5"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 5
    assert "estimate" in report


def test_cli_estimate_is_trial_zero_of_snr_sweep(compact_cfg_file, capsys):
    # estimate --seed s --snr-db x draws the pose and the noise of trial 0
    # of a one-point SNR sweep, from two distinct streams
    assert main(["estimate", "--config", compact_cfg_file, "--seed", "5",
                 "--snr-db", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    rc = parse_config(COMPACT)
    table = run_sweep(rc.system, {"snr_db": [10.0]}, trials=1, master_seed=5,
                      mode=rc.mode)
    assert report["sq_rel_err"] == {row.param: row.nmse for row in table.rows}


def test_cli_estimate_out_of_window_warns(compact_cfg_file, capsys):
    code = main(["estimate", "--config", compact_cfg_file,
                 "--pose", "100,70,35,110,45"])
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err
    assert "near-field" in captured.err
    assert "wrap" not in captured.err
    # below 2 d_u^2 / wavelength = 0.165 m the warning names the wrap rule too
    main(["estimate", "--config", compact_cfg_file, "--pose", "0.15,70,35,110,45"])
    captured = capsys.readouterr()
    assert "near-field" in captured.err and "distance wrap rule" in captured.err


def test_cli_estimate_failure_exit_code(compact_cfg_file, capsys, monkeypatch):
    def fake_trial(cfg, pose, snr_db, mode, rng):
        return TrialResult(estimate=None, squared_relative_error=None,
                           stage="distance")

    monkeypatch.setattr(cli_mod, "run_trial", fake_trial)
    code = main(["estimate", "--config", compact_cfg_file,
                 "--pose", "2.5,70,35,110,45"])
    captured = capsys.readouterr()
    assert code == 1
    assert "distance" in captured.err
    report = json.loads(captured.out)
    assert report["failed"] is True
    assert report["stage"] == "distance"


def test_cli_estimate_bad_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus_key = 1\n")
    assert main(["estimate", "--config", str(bad)]) == 2
    assert main(["estimate", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert main(["estimate", "--pose", "1,2,3"]) == 2  # wrong arity
    assert main(["estimate", "--pose", "2.5,70,0,110,45"]) == 2  # phi = 0
    assert main(["estimate", "--pose", "inf,70,35,110,45"]) == 2  # r = inf
    assert main(["estimate", "--snr-db", "nan"]) == 2
    assert main(["estimate", "--snr-db=-inf"]) == 2
    for text in ("d_x = inf\n", "theta_bs_deg = inf\n", "d_x = 1e200\n",
                 "d_u = 1e154\n", "d_u = 1e300\n"):
        bad.write_text(text)
        assert main(["estimate", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_cli_sweep_csv_and_repeatability(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(COMPACT + "sweep_snr_db = 10, 15\ntrials = 3\n"
                   "master_seed = 9\n"
                   f"out = {tmp_path / 'out.csv'}\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    first = (tmp_path / "out.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == "sweep_var,sweep_value,param,nmse,trials,failures,seed"
    assert len(lines) == 1 + 2 * len(PARAMS)
    assert "wrote 10 rows" in capsys.readouterr().out
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out.csv").read_bytes() == first
    capsys.readouterr()


def test_cli_sweep_json_format(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "out.json"
    cfg.write_text(COMPACT + "sweep_k = 5\ntrials = 2\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--snr-db", "12", "--format", "json"])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"metadata", "rows"}
    assert len(obj["rows"]) == len(PARAMS)
    capsys.readouterr()


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON token")


def test_cli_json_output_is_standard(tmp_path, capsys):
    # JSON has no token for a non-finite number: each is written as the
    # string the CSV holds, and a strict parser reads both commands' output
    assert main(["estimate", "--pose", "2.5,70,35,110,45", "--snr-db", "inf",
                 "--mode", "fresnel"]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report["snr_db"] == "inf"
    cfg = tmp_path / "sweep.cfg"
    out = tmp_path / "out.json"
    cfg.write_text(COMPACT + "sweep_snr_db = inf, -7000\ntrials = 2\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--format", "json"]) == 0
    obj = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert obj["metadata"]["snr_db"] == "inf"
    assert [r["sweep_value"] for r in obj["rows"]] == ["inf"] * 5 + [-7000.0] * 5
    assert all(r["nmse"] == "nan" and r["failures"] == 2 for r in obj["rows"][5:])
    capsys.readouterr()


def test_cli_sweep_without_axis_exit_2(compact_cfg_file, capsys):
    assert main(["sweep", "--config", compact_cfg_file]) == 0 + 2
    assert "no sweep axis" in capsys.readouterr().err


def test_cli_sweep_empty_axis_list_exit_2(tmp_path, capsys):
    # an empty value list adds no axis
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(COMPACT + "sweep_n =\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "no sweep axis" in capsys.readouterr().err


def test_cli_sweep_undefined_snr_exit_2(tmp_path, capsys):
    # a -inf grid point used to abort the whole sweep with a ValueError, and
    # a NaN operating SNR ran noiseless
    out = f"trials = 1\nout = {tmp_path / 'out.csv'}\n"
    snr_axis = tmp_path / "snr.cfg"
    snr_axis.write_text(COMPACT + "sweep_snr_db = 10, -inf\n" + out)
    assert main(["sweep", "--config", str(snr_axis)]) == 2
    k_axis = tmp_path / "k.cfg"
    k_axis.write_text(COMPACT + "sweep_k = 5\n" + out)
    assert main(["sweep", "--config", str(k_axis), "--snr-db", "nan"]) == 2
    assert capsys.readouterr().err.count("snr_db") == 2
    # a sweep value no grid-point config accepts fails before the first
    # trial, also behind a valid axis
    for axes, match in (("sweep_n = 50\n", "odd square"), ("sweep_k = 4\n", "k_ue"),
                        ("sweep_p = 10\n", "p_profiles"),
                        ("sweep_snr_db = 10\nsweep_k = 4\n", "k_ue"),
                        ("sweep_n = 9\n", "distance wrap rule"),
                        ("sweep_snr_db = 10\nd_x = 0.165\n", "direction wrap rule")):
        bad_axis = tmp_path / "bad_axis.cfg"
        bad_axis.write_text(COMPACT + axes + out)
        assert main(["sweep", "--config", str(bad_axis)]) == 2
        assert match in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_cli_sweep_names_rejected_value(tmp_path, capsys):
    # sweep_n = 25, 9 at the default spacings: N = 25 is valid and N = 9 breaks
    # the distance wrap rule; the message names the value
    cfg = tmp_path / "n.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(f"sweep_n = 25, 9\ntrials = 1\nout = {out}\n")
    assert main(["sweep", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sweep value N = 9: ")
    assert "distance wrap rule" in err
    assert not out.exists()


def test_cli_sweep_unwritable_output_exit_3(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(COMPACT + "sweep_snr_db = 10\ntrials = 1\n")
    code = main(["sweep", "--config", str(cfg), "--out",
                 str(tmp_path / "no_such_dir" / "out.csv")])
    assert code == 3
    assert "cannot write" in capsys.readouterr().err


# ------------------------------------------------------------------ validate

def test_validation_suite_all_green():
    results = run_validation()
    assert len(results) == 12
    assert all(r.passed for r in results), \
        [(r.name, r.detail) for r in results if not r.passed]


def test_validation_catches_model_corruption(monkeypatch):
    # a conjugated distance model flips every predicted phase; only the
    # distance identity check may trip
    corrupted = lambda k, r, cfg: complex(np.conj(distance_shift(k, r, cfg)))
    monkeypatch.setattr("rispose.validate.distance_shift", corrupted)
    results = run_validation()
    failed = [r.name for r in results if not r.passed]
    assert failed == ["distance shift identity"]
    monkeypatch.undo()

    # channel rows in a wrong element layout: y-major, or rolled by one row
    layouts = (lambda g: g.transpose(1, 0, 2),
               lambda g: np.roll(g.reshape(-1, g.shape[-1]), 1, axis=0))
    for layout in layouts:
        def misordered(pose, cfg, mode, layout=layout):
            a = ris_ue_channel(pose, cfg, mode)
            return layout(a.reshape(cfg.n_x, cfg.n_y, -1)).reshape(a.shape)

        monkeypatch.setattr("rispose.validate.ris_ue_channel", misordered)
        failed = {r.name for r in run_validation() if not r.passed}
        assert {"direction shift identity", "orientation shift identity"} <= failed


def test_cli_module_run_validates():
    # ``python -m rispose.cli`` runs the CLI as the installed script does
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-m", "rispose.cli", "validate"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "12/12 checks passed" in proc.stdout


def test_cli_validate_pass_and_fail(capsys, monkeypatch):
    start = time.perf_counter()
    assert main(["validate"]) == 0
    assert time.perf_counter() - start < 60.0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "12/12 checks passed" in out

    from rispose.validate import CheckResult
    monkeypatch.setattr(cli_mod, "run_validation",
                        lambda: [CheckResult("probe", False, "broken")])
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] probe" in out
    assert "0/1 checks passed" in out
