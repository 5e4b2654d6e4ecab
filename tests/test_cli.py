import re
import runpy
import sys
from pathlib import Path

import pytest

from guidedflow.cli import main


def write_config(tmp_path, extra=""):
    text = (
        "methods = naive, rtc\n"
        "delays = 0,2\n"
        "episodes_per_cell = 3\n"
        "variants = unimodal:1\n"
        "max_steps = 12\n"
        f"output_dir = {tmp_path / 'out'}\n"
    ) + extra
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    return path


def test_sweep_roundtrip_and_summarize(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg)]) == 0
    rows = tmp_path / "out" / "rows.csv"
    summary = tmp_path / "out" / "summary.json"
    assert rows.exists() and summary.exists()
    first = rows.read_bytes()
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert rows.read_bytes() == first

    out_file = tmp_path / "resummary.json"
    code = main(
        ["summarize", "--config", str(cfg), "--rows", str(rows), "--out-file", str(out_file)]
    )
    assert code == 0
    assert out_file.read_bytes() == summary.read_bytes()


@pytest.mark.filterwarnings("ignore:no rtc rows present")
def test_cli_flag_overrides(tmp_path):
    cfg = write_config(tmp_path)
    out2 = tmp_path / "other"
    code = main(
        [
            "sweep", "--config", str(cfg), "--methods", "naive", "--delays", "1",
            "--episodes", "2", "--seed-base", "5", "--out", str(out2),
        ]
    )
    assert code == 0
    rows = (out2 / "rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 2  # header + 1 method x 1 delay x 1 variant x 2 episodes


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.cfg")]) == 1
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--methods", "bogus"]) == 1
    assert main(["sweep", "--config", str(cfg), "--seed-base", "-1"]) == 1
    assert main(["grid-sigma", "--config", str(cfg), "--grid", "inf"]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line",
    [
        "sigma_d = 0", "rho = -1", "n_steps = 0", "mask_decay = 1.5", "epsilon = 1",
        "variants = unimodal:x", "delays =",
        "sigma_cond = -1", "sigma_cond = nan", "sigma_cond = 1e300", "ctrl_frac = 2",
        "action_noise_std = -1", "action_noise_std = nan", "max_steps = 0", "max_steps = -5",
        "goal_tolerance = nan", "goal_tolerance = -1", "overrun_fail_fraction = nan",
        "overrun_fail_fraction = 0.25", "delays = 6", "horizon = 3",
        "methods = potr,potr", "delays = 1,1", "variants = unimodal:9.7",
        "seed_base = -1", "sigma_d = inf",
        "beta = 10", "epsilon = 1e-08", "guide_first_step = false",
        "n_steps = 2.5", "n_steps = abc",
    ],
)
def test_invalid_guidance_config_fails_before_output(tmp_path, capsys, line):
    cfg = write_config(tmp_path, extra=line + "\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert not (tmp_path / "out").exists()


GOLDEN_HEADER = (Path(__file__).parent / "golden" / "rows.csv").read_text().splitlines()[0]
GOOD_RECORD = "potr,1,bimodal,0,1,30,0.25,0.5,1.5,3.0"


@pytest.mark.parametrize(
    "record",
    [
        "potr,1,bimodal,0,1,30,0.25",  # 7 fields
        GOOD_RECORD + ",0.0",  # 11 fields
        "potr,1.5,bimodal,0,1,30,0.25,0.5,1.5,3.0",  # an integer that does not parse
        "potr,1,bimodal,0,1,30,abc,0.5,1.5,3.0",  # a float that does not parse
        "potr,1,bimodal,0,7,30,0.25,0.5,1.5,3.0",  # success other than 0 or 1
        "zzz,1,bimodal,0,1,30,0.25,0.5,1.5,3.0",  # an unknown method
        "potr,-4,bimodal,0,7,30,0.25,0.5,1.5,3.0",  # a negative delay
        "potr,1,bimodal,-1,1,30,0.25,0.5,1.5,3.0",  # a negative seed
        "potr,1,bimodal,0,1,-30,0.25,0.5,1.5,3.0",  # negative env_steps
        "potr,1,bimodal,0,1,30,nan,0.5,1.5,3.0",  # non-finite metrics
        "potr,1,bimodal,0,1,30,0.25,inf,1.5,3.0",
        "potr,1,bimodal,0,1,30,0.25,0.5,1.5,-inf",
    ],
)
def test_malformed_row_file_fails_at_the_boundary(tmp_path, capsys, record):
    rows = tmp_path / "rows.csv"
    rows.write_text(f"{GOLDEN_HEADER}\n{GOOD_RECORD}\n{record}\n")
    out_file = tmp_path / "summary.json"
    assert main(["summarize", "--rows", str(rows), "--out-file", str(out_file)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {rows}:3: ")
    assert not out_file.exists()


@pytest.mark.parametrize("delay", ["6", "9"])
def test_unschedulable_delay_fails_before_output(tmp_path, capsys, delay):
    # Under s = max(d, 1) a delay above H / 2 = 5 would exhaust a chunk
    # before its replacement arrives.
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--delays", delay, "--methods", "naive"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert f"d={delay}, s={delay}, H=10" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["grid-sigma", "grid-rho"])
def test_grid_delay_that_cannot_run_fails_before_output(tmp_path, capsys, command):
    # The grids run at delay 3, which needs horizon >= 6 under s = 3.
    cfg = write_config(tmp_path, extra="horizon = 5\n")
    assert main([command, "--config", str(cfg), "--grid", "0.5"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "d=3, s=3, H=5" in err[0]
    assert not (tmp_path / "out").exists()


def test_python_dash_m_runs_the_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # An earlier import of guidedflow.__main__ would make runpy warn.
    monkeypatch.delitem(sys.modules, "guidedflow.__main__", raising=False)
    for argv, code in ((["--help"], 0), (["sweep", "--delays", "9"], 1)):
        monkeypatch.setattr(sys, "argv", ["guidedflow", *argv])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("guidedflow", run_name="__main__")
        assert exit_info.value.code == code
    assert capsys.readouterr().err.startswith("configuration error:")
    assert list(tmp_path.iterdir()) == []


def test_grid_subcommands(tmp_path, capsys):
    cfg = write_config(tmp_path, extra="delays = 3\nepisodes_per_cell = 2\n")
    assert main(["grid-sigma", "--config", str(cfg), "--grid", "0.4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "sigma_d,success,steps,l2_m,l2_M,acc,jerk"
    assert (tmp_path / "out" / "grid_sigma.csv").exists()

    assert main(["grid-rho", "--config", str(cfg), "--grid", "0.5,inf"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rho,success,steps,l2_m,l2_M,acc,jerk"
    assert (tmp_path / "out" / "grid_rho.csv").exists()


@pytest.mark.slow
def test_verify_subcommand(capsys):
    assert main(["verify", "--fast"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) == 8
    # Each line names its check and its wall time: "PASS weight-table (0.01 s): ...".
    assert all(re.fullmatch(r"PASS [a-z-]+ \(\d+\.\d\d s\): .+", line) for line in lines)
