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


@pytest.mark.parametrize(
    "line",
    [
        "sigma_d = 0", "rho = -1", "n_steps = 0", "mask_decay = 1.5", "epsilon = 1",
        "variants = unimodal:x", "delays =",
        "sigma_cond = -1", "sigma_cond = nan", "ctrl_frac = 2",
    ],
)
def test_invalid_guidance_config_fails_before_output(tmp_path, capsys, line):
    cfg = write_config(tmp_path, extra=line + "\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:no rtc rows present")
def test_overrun_threshold_exit_code(tmp_path):
    cfg = write_config(tmp_path, extra="")
    code = main(["sweep", "--config", str(cfg), "--delays", "9", "--methods", "naive"])
    assert code == 2


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
    assert all(line.startswith("PASS") for line in lines)
