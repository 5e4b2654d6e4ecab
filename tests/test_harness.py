import gc
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from guidedflow import guidance
from guidedflow.envs import Observation, default_variants, make_field
from guidedflow.errors import ConfigError
from guidedflow.guidance import InpaintTarget, guided_denoise
from guidedflow.harness import (
    DEFAULT_RHO_GRID,
    DEFAULT_SIGMA_GRID,
    RHO_GRID_HEADER,
    ROW_HEADER,
    SIGMA_GRID_HEADER,
    ExperimentConfig,
    ResultRow,
    grid_search_rho,
    grid_search_sigma,
    load_config,
    read_rows,
    run_sweep,
    summarize,
    write_rows,
)


def small_config(tmp_path, **kwargs):
    base = dict(
        methods=("naive", "rtc", "pc", "potr"),
        delays=(0, 1, 2, 3, 4, 5),
        episodes_per_cell=10,
        variants=(("unimodal", 1),),
        max_steps=12,
        output_dir=str(tmp_path / "out"),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def synthetic_rows(method, l2_max, n=4):
    return [
        ResultRow(
            method=method, delay=d, suite="unimodal", seed=0, success=True,
            env_steps=30, l2_mean=0.1, l2_max=l2_max, max_acc=1.0, max_jerk=2.0,
        )
        for d in range(1, n + 1)
    ]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_cardinality_and_determinism(tmp_path):
    config = small_config(tmp_path)
    result = run_sweep(config)
    assert len(result.rows) == 4 * 6 * 1 * 10
    keys = {(r.method, r.delay, r.suite, r.seed) for r in result.rows}
    assert len(keys) == len(result.rows)
    first = result.rows_path.read_bytes()
    rerun = run_sweep(config)
    assert result.rows_path.read_bytes() == first
    assert rerun.summary == result.summary


@pytest.mark.filterwarnings("ignore:no rtc rows present")
def test_sweep_single_cell_row_flags(tmp_path):
    config = small_config(tmp_path, methods=("naive",), delays=(0,), episodes_per_cell=1)
    result = run_sweep(config, write=False)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert result.summary["aggregated_delays"] == []  # delay 0 never enters aggregates
    assert row.l2_mean >= 0.0 and row.l2_max >= row.l2_mean


def test_row_file_round_trip(tmp_path):
    config = small_config(tmp_path, methods=("naive", "rtc"), delays=(1, 3), episodes_per_cell=3)
    result = run_sweep(config)
    assert result.rows_path.exists() and result.summary_path.exists()
    header = result.rows_path.read_text().splitlines()[0]
    assert header == ",".join(ROW_HEADER)
    assert read_rows(result.rows_path) == result.rows
    json.loads(result.summary_path.read_text())


def test_write_rows_sorted(tmp_path):
    rows = [
        ResultRow("rtc", 2, "unimodal", 1, True, 10, 0.1, 0.2, 0.3, 0.4),
        ResultRow("naive", 1, "unimodal", 0, False, 12, 0.5, 0.6, 0.7, 0.8),
    ]
    path = tmp_path / "rows.csv"
    write_rows(rows, path)
    parsed = read_rows(path)
    assert [r.method for r in parsed] == ["naive", "rtc"]


def test_read_rows_across_blocks_names_the_bad_line(tmp_path):
    # read_rows parses 512 records at a time; the bad record sits in the third block.
    rows = [
        ResultRow("pc", i % 6, "unimodal", i, i % 3 == 0, 10 + i % 50, 0.1 * i, 0.2, 0.3, 0.4)
        for i in range(1200)
    ]
    path = tmp_path / "rows.csv"
    write_rows(rows, path)
    assert read_rows(path) == sorted(rows, key=ResultRow.sort_key)
    lines = path.read_text().splitlines()
    fields_1100 = lines[1099].split(",")
    lines[1099] = ",".join(fields_1100[:1] + ["-4"] + fields_1100[2:])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=r"rows\.csv:1100: delay must be a non-negative integer"):
        read_rows(path)
    path.write_text("\n".join(lines[:1]) + "\n")
    assert read_rows(path) == []


def test_paired_seeding_is_method_independent(tmp_path):
    # Guidance fully masked (s = H) must reproduce naive exactly, which can
    # only happen if both methods consume identical noise streams.
    from guidedflow.harness import run_cell_episode
    from guidedflow.envs import default_variants

    config = small_config(tmp_path, max_steps=20)
    variant = default_variants()[0]
    _, a = run_cell_episode(config, "naive", 0, variant, 0, 4, replan_every=10)
    _, b = run_cell_episode(config, "potr", 0, variant, 0, 4, replan_every=10)
    assert np.array_equal(a.actions, b.actions)


def test_unwritable_output_fails_before_any_episode(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("")  # a file where the output directory should go
    config = small_config(tmp_path, output_dir=str(blocker / "out"))
    with pytest.raises(OSError):
        run_sweep(config)


def test_delays_above_half_the_horizon_are_config_errors():
    # s = max(d, 1) runs only while d + s <= H.
    assert ExperimentConfig(delays=(5,), horizon=10).delays == (5,)
    for delays in ((6,), (0, 1, 9)):
        with pytest.raises(ConfigError, match=f"d={delays[-1]}, s={delays[-1]}, H=10"):
            ExperimentConfig(delays=delays, horizon=10)


# ---------------------------------------------------------------------------
# summary


def test_summary_delta_row_matches_relative_change():
    rows = synthetic_rows("rtc", 1.446) + synthetic_rows("potr", 1.120)
    summary = summarize(rows, {"unimodal": 1})
    delta = summary["vs_rtc"]["potr"]["l2_max"]
    assert delta == pytest.approx(-22.5, abs=0.05)


def test_summary_identical_rows_zero_delta():
    rows = synthetic_rows("rtc", 1.0) + synthetic_rows("potr", 1.0)
    summary = summarize(rows, {"unimodal": 1})
    assert summary["vs_rtc"]["potr"]["l2_max"] == pytest.approx(0.0, abs=1e-12)


def test_summarize_leaves_no_reference_cycle():
    # Garbage that only the cyclic collector frees would pile up between collections.
    rows = synthetic_rows("rtc", 1.0) + synthetic_rows("potr", 2.0)
    gc.collect()
    gc.disable()
    try:
        summarize(rows, {"unimodal": 1})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_summary_without_rtc_warns_and_omits_delta():
    rows = synthetic_rows("potr", 1.0)
    with pytest.warns(UserWarning):
        summary = summarize(rows, {"unimodal": 1})
    assert "vs_rtc" not in summary
    assert "potr" in summary["methods"]


def test_summary_excludes_delay_zero_and_uses_weights():
    rows = [
        ResultRow("naive", 0, "unimodal", 0, True, 10, 9.9, 9.9, 9.9, 9.9),
        ResultRow("naive", 1, "unimodal", 0, True, 10, 0.2, 0.2, 1.0, 1.0),
        ResultRow("naive", 1, "bimodal", 0, True, 10, 0.4, 0.4, 1.0, 1.0),
    ]
    with pytest.warns(UserWarning):
        summary = summarize(rows, {"unimodal": 1, "bimodal": 9})
    assert summary["aggregated_delays"] == [1]
    assert summary["methods"]["naive"]["l2_mean"] == pytest.approx((0.2 + 9 * 0.4) / 10)
    # An integral float weight counts as its integer.
    with pytest.warns(UserWarning):
        assert summarize(rows, {"unimodal": 1.0, "bimodal": 9.0}) == summary
    assert summary["suite_weights"] == {"bimodal": 9, "unimodal": 1}


def test_summary_worst_case_block():
    rows = [
        ResultRow("naive", 1, "unimodal", 0, True, 10, 0.1, 0.5, 1.0, 3.0),
        ResultRow("naive", 1, "bimodal", 0, True, 10, 0.3, 0.9, 2.0, 5.0),
    ]
    with pytest.warns(UserWarning):
        summary = summarize(rows, {"unimodal": 1, "bimodal": 1})
    block = summary["worst_case"]["naive"]
    assert block["worst_max_jerk"] == pytest.approx(5.0)
    assert block["worst_l2_max"] == pytest.approx(0.9)


def test_summary_env_steps_over_successes_only():
    rows = [
        ResultRow("naive", 1, "unimodal", 0, True, 10, 0.0, 0.0, 0.0, 0.0),
        ResultRow("naive", 1, "unimodal", 1, False, 60, 0.0, 0.0, 0.0, 0.0),
    ]
    with pytest.warns(UserWarning):
        summary = summarize(rows, {"unimodal": 1})
    assert summary["methods"]["naive"]["env_steps"] == pytest.approx(10.0)
    assert summary["methods"]["naive"]["success"] == pytest.approx(0.5)


def test_summary_missing_cell_and_all_failed_suite():
    # rtc has no bimodal cell at delay 2, every bimodal episode fails, and
    # naive has only delay-0 rows, so it has no value anywhere.
    rows = [
        ResultRow("rtc", 0, "unimodal", 0, True, 5, 9.0, 9.0, 9.0, 9.0),
        ResultRow("rtc", 1, "unimodal", 0, True, 10, 0.1, 0.2, 1.0, 2.0),
        ResultRow("rtc", 1, "unimodal", 1, True, 20, 0.3, 0.4, 3.0, 4.0),
        ResultRow("rtc", 1, "bimodal", 0, False, 60, 0.5, 0.6, 5.0, 6.0),
        ResultRow("rtc", 1, "bimodal", 1, False, 60, 0.7, 1.0, 7.0, 10.0),
        ResultRow("rtc", 2, "unimodal", 0, False, 60, 0.4, 0.5, 4.0, 5.0),
        ResultRow("naive", 0, "unimodal", 0, True, 8, 1.0, 1.0, 1.0, 1.0),
    ]
    summary = summarize(rows, {"unimodal": 1, "bimodal": 3})
    assert summary["aggregated_delays"] == [1, 2]

    def block(success, env_steps, l2_mean, l2_max, max_acc, max_jerk):
        return dict(success=success, env_steps=env_steps, l2_mean=l2_mean, l2_max=l2_max,
                    max_acc=max_acc, max_jerk=max_jerk)

    # Cells (success, env_steps, l2_mean, l2_max, acc, jerk), weights 1 : 3:
    #   unimodal d1 (1, 15, 0.2, 0.3, 2, 3), d2 (0, nan, 0.4, 0.5, 4, 5)
    #   bimodal  d1 (0, nan, 0.6, 0.8, 6, 8), d2 missing
    assert summary["per_delay"]["rtc"]["1"] == pytest.approx(
        block(0.25, 15.0, 0.5, 0.675, 5.0, 6.75)
    )
    assert summary["per_delay"]["rtc"]["2"] == pytest.approx(
        block(0.0, None, 0.4, 0.5, 4.0, 5.0)
    )
    # Delay means per suite: unimodal (0.5, 15, 0.3, 0.4, 3, 4), bimodal as d1.
    assert summary["methods"]["rtc"] == pytest.approx(
        block(0.125, 15.0, 0.525, 0.7, 5.25, 7.0)
    )
    assert summary["worst_case"]["rtc"] == pytest.approx(
        dict(worst_l2_mean=0.6, worst_l2_max=0.8, worst_max_acc=6.0, worst_max_jerk=8.0)
    )
    empty = block(None, None, None, None, None, None)
    assert summary["methods"]["naive"] == empty
    assert summary["per_delay"]["naive"] == {"1": empty, "2": empty}
    assert summary["worst_case"]["naive"] == dict.fromkeys(
        ["worst_l2_mean", "worst_l2_max", "worst_max_acc", "worst_max_jerk"]
    )
    assert summary["vs_rtc"]["naive"] == empty


@pytest.mark.parametrize("weight", [9.7, float("nan"), float("inf"), 0, -3, "9"])
def test_summary_rejects_suite_weight_that_is_not_an_integer_from_one(weight):
    rows = [
        ResultRow("rtc", 1, "unimodal", 0, True, 10, 0.2, 0.2, 1.0, 1.0),
        ResultRow("rtc", 1, "bimodal", 0, True, 10, 0.4, 0.4, 1.0, 1.0),
    ]
    with pytest.raises(ConfigError, match="'bimodal'"):
        summarize(rows, {"unimodal": 1, "bimodal": weight})


# ---------------------------------------------------------------------------
# grids


def test_sigma_grid_schema_and_reduction(tmp_path):
    config = small_config(tmp_path, episodes_per_cell=4, delays=(3,))
    table = grid_search_sigma(config, grid=(1.0,))
    assert list(table[0].keys()) == SIGMA_GRID_HEADER
    csv_header = (tmp_path / "out" / "grid_sigma.csv").read_text().splitlines()[0]
    assert csv_header == ",".join(SIGMA_GRID_HEADER)
    # sigma_d = 1 reduces the prior-corrected weight to the unit-prior one,
    # so the pc grid row equals an rtc sweep on the same seeds.
    from guidedflow.harness import _run_cell, replace

    rtc_rows = _run_cell(replace(config, sigma_d=1.0), "rtc", 3)
    pc_rows = _run_cell(replace(config, sigma_d=1.0), "pc", 3)
    for a, b in zip(rtc_rows, pc_rows):
        assert (a.delay, a.suite, a.seed) == (b.delay, b.suite, b.seed)
        assert a.success == b.success and a.env_steps == b.env_steps
        assert a.l2_mean == b.l2_mean and a.max_jerk == b.max_jerk


def test_rho_grid_schema_and_inf_sentinel(tmp_path):
    config = small_config(tmp_path, episodes_per_cell=4, delays=(3,))
    table = grid_search_rho(config, grid=(0.5, math.inf))
    assert [list(r.keys()) for r in table] == [RHO_GRID_HEADER] * 2
    from guidedflow.harness import _run_cell, replace

    pc_rows = _run_cell(config, "pc", 3)
    potr_rows = _run_cell(replace(config, rho=math.inf), "potr", 3)
    for a, b in zip(pc_rows, potr_rows):
        assert (a.delay, a.suite, a.seed) == (b.delay, b.suite, b.seed)
        assert (a.success, a.env_steps, a.l2_mean, a.l2_max, a.max_acc, a.max_jerk) == (
            b.success, b.env_steps, b.l2_mean, b.l2_max, b.max_acc, b.max_jerk
        )


def test_default_grids_match_protocol():
    assert DEFAULT_SIGMA_GRID == (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
    assert DEFAULT_RHO_GRID == (0.10, 0.25, 0.50, 0.75, 1.00)


def test_empty_grid_rejected(tmp_path):
    config = small_config(tmp_path)
    with pytest.raises(ConfigError):
        grid_search_sigma(config, grid=())
    with pytest.raises(ConfigError):
        grid_search_rho(config, grid=())


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("n", [1, 4, 10])
def test_guided_step_clips_weight_at_n_and_leaves_step_zero_unguided(monkeypatch, n):
    config = ExperimentConfig(n_steps=n, output_dir="unused").guidance_for("potr")
    expected = [guidance.pc_weight(k / n, config.weight_sigma, float(n)) for k in range(1, n)]
    assert config.weights == (0.0, *expected)
    # Each weight is a read-only 0-d float64 array holding pc_weight's float.
    for w in config.weights:
        assert type(w) is np.ndarray and w.shape == () and w.dtype == np.float64
        assert not w.flags.writeable
    if n > 1:  # the first guided step's weight is clipped at beta = n, a float
        assert type(guidance.pc_weight(1 / n, config.weight_sigma, float(n))) is float
        assert config.weights[1] == float(n)

    # guided_denoise reads each guided step's weight from the config, once.
    read = []
    class RecordingWeights(tuple):
        def __getitem__(self, k):
            read.append(k)
            return tuple.__getitem__(self, k)

    object.__setattr__(config, "weights", RecordingWeights(config.weights))
    field = make_field(default_variants()[0])
    linearized = []
    linearize = field.linearize
    monkeypatch.setattr(
        field, "linearize", lambda x, tau, obs: linearized.append(tau) or linearize(x, tau, obs)
    )
    obs = Observation(position=np.array([-1.0, 0.0]), goal=np.array([0.75, 0.0]))
    rng = np.random.default_rng(3)
    spec = InpaintTarget(rng.standard_normal((10, 2)), np.linspace(1.0, 0.0, 10))
    guided_denoise(rng.standard_normal((10, 2)), obs, field, spec, config)
    # Only the guided steps linearize, and each reads its own weight.
    assert linearized == [k / n for k in read] == [k / n for k in range(1, n)]


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("bogus",), output_dir="x")
    with pytest.raises(ConfigError):
        ExperimentConfig(delays=(10,), horizon=10, output_dir="x")
    with pytest.raises(ConfigError):
        ExperimentConfig(episodes_per_cell=0, output_dir="x")
    with pytest.raises(ConfigError):
        ExperimentConfig(variants=(("nope", 1),), output_dir="x")
    with pytest.raises(ConfigError):
        ExperimentConfig(variants=(("unimodal", 0),), output_dir="x")
    with pytest.raises(ConfigError, match="non-integer weight"):
        ExperimentConfig(variants=(("unimodal", "x"),), output_dir="x")
    with pytest.raises(ConfigError, match="at least one delay"):
        ExperimentConfig(delays=(), output_dir="x")
    with pytest.raises(ConfigError):
        ExperimentConfig(variants=(), output_dir="x")
    with pytest.raises(ConfigError, match="seed_base"):
        ExperimentConfig(seed_base=-1, output_dir="x")
    # Integer settings must not truncate silently.
    for name, value in [
        ("n_steps", 2.5), ("delays", (1.5,)), ("max_steps", 30.5),
        ("episodes_per_cell", 1.5), ("seed_base", 0.5), ("horizon", 10.5),
    ]:
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: value}, output_dir="x")
    config = ExperimentConfig(n_steps=2.0, delays=(1.0, 2), output_dir="x")
    assert (config.n_steps, config.delays) == (2, (1, 2))
    assert type(config.n_steps) is int and type(config.delays[0]) is int


@pytest.mark.parametrize("weight", [9.7, float("nan"), float("inf")])
def test_config_rejects_variant_weight_that_is_not_an_integer(weight):
    with pytest.raises(ConfigError, match="'bimodal'"):
        ExperimentConfig(variants=(("bimodal", weight),), output_dir="x")


def test_config_file_parsing(tmp_path):
    text = """
# benchmark setup
methods = naive, rtc
delays = 0,1,2
episodes_per_cell = 7
seed_base = 11
sigma_d = 0.3
rho = inf
mask_decay = 0.4
variants = unimodal:1, bimodal:9
output_dir = results/run1
"""
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    config = load_config(path)
    assert config.methods == ("naive", "rtc")
    assert config.delays == (0, 1, 2)
    assert config.episodes_per_cell == 7 and config.seed_base == 11
    assert config.sigma_d == 0.3 and math.isinf(config.rho)
    assert config.mask_decay == 0.4
    assert config.variants == (("unimodal", 1), ("bimodal", 9))


def _config_text(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(
            ":".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value
        )
    return str(value)


def test_config_file_integers_agree_with_the_constructor(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("n_steps = 2.0\ndelays = 1.0, 2\nseed_base = 12345678901234567891\n")
    config = load_config(path)
    assert (config.n_steps, config.delays) == (2, (1, 2)) and type(config.n_steps) is int
    assert config.seed_base == 12345678901234567891  # integer text is read exactly
    for text, shown in [("2.5", "2.5"), ("abc", "'abc'")]:
        path.write_text(f"n_steps = {text}\n")
        with pytest.raises(ConfigError, match=f"^n_steps must be integral, got {shown}$"):
            load_config(path)


def test_config_file_every_field_default(tmp_path):
    defaults = ExperimentConfig()
    path = tmp_path / "defaults.cfg"
    lines = [f"{f.name} = {_config_text(getattr(defaults, f.name))}" for f in fields(defaults)]
    path.write_text("\n".join(lines) + "\n")
    assert len(lines) == 18
    assert load_config(path) == defaults


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery_knob = 3\n")
    with pytest.raises(ConfigError, match="mystery_knob"):
        load_config(path)


@pytest.mark.parametrize("line", ["beta = 10", "epsilon = 1e-08", "guide_first_step = false"])
def test_config_file_rejects_the_protocol_constants(tmp_path, line):
    # beta = n, an unguided step 0 and the 1e-8 projection guard are not settings.
    path = tmp_path / "bench.cfg"
    path.write_text(line + "\n")
    key = line.split(" =")[0]
    with pytest.raises(ConfigError, match=f"unknown configuration key '{key}'"):
        load_config(path)


def test_config_overrides_beat_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("episodes_per_cell = 7\nmethods = naive\n")
    config = load_config(path, overrides={"episodes_per_cell": 3, "methods": "rtc,potr"})
    assert config.episodes_per_cell == 3
    assert config.methods == ("rtc", "potr")
