"""Experiment orchestration: delay sweeps, grid searches, persistence.

Every (method x delay x variant x seed) cell runs one closed-loop episode
with replan step s = max(d, 1).  Seeds are derived from (seed_base, delay,
variant, episode index) only, so all methods consume identical environment
and denoising noise streams and comparisons are paired.

Outputs are a one-row-per-episode CSV (fixed header) plus a JSON summary
holding per-method delay-1-5 means of all six metrics, percentage deltas vs
the rtc row, and a worst-case block (per-variant delay means, maximum across
variants).  Delay-0 rows are recorded but excluded from aggregates: with
replanning every step there is no intra-chunk switching to measure.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .chunking import DEFAULT_MASK_DECAY, ChunkExecutor, build_soft_mask
from .envs import ConditionalGMField, OraclePolicyParams, TaskVariant, default_variants, make_env
from .errors import ConfigError, StructuralError
from .guidance import GuidanceConfig, GuidanceMethod
from .metrics import EpisodeMetrics, episode_metrics

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "SweepResult",
    "load_config",
    "run_cell_episode",
    "run_sweep",
    "summarize",
    "grid_search_sigma",
    "grid_search_rho",
    "write_rows",
    "read_rows",
    "ROW_HEADER",
    "SIGMA_GRID_HEADER",
    "RHO_GRID_HEADER",
    "DEFAULT_SIGMA_GRID",
    "DEFAULT_RHO_GRID",
]

SIGMA_GRID_HEADER = ["sigma_d", "success", "steps", "l2_m", "l2_M", "acc", "jerk"]
RHO_GRID_HEADER = ["rho", "success", "steps", "l2_m", "l2_M", "acc", "jerk"]
DEFAULT_SIGMA_GRID = (0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
DEFAULT_RHO_GRID = (0.10, 0.25, 0.50, 0.75, 1.00)

_METHOD_NAMES = tuple(m.value for m in GuidanceMethod)
_VARIANT_REGISTRY = {v.name: v for v in default_variants()}

ALL_METRICS = tuple(f.name for f in fields(EpisodeMetrics))
SMOOTHNESS_METRICS = ALL_METRICS[2:]  # all but success and env_steps
_WORST_NAMES = [f"worst_{metric}" for metric in SMOOTHNESS_METRICS]
_CELL_KEY = attrgetter("method", "suite", "delay")
_METRIC_GETTERS = [attrgetter(metric) for metric in ALL_METRICS]


def _is_integral(value) -> bool:
    """Whether ``value`` is an integer; 2.0 counts as 2, 2.5, NaN, inf and text do not."""
    try:
        return value == int(value)
    except (TypeError, ValueError, OverflowError):
        return False


def _suite_weights(suites: Sequence[str], variant_weights: dict) -> list[int]:
    """Each suite's weight; ConfigError naming the suite unless it is an integer >= 1."""
    for s in suites:
        if s not in variant_weights:
            raise ConfigError(f"no weight given for suite {s!r}")
        w = variant_weights[s]
        if not (_is_integral(w) and w >= 1):
            raise ConfigError(f"suite {s!r} has a non-integer weight or one below 1: {w!r}")
    return [int(variant_weights[s]) for s in suites]


@dataclass
class ExperimentConfig:
    """Everything one benchmark run depends on; all fields are file/flag addressable."""

    methods: tuple[str, ...] = _METHOD_NAMES
    delays: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    episodes_per_cell: int = 50
    seed_base: int = 0
    # guidance
    sigma_d: float = 0.4
    rho: float = 2.0
    n_steps: int = 10
    mask_decay: float = DEFAULT_MASK_DECAY
    # environment and oracle policy
    horizon: int = 10
    max_steps: int = 60
    goal_tolerance: float = 0.15
    dynamics_gain: float = 0.1
    action_noise_std: float = 0.02
    sigma_cond: float = 0.4
    ctrl_frac: float = 0.35
    clearance: float = 0.04
    # (suite name, weight) pairs.  The heavier weight on the bimodal variant mirrors a
    # task-count imbalance between a small easy suite and a large diverse one.
    variants: tuple[tuple[str, int], ...] = (("unimodal", 1), ("bimodal", 9))
    output_dir: str = "results"
    overrun_fail_fraction: float = 0.25

    def __post_init__(self) -> None:
        # An integer setting must not truncate silently: 2.0 counts as 2, 2.5 is an error.
        for name, is_tuple in _INT_FIELDS.items():
            value = getattr(self, name)
            items = tuple(value) if is_tuple else (value,)
            if not all(map(_is_integral, items)):
                raise ConfigError(f"{name} must be integral, got {value!r}")
            setattr(self, name, tuple(map(int, items)) if is_tuple else int(value))
        self.methods = tuple(str(m).lower() for m in self.methods)
        for m in self.methods:
            if m not in _METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; choose from {_METHOD_NAMES}")
        if len(self.methods) == 0:
            raise ConfigError("at least one method is required")
        if len(self.delays) == 0:
            raise ConfigError("at least one delay is required")
        for d in self.delays:
            if not (0 <= d < self.horizon):
                raise ConfigError(f"delay {d} must satisfy 0 <= d < horizon={self.horizon}")
        if self.episodes_per_cell < 1:
            raise ConfigError("episodes_per_cell must be >= 1")
        if self.seed_base < 0:
            raise ConfigError(f"seed_base must be >= 0, got {self.seed_base}")
        if len(self.variants) == 0:
            raise ConfigError("at least one variant is required")
        names = [v[0] for v in self.variants]
        listed = {"methods": self.methods, "delays": self.delays, "variant names": names}
        for what, values in listed.items():
            if len(set(values)) != len(values):
                raise ConfigError(f"{what} must be unique")
        for name in names:
            if name not in _VARIANT_REGISTRY:
                raise ConfigError(
                    f"unknown variant {name!r}; choose from {sorted(_VARIANT_REGISTRY)}"
                )
        self.variants = tuple(zip(names, _suite_weights(names, dict(self.variants))))
        if not (0.0 <= self.overrun_fail_fraction <= 1.0):
            raise ConfigError("overrun_fail_fraction must lie in [0, 1]")
        # Fail here, before any output exists, rather than in the first episode.
        try:
            self.guidance_for(self.methods[0])
            self.oracle_for(_VARIANT_REGISTRY[names[0]])
            self.env_for(_VARIANT_REGISTRY[names[0]], None)
            build_soft_mask(self.horizon, 0, 1, self.mask_decay)
        except StructuralError as err:
            raise ConfigError(str(err)) from err

    def guidance_for(self, method: str) -> GuidanceConfig:
        return GuidanceConfig(
            method=GuidanceMethod(method),
            sigma_d=self.sigma_d,
            rho=self.rho,
            n_steps=self.n_steps,
        )

    def oracle_for(self, variant: TaskVariant) -> OraclePolicyParams:
        return OraclePolicyParams(
            sigma_cond=self.sigma_cond,
            modes=variant.modes,
            horizon=self.horizon,
            gain=self.dynamics_gain,
            ctrl_frac=self.ctrl_frac,
            clearance=self.clearance,
        )

    def env_for(self, variant: TaskVariant, rng: Optional[np.random.Generator]):
        return make_env(
            variant,
            rng,
            max_steps=self.max_steps,
            goal_tolerance=self.goal_tolerance,
            dynamics_gain=self.dynamics_gain,
            action_noise_std=self.action_noise_std,
        )

    def variant_objects(self) -> list[tuple[TaskVariant, int]]:
        return [(_VARIANT_REGISTRY[name], weight) for name, weight in self.variants]


@dataclass(slots=True)
class ResultRow:
    method: str
    delay: int
    suite: str
    seed: int
    success: bool
    env_steps: int
    l2_mean: float
    l2_max: float
    max_acc: float
    max_jerk: float

    def sort_key(self):
        return (self.method, self.delay, self.suite, self.seed)


# How read_rows reads a field, by the field's type: a parser that raises
# ValueError or KeyError on text it cannot read, a check every parsed value
# must pass (None: no check) and what an error says the field must be.
_ROW_FIELD_TYPES = {
    str: (str, None, "text"),
    int: (int, (0).__le__, "a non-negative integer"),
    bool: ({"0": False, "1": True}.__getitem__, None, "0 or 1"),
    float: (float, math.isfinite, "a finite number"),
}
_ROW_TYPES = get_type_hints(ResultRow)
_ROW_FIELDS = {name: _ROW_FIELD_TYPES[hint] for name, hint in _ROW_TYPES.items()}
_ROW_FIELDS["method"] = ({m: m for m in _METHOD_NAMES}.__getitem__, None, f"one of {_METHOD_NAMES}")
ROW_HEADER = list(_ROW_FIELDS)
# How write_rows formats a field of a type listed here before the csv writer writes it
# with str, which for a float is its shortest repr, the text float() reads back exactly.
_ROW_FIELD_FORMATS = {bool: int}
_ROW_COLUMNS = [(attrgetter(name), _ROW_FIELD_FORMATS.get(t)) for name, t in _ROW_TYPES.items()]


@dataclass
class SweepResult:
    rows: list[ResultRow]
    summary: dict
    overrun_count: int
    rows_path: Optional[Path] = None
    summary_path: Optional[Path] = None


def _episode_seeds(config: ExperimentConfig, delay: int, variant_index: int, episode: int):
    # Method-independent by construction: paired comparisons share noise.
    root = np.random.SeedSequence(
        entropy=(int(config.seed_base), int(delay), int(variant_index), int(episode))
    )
    env_seed, noise_seed = root.spawn(2)
    return np.random.default_rng(env_seed), np.random.default_rng(noise_seed)


def run_cell_episode(
    config: ExperimentConfig,
    method: str,
    delay: int,
    variant: TaskVariant,
    variant_index: int,
    episode: int,
    replan_every: Optional[int] = None,
):
    """Run one episode of one cell; returns (ResultRow, EpisodeTrace)."""
    env_rng, noise_rng = _episode_seeds(config, delay, variant_index, episode)
    executor = ChunkExecutor(
        config.env_for(variant, env_rng),
        ConditionalGMField(config.oracle_for(variant)),
        config.guidance_for(method),
        delay=delay,
        horizon=config.horizon,
        replan_every=replan_every,
        mask_decay=config.mask_decay,
        rng=noise_rng,
    )
    trace = executor.run()
    row = ResultRow(method, delay, variant.name, episode, **vars(episode_metrics(trace)))
    return row, trace


def _run_cell(config: ExperimentConfig, method: str, delay: int) -> tuple[list[ResultRow], int]:
    """Every episode of one (method, delay) cell, over all variants: (rows, overrun count)."""
    rows, overruns = [], 0
    for v_index, (variant, _) in enumerate(config.variant_objects()):
        for episode in range(config.episodes_per_cell):
            row, trace = run_cell_episode(config, method, delay, variant, v_index, episode)
            rows.append(row)
            overruns += int(trace.schedule_overrun)
    return rows, overruns


def run_sweep(config: ExperimentConfig, write: bool = True) -> SweepResult:
    """Run the full delay-sweep protocol and (optionally) persist results."""
    out_dir = Path(config.output_dir)
    if write:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            probe = out_dir / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as err:
            raise OSError(f"output directory {out_dir} is not writable: {err}") from err
    rows: list[ResultRow] = []
    overruns = 0
    for method in config.methods:
        for delay in config.delays:
            cell_rows, cell_overruns = _run_cell(config, method, delay)
            rows += cell_rows
            overruns += cell_overruns
    rows.sort(key=ResultRow.sort_key)
    summary = summarize(rows, dict(config.variants))
    rows_path = summary_path = None
    if write:
        rows_path = out_dir / "rows.csv"
        summary_path = out_dir / "summary.json"
        write_rows(rows, rows_path)
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return SweepResult(rows, summary, overruns, rows_path, summary_path)


def _run_sums(values: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Sums of the consecutive runs of ``lengths[i]`` values of a 1-D array; nan for an empty run.

    Neighbouring runs of one length k are summed as one (runs, k) block: numpy sums pairwise
    from 8 values on, so only that equals np.sum of each run bit for bit."""
    sums = np.empty(len(lengths))
    start = done = 0
    for k, group in itertools.groupby(lengths):
        n = len(list(group))
        runs = values[start : start + n * k].reshape(n, k)
        sums[done : done + n] = np.add.reduce(runs, 1) if k else math.nan
        start, done = start + n * k, done + n
    return sums


def _cell_cube(rows: Sequence[ResultRow], variant_weights: dict):
    """Sorted methods, suites and delays, suite weights, and each cell's ALL_METRICS means.

    cube[method, suite, delay] is nan where a cell or value is missing; env_steps averages
    successful rows.  A stable sort keeps each cell's rows in order for _run_sums."""
    n = len(rows)
    cells = defaultdict(itertools.count().__next__)  # cell key -> its rank by first appearance
    codes = np.fromiter(map(cells.__getitem__, map(_CELL_KEY, rows)), np.intp, n)
    columns = itertools.chain(*(map(get, rows) for get in _METRIC_GETTERS))
    block = np.fromiter(columns, float, len(ALL_METRICS) * n).reshape(-1, n)
    block = block.take(codes.argsort(kind="stable"), 1)
    block[1] *= block[0]  # env_steps of successes, 0 for failures: exact integer sums
    sizes = np.bincount(codes)
    sums = _run_sums(block.ravel(), sizes.tolist() * len(ALL_METRICS)).reshape(-1, len(sizes))
    means = sums / sizes
    means[1] = [s / k if k else math.nan for k, s in zip(*sums[:2].tolist())]
    methods, suites, delays = axes = [sorted(set(axis)) for axis in zip(*cells)]
    nm, ns, nd = map(len, axes)
    cube = np.full((nm * ns * nd, len(ALL_METRICS)), np.nan)
    at = [(methods.index(m) * ns + suites.index(s)) * nd + delays.index(d) for m, s, d in cells]
    cube[at] = means.T
    return (*axes, _suite_weights(suites, variant_weights), cube.reshape(nm, ns, nd, -1))


def _kept_sums(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums along the last axis of the values that are not nan, nan where none is; and the mask.
    Each sum adds its row's kept values in order (_run_sums), as zero-filling would not."""
    kept = values == values
    sums = _run_sums(values[kept], np.add.reduce(kept, -1).ravel().tolist())
    return sums.reshape(kept.shape[:-1]), kept


def _masked_mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum(w * v) / sum(w) along the last axis over the values that are not nan; nan if none is.
    The weights are integers, whose sums are exact in any order."""
    total, kept = _kept_sums(values * weights)
    return total / np.dot(kept, weights)


def _block(names: Sequence[str], values: Sequence[float]) -> dict:
    """nan -> None, so metrics without a value serialize as JSON null."""
    return {name: None if math.isnan(v) else v for name, v in zip(names, values)}


def summarize(rows: Sequence[ResultRow], variant_weights: dict[str, int]) -> dict:
    """Per-method delay-1-5 aggregate, vs-rtc deltas, and worst-case block.

    Every suite in the rows needs a weight that is an integer >= 1 (9.0
    counts as 9); a suite's cells are weighted by it across suites.
    """
    if len(rows) == 0:
        raise ConfigError("summarize requires at least one result row")
    methods, suites, delays, weights, cube = _cell_cube(rows, variant_weights)
    agg = [i for i, d in enumerate(delays) if d != 0]
    agg_delays, cube = [delays[i] for i in agg], cube.take(agg, 2)
    # Per suite, the arithmetic mean over delays of the per-delay cell means.
    total, kept = _kept_sums(cube.transpose(0, 1, 3, 2))
    per_suite = total / np.add.reduce(kept, -1)
    # The suite-weighted means of each delay's cells, then of per_suite as one more delay.
    by_delay = np.concatenate((cube, per_suite[:, :, None]), 2).transpose(0, 2, 3, 1)
    by_delay = _masked_mean(by_delay, np.array(weights, dtype=float)).tolist()
    # SMOOTHNESS_METRICS follow success and env_steps in ALL_METRICS.
    worst = np.fmax.reduce(per_suite[:, :, 2:], axis=1).tolist()
    summary: dict = {
        "aggregated_delays": agg_delays,
        "suite_weights": dict(zip(suites, weights)),
        "methods": {m: _block(ALL_METRICS, v[-1]) for m, v in zip(methods, by_delay)},
        "worst_case": {m: _block(_WORST_NAMES, v) for m, v in zip(methods, worst)},
        "per_delay": {
            m: {str(d): _block(ALL_METRICS, v) for d, v in zip(agg_delays, means)}
            for m, means in zip(methods, by_delay)
        },
    }
    if "rtc" in summary["methods"]:
        base = summary["methods"]["rtc"]
        summary["vs_rtc"] = {
            m: {
                k: None if base[k] in (None, 0) or v is None else 100.0 * (v - base[k]) / base[k]
                for k, v in summary["methods"][m].items()
            }
            for m in methods
            if m != "rtc"
        }
    else:
        warnings.warn("no rtc rows present; vs-rtc delta block omitted", stacklevel=2)
    return summary


def _grid_search(
    config: ExperimentConfig,
    param: str,
    grid: Sequence[float],
    method: str,
    delay: int,
    header: list[str],
    path: Optional[Path],
) -> list[dict]:
    """One grid row per value of ``param``: the suite-weighted cell means of ``method``."""
    if len(grid) == 0:
        raise ConfigError(f"{param} grid must be nonempty")
    table = []
    for value in grid:
        rows, _ = _run_cell(replace(config, **{param: float(value)}), method, delay)
        _, _, _, weights, cube = _cell_cube(rows, dict(config.variants))
        agg = _masked_mean(cube[0, :, 0].T, np.array(weights, dtype=float))
        # The header names the parameter, then ALL_METRICS in order.
        table.append(dict(zip(header, [float(value)] + agg.tolist())))
    if path is not None:
        _write_csv(path, header, (map(repr, row.values()) for row in table))
    return table


def grid_search_sigma(
    config: ExperimentConfig,
    grid: Sequence[float] = DEFAULT_SIGMA_GRID,
    delay: int = 3,
    write: bool = True,
) -> list[dict]:
    """Grid search over sigma_d with the prior-corrected weight alone (no OTR)."""
    path = Path(config.output_dir) / "grid_sigma.csv" if write else None
    return _grid_search(config, "sigma_d", grid, "pc", delay, SIGMA_GRID_HEADER, path)


def grid_search_rho(
    config: ExperimentConfig,
    grid: Sequence[float] = DEFAULT_RHO_GRID,
    delay: int = 3,
    write: bool = True,
) -> list[dict]:
    """Grid search over the trust-region radius ratio rho with the full method."""
    path = Path(config.output_dir) / "grid_rho.csv" if write else None
    return _grid_search(config, "rho", grid, "potr", delay, RHO_GRID_HEADER, path)


def _write_csv(path, header: list[str], records) -> None:
    try:
        fh = open(path, "w", newline="")
    except OSError:  # most likely a missing directory: create it, or fail as that does
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        fh = open(path, "w", newline="")
    with fh:
        csv.writer(fh).writerows(itertools.chain([header], records))


def write_rows(rows: Sequence[ResultRow], path) -> None:
    """One record per row in ``sort_key`` order, each field written as its type says."""
    rows = sorted(rows, key=ResultRow.sort_key)
    columns = (map(fmt, map(get, rows)) if fmt else map(get, rows) for get, fmt in _ROW_COLUMNS)
    _write_csv(path, ROW_HEADER, zip(*columns))


def read_rows(path) -> list[ResultRow]:
    """Read a row file written by ``write_rows``.

    A wrong header or a malformed record raises ConfigError naming the file
    and line: a wrong field count, a number that does not parse, success
    other than 0 or 1, an unknown method, a negative delay, seed or
    env_steps, or a non-finite metric.
    """
    rows: list[ResultRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ROW_HEADER:
            raise ConfigError(f"{path}:1: unexpected row-file header {header}")
        # Parse and check whole columns of 512 records at a time, which keeps
        # the transient columns small; only a malformed file pays for the
        # record-by-record pass that finds its first bad line.
        while records := list(itertools.islice(reader, 512)):
            texts = zip(_ROW_FIELDS.values(), zip(*records, strict=True), strict=True)
            try:
                columns = [list(map(parse, column)) for (parse, _, _), column in texts]
            except (ValueError, KeyError):
                raise _malformed_record(path) from None
            checks = zip(_ROW_FIELDS.values(), columns)
            if not all(valid is None or all(map(valid, c)) for (_, valid, _), c in checks):
                raise _malformed_record(path)
            rows.extend(map(ResultRow, *columns))
    return rows


def _malformed_record(path) -> ConfigError:
    """The error naming the first record of a row file that read_rows rejects."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header, already checked
        for rec in reader:
            where = f"{path}:{reader.line_num}"
            if len(rec) != len(ROW_HEADER):
                return ConfigError(f"{where}: expected {len(ROW_HEADER)} fields, got {len(rec)}")
            for (name, (parse, valid, what)), text in zip(_ROW_FIELDS.items(), rec):
                try:
                    value = parse(text)
                    ok = valid is None or valid(value)
                except (ValueError, KeyError):
                    ok = False
                if not ok:
                    return ConfigError(f"{where}: {name} must be {what}, got {text!r}")


# ---------------------------------------------------------------------------
# Plain-text key=value configuration files


def _parse_strs(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_variants(text: str) -> tuple[tuple[str, float], ...]:
    """name[:weight] pairs, weight 1 by default; ExperimentConfig checks each weight."""
    pairs = (tok.split(":", 1) if ":" in tok else (tok, "1") for tok in _parse_strs(text))
    return tuple((name.strip(), _parse_float(weight)) for name, weight in pairs)


def _parse_float(text: str) -> float:
    try:
        return float(text)  # accepts 'inf'
    except ValueError as err:
        raise ConfigError(f"cannot parse float from {text!r}") from err


def _parse_int(text: str):
    """The number ``text`` spells, integer text exactly, else the text: ExperimentConfig
    rejects a value that is not integral (2.5, 'abc') as it does one passed in Python."""
    for parse in (int, float, str):
        with contextlib.suppress(ValueError):
            return parse(text)


def _parse_ints(text: str) -> tuple:
    return tuple(_parse_int(tok) for tok in text.split(",") if tok.strip())


# One parser per field type; a field of any other type fails at import.
_TYPE_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    str: str,
    tuple[int, ...]: _parse_ints,
    tuple[str, ...]: _parse_strs,
    tuple[tuple[str, int], ...]: _parse_variants,
}
_PARSERS = {
    name: _TYPE_PARSERS[hint] for name, hint in get_type_hints(ExperimentConfig).items()
}
# The settings typed int (False) or tuple[int, ...] (True).
_INT_FIELDS = {n: p is _parse_ints for n, p in _PARSERS.items() if p in (_parse_int, _parse_ints)}


def load_config(path, overrides: Optional[dict] = None) -> ExperimentConfig:
    """Read a key = value config file; unknown keys are errors, '#' comments ignored."""
    values: dict = {}
    if path is not None:
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
            values[key] = _PARSERS[key](value)
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _PARSERS:
                raise ConfigError(f"unknown configuration key {key!r}")
            values[key] = _PARSERS[key](value) if isinstance(value, str) else value
    try:
        return ExperimentConfig(**values)
    except TypeError as err:
        raise ConfigError(str(err)) from err
