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

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .chunking import DEFAULT_MASK_DECAY, ChunkExecutor, build_soft_mask
from .envs import ConditionalGMField, OraclePolicyParams, TaskVariant, default_variants, make_env
from .errors import ConfigError, StructuralError
from .guidance import GuidanceConfig, GuidanceMethod
from .metrics import aggregate_weighted, episode_metrics, worst_case

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

SMOOTHNESS_METRICS = ("l2_mean", "l2_max", "max_acc", "max_jerk")
ALL_METRICS = ("success", "env_steps") + SMOOTHNESS_METRICS


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
    beta: Optional[float] = None  # None -> n_steps, the protocol's beta = n rule
    n_steps: int = 10
    epsilon: float = 1e-8
    guide_first_step: bool = False
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
    variants: tuple[tuple[str, int], ...] = (("unimodal", 1), ("bimodal", 9))
    output_dir: str = "results"
    overrun_fail_fraction: float = 0.25

    def __post_init__(self) -> None:
        self.methods = tuple(str(m).lower() for m in self.methods)
        for m in self.methods:
            if m not in _METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; choose from {_METHOD_NAMES}")
        if len(self.methods) == 0:
            raise ConfigError("at least one method is required")
        self.delays = tuple(int(d) for d in self.delays)
        if len(self.delays) == 0:
            raise ConfigError("at least one delay is required")
        for d in self.delays:
            if not (0 <= d < self.horizon):
                raise ConfigError(f"delay {d} must satisfy 0 <= d < horizon={self.horizon}")
        if self.episodes_per_cell < 1:
            raise ConfigError("episodes_per_cell must be >= 1")
        if len(self.variants) == 0:
            raise ConfigError("at least one variant is required")
        names = [v[0] for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("variant names must be unique")
        for name, weight in self.variants:
            if name not in _VARIANT_REGISTRY:
                raise ConfigError(
                    f"unknown variant {name!r}; choose from {sorted(_VARIANT_REGISTRY)}"
                )
            try:
                weight = int(weight)
            except (TypeError, ValueError) as err:
                raise ConfigError(f"variant {name!r} has non-integer weight {weight!r}") from err
            if weight < 1:
                raise ConfigError("variant weights must be >= 1")
        self.variants = tuple((str(n), int(w)) for n, w in self.variants)
        # Fail here, before any output exists, rather than in the first episode.
        try:
            self.guidance_for(self.methods[0])
            self.oracle_for(_VARIANT_REGISTRY[self.variants[0][0]])
            build_soft_mask(self.horizon, 0, 1, self.mask_decay)
        except StructuralError as err:
            raise ConfigError(str(err)) from err

    @property
    def resolved_beta(self) -> float:
        return float(self.n_steps) if self.beta is None else float(self.beta)

    def guidance_for(self, method: str) -> GuidanceConfig:
        return GuidanceConfig(
            method=GuidanceMethod(method),
            sigma_d=self.sigma_d,
            rho=self.rho,
            beta=self.resolved_beta,
            n_steps=self.n_steps,
            epsilon=self.epsilon,
            guide_first_step=self.guide_first_step,
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

    def variant_objects(self) -> list[tuple[TaskVariant, int]]:
        out = []
        for name, weight in self.variants:
            base = _VARIANT_REGISTRY[name]
            out.append((replace(base, weight=weight), weight))
        return out


@dataclass
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

    @property
    def excluded_from_aggregate(self) -> bool:
        # Delay 0 has no intra-chunk switching; its L2 numbers are recorded
        # but never aggregated.
        return self.delay == 0

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
_ROW_FIELDS = {name: _ROW_FIELD_TYPES[hint] for name, hint in get_type_hints(ResultRow).items()}
_ROW_FIELDS["method"] = ({m: m for m in _METHOD_NAMES}.__getitem__, None, f"one of {_METHOD_NAMES}")
ROW_HEADER = list(_ROW_FIELDS)


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
    env = make_env(
        variant,
        rng=env_rng,
        max_steps=config.max_steps,
        goal_tolerance=config.goal_tolerance,
        dynamics_gain=config.dynamics_gain,
        action_noise_std=config.action_noise_std,
    )
    executor = ChunkExecutor(
        env,
        ConditionalGMField(config.oracle_for(variant)),
        config.guidance_for(method),
        delay=delay,
        horizon=config.horizon,
        replan_every=replan_every,
        mask_decay=config.mask_decay,
        rng=noise_rng,
    )
    trace = executor.run()
    m = episode_metrics(trace)
    row = ResultRow(
        method=method,
        delay=delay,
        suite=variant.name,
        seed=episode,
        success=m.success,
        env_steps=m.env_steps,
        l2_mean=m.l2_mean,
        l2_max=m.l2_max,
        max_acc=m.max_acc,
        max_jerk=m.max_jerk,
    )
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


def _mean(values: Sequence[float]) -> float:
    return float(np.mean(values)) if len(values) else math.nan


def _cell_means(rows: Sequence[ResultRow]) -> dict:
    """Per-cell metric means; env_steps averages successful episodes only."""
    succ_steps = [r.env_steps for r in rows if r.success]
    return {
        "success": _mean([1.0 if r.success else 0.0 for r in rows]),
        "env_steps": _mean(succ_steps),
        "l2_mean": _mean([r.l2_mean for r in rows]),
        "l2_max": _mean([r.l2_max for r in rows]),
        "max_acc": _mean([r.max_acc for r in rows]),
        "max_jerk": _mean([r.max_jerk for r in rows]),
    }


def _cells(rows: Sequence[ResultRow]) -> dict:
    """(method, suite, delay) -> _cell_means of that cell, grouped in one pass."""
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.method, r.suite, r.delay), []).append(r)
    return {key: _cell_means(group) for key, group in groups.items()}


def _combine(cells: dict, variant_weights: dict[str, int]) -> dict:
    """Episode-weighted cross-suite value of each metric over a {suite: cell} mapping.

    Suites whose cell has no value for a metric are left out; a metric no
    suite has a value for is nan.
    """
    out = {}
    for metric in ALL_METRICS:
        pairs = [
            (variant_weights[s], cells[s][metric])
            for s in sorted(cells)
            if not math.isnan(cells[s][metric])
        ]
        out[metric] = aggregate_weighted(pairs) if pairs else math.nan
    return out


def _clean(block: dict) -> dict:
    """nan -> None, so metrics without a value serialize as JSON null."""
    return {metric: None if math.isnan(value) else value for metric, value in block.items()}


def summarize(rows: Sequence[ResultRow], variant_weights: dict[str, int]) -> dict:
    """Per-method delay-1-5 aggregate, vs-rtc deltas, and worst-case block."""
    if len(rows) == 0:
        raise ConfigError("summarize requires at least one result row")
    methods = sorted({r.method for r in rows})
    agg_delays = sorted({r.delay for r in rows if r.delay != 0})
    suites = sorted({r.suite for r in rows})
    for s in suites:
        if s not in variant_weights:
            raise ConfigError(f"no weight given for suite {s!r}")
    summary: dict = {
        "aggregated_delays": agg_delays,
        "suite_weights": {s: int(variant_weights[s]) for s in suites},
        "methods": {},
        "worst_case": {},
        "per_delay": {},
    }
    table = _cells(rows)
    for method in methods:
        by_delay = {
            d: {s: table[(method, s, d)] for s in suites if (method, s, d) in table}
            for d in agg_delays
        }
        # Per suite, the arithmetic mean over delays of the per-delay cell means.
        per_suite = {}
        for s in suites:
            delay_cells = [cells[s] for cells in by_delay.values() if s in cells]
            per_suite[s] = {
                metric: _mean([c[metric] for c in delay_cells if not math.isnan(c[metric])])
                for metric in ALL_METRICS
            }
        summary["methods"][method] = _clean(_combine(per_suite, variant_weights))
        worst = {}
        for metric in SMOOTHNESS_METRICS:
            vals = [c[metric] for c in per_suite.values() if not math.isnan(c[metric])]
            worst[f"worst_{metric}"] = worst_case(vals) if vals else None
        summary["worst_case"][method] = worst
        summary["per_delay"][method] = {
            str(d): _clean(_combine(cells, variant_weights)) for d, cells in by_delay.items()
        }
    if "rtc" in summary["methods"]:
        deltas = {}
        rtc_block = summary["methods"]["rtc"]
        for method in methods:
            if method == "rtc":
                continue
            block = {}
            for metric in ALL_METRICS:
                base, val = rtc_block[metric], summary["methods"][method][metric]
                if base in (None, 0) or val is None:
                    block[metric] = None
                else:
                    block[metric] = 100.0 * (val - base) / base
            deltas[method] = block
        summary["vs_rtc"] = deltas
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
        cells = {suite: cell for (_, suite, _), cell in _cells(rows).items()}
        agg = _combine(cells, dict(config.variants))
        # The header names the parameter, then ALL_METRICS in order.
        table.append(dict(zip(header, [float(value)] + [agg[m] for m in ALL_METRICS])))
    if path is not None:
        _write_table(table, header, path)
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


def _write_table(table: list[dict], header: list[str], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow([repr(float(row[h])) for h in header])


def write_rows(rows: Sequence[ResultRow], path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_HEADER)
        for r in sorted(rows, key=ResultRow.sort_key):
            writer.writerow(
                [
                    r.method,
                    r.delay,
                    r.suite,
                    r.seed,
                    int(r.success),
                    r.env_steps,
                    repr(r.l2_mean),
                    repr(r.l2_max),
                    repr(r.max_acc),
                    repr(r.max_jerk),
                ]
            )


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
            try:
                columns = [
                    list(map(parse, texts))
                    for (parse, _, _), texts in zip(
                        _ROW_FIELDS.values(), zip(*records, strict=True), strict=True
                    )
                ]
            except (ValueError, KeyError):
                raise _malformed_record(path) from None
            for (_, valid, _), column in zip(_ROW_FIELDS.values(), columns):
                if valid is not None and not all(map(valid, column)):
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


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"cannot parse boolean from {text!r}")


def _parse_strs(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise ConfigError(f"cannot parse integer list from {text!r}") from err


def _parse_variants(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            name, weight = tok.split(":", 1)
            try:
                weight = int(weight)
            except ValueError as err:
                raise ConfigError(f"cannot parse variant weight from {tok!r}") from err
            out.append((name.strip(), weight))
        else:
            out.append((tok, 1))
    return tuple(out)


def _parse_float(text: str) -> float:
    try:
        return float(text)  # accepts 'inf'
    except ValueError as err:
        raise ConfigError(f"cannot parse float from {text!r}") from err


def _parse_optional_float(text: str) -> Optional[float]:
    if text.strip().lower() in ("none", ""):
        return None
    return _parse_float(text)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"cannot parse integer from {text!r}") from err


# One parser per field type; a field of any other type fails at import.
_TYPE_PARSERS = {
    int: _parse_int,
    float: _parse_float,
    Optional[float]: _parse_optional_float,
    bool: _parse_bool,
    str: str,
    tuple[int, ...]: _parse_ints,
    tuple[str, ...]: _parse_strs,
    tuple[tuple[str, int], ...]: _parse_variants,
}
_PARSERS = {
    name: _TYPE_PARSERS[hint] for name, hint in get_type_hints(ExperimentConfig).items()
}


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
