"""Command-line entry point.

Subcommands: sweep, grid-sigma, grid-rho, summarize, verify.  Exit codes:
0 success, 1 configuration error (among them a delay d > horizon / 2, which
breaks the schedule's d <= s <= H - d at s = max(d, 1)), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError
from .harness import (
    DEFAULT_RHO_GRID,
    DEFAULT_SIGMA_GRID,
    RHO_GRID_HEADER,
    SIGMA_GRID_HEADER,
    grid_search_rho,
    grid_search_sigma,
    load_config,
    read_rows,
    run_sweep,
    summarize,
)
from .verify import run_all


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="plain key = value configuration file")
    parser.add_argument("--seed-base", dest="seed_base", type=int, help="base seed")
    parser.add_argument("--out", dest="output_dir", help="output directory")
    parser.add_argument("--methods", help="comma-separated subset of naive,rtc,pc,potr")
    parser.add_argument("--delays", help="comma-separated delay levels, e.g. 0,1,2,3,4,5")
    parser.add_argument(
        "--episodes", dest="episodes_per_cell", type=int, help="episodes per cell"
    )


def _config_from_args(args: argparse.Namespace):
    overrides = {
        key: getattr(args, key)
        for key in ("seed_base", "output_dir", "methods", "delays", "episodes_per_cell")
        if getattr(args, key, None) is not None
    }
    return load_config(args.config, overrides)


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as err:
        raise ConfigError(f"cannot parse grid {text!r}") from err


def _print_table(table: list[dict], header: list[str]) -> None:
    print(",".join(header))
    for row in table:
        print(",".join(f"{float(row[h]):.4g}" for h in header))


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = run_sweep(config)
    print(f"wrote {len(result.rows)} rows to {result.rows_path}")
    print(f"wrote summary to {result.summary_path}")
    return 0


def cmd_grid_sigma(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_SIGMA_GRID
    table = grid_search_sigma(config, grid)
    _print_table(table, SIGMA_GRID_HEADER)
    print(f"wrote {Path(config.output_dir) / 'grid_sigma.csv'}")
    return 0


def cmd_grid_rho(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    grid = _parse_grid(args.grid) if args.grid else DEFAULT_RHO_GRID
    table = grid_search_rho(config, grid)
    _print_table(table, RHO_GRID_HEADER)
    print(f"wrote {Path(config.output_dir) / 'grid_rho.csv'}")
    return 0


def cmd_summarize(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    rows = read_rows(args.rows)
    summary = summarize(rows, dict(config.variants))
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out_file:
        Path(args.out_file).write_text(text + "\n")
        print(f"wrote {args.out_file}")
    else:
        print(text)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(fast=args.fast)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} ({res.seconds:.2f} s): {res.detail}")
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed}/{len(results)} checks failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guidedflow",
        description="Guided flow-matching chunk sampling benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the delay-sweep protocol")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_gs = sub.add_parser("grid-sigma", help="sigma_d grid search (pc method, delay 3)")
    _add_config_flags(p_gs)
    p_gs.add_argument("--grid", help="comma-separated sigma_d values")
    p_gs.set_defaults(func=cmd_grid_sigma)

    p_gr = sub.add_parser("grid-rho", help="rho grid search (potr method, delay 3)")
    _add_config_flags(p_gr)
    p_gr.add_argument("--grid", help="comma-separated rho values ('inf' allowed)")
    p_gr.set_defaults(func=cmd_grid_rho)

    p_sum = sub.add_parser("summarize", help="recompute the summary from a row file")
    _add_config_flags(p_sum)
    p_sum.add_argument("--rows", required=True, help="rows.csv produced by sweep")
    p_sum.add_argument("--out-file", help="write JSON here instead of stdout")
    p_sum.set_defaults(func=cmd_summarize)

    p_ver = sub.add_parser("verify", help="run the oracle/property verification suite")
    p_ver.add_argument("--fast", action="store_true", help="reduced Monte Carlo sizes")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
