"""Per-call timings of the sampler's layers, at the (10, 2) and (50, 7) chunk shapes.

    python tools/percall.py                                   # this checkout, one round
    python tools/percall.py --parent ../parent --rounds 9 --out per_call.json

Times, at each shape, with a K = 2 prior:
  - ``gm_linearize`` with its pullback, ``pseudoinverse_correction`` and
    ``otr_project`` (one guided step's pieces, at tau = 0.5);
  - ``guided_denoise`` with n = 10 for each of naive, rtc, pc and potr;
  - ``conditional_field`` (the bimodal obstacle task at (10, 2), two straight
    modes toward a 7-D goal at (50, 7));
  - ``ChunkExecutor.step`` of potr at delay 1 on that task: the median tick
    of 3 episodes.

Each value is the best of 5 timeit repeats in us, except the executor tick.
A round runs one subprocess per tree, the checkout this file sits in
("change") and, with ``--parent``, another checkout ("parent"), in an order
that alternates from round to round.  Each subprocess imports ``guidedflow``
from its tree's ``src/`` and pins itself to one CPU before timing.  The
output is one JSON ``per_call`` block: per tree and timing, the min, median
and max over rounds and, with a parent, the median over rounds of
change / parent.  Only the package's public API is called, so any version of
the tree with these names can be the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHAPES = ((10, 2), (50, 7))
METHODS = ("naive", "rtc", "pc", "potr")
REPEATS = 5
REPEAT_S = 0.02  # each timeit repeat runs about this long


def best_us(fn) -> float:
    """Best of REPEATS timeit repeats of ``fn``, in us per call."""
    start = time.perf_counter()
    fn()
    number = max(1, round(REPEAT_S / max(time.perf_counter() - start, 1e-7)))
    return min(timeit.repeat(fn, number=number, repeat=REPEATS)) / number * 1e6


def tick_us(gf, variant, field, config, episodes: int = 3) -> float:
    """Median ``ChunkExecutor.step`` over a few potr episodes at delay 1, in us."""
    ticks = []
    for episode in range(episodes):
        env = config.env_for(variant, np.random.default_rng(episode))
        executor = gf.chunking.ChunkExecutor(
            env, field, config.guidance_for("potr"), delay=1, horizon=config.horizon,
            mask_decay=config.mask_decay, rng=np.random.default_rng(100 + episode),
        )
        executor.reset()
        while not env.done:
            start = time.perf_counter_ns()
            executor.step()
            ticks.append(time.perf_counter_ns() - start)
    return statistics.median(ticks) / 1e3


def worker(src: str, cpu: int) -> dict:
    """Time every call on the package under ``src``; returns {name: us}."""
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, src)
    import guidedflow as gf

    out = {}
    for h, d in SHAPES:
        tag = f"{h}x{d}"
        rng = np.random.default_rng(h * d)
        params = gf.GaussianMixtureFieldParams(
            weights=np.array([0.5, 0.5]), means=0.5 * rng.standard_normal((2, h, d)),
            scales=np.array([0.4, 0.4]),
        )
        x, u, noise = (rng.standard_normal((h, d)) for _ in range(3))
        inpaint = gf.InpaintTarget(rng.standard_normal((h, d)), gf.build_soft_mask(h, 1, 1))
        v, pullback = gf.gm_linearize(x, 0.5, params)
        g = gf.pseudoinverse_correction(x, 0.5, v, inpaint, pullback)
        out[f"{tag}/gm_linearize+pullback"] = best_us(
            lambda: gf.gm_linearize(x, 0.5, params)[1](u))
        out[f"{tag}/pseudoinverse_correction"] = best_us(
            lambda: gf.pseudoinverse_correction(x, 0.5, v, inpaint, pullback))
        out[f"{tag}/otr_project"] = best_us(lambda: gf.otr_project(g, v, 2.0))
        field = gf.GaussianMixtureField(params)
        for method in METHODS:
            guidance = gf.GuidanceConfig(method=method, n_steps=10)
            out[f"{tag}/guided_denoise.{method}"] = best_us(
                lambda: gf.guided_denoise(noise, None, field, inpaint, guidance))

        if (h, d) == (10, 2):
            config = gf.ExperimentConfig(output_dir="unused")
            variant = dict((v.name, v) for v, _ in config.variant_objects())["bimodal"]
        else:
            config = gf.ExperimentConfig(horizon=h, output_dir="unused")
            variant = gf.TaskVariant(
                name="reach7", modes=2, start=(-1.0,) + (0.0,) * (d - 1),
                goal=(0.75,) + (0.0,) * (d - 1),
            )
        oracle = config.oracle_for(variant)
        obs = config.env_for(variant, np.random.default_rng(0)).observe()
        out[f"{tag}/conditional_field"] = best_us(lambda: gf.conditional_field(obs, oracle))
        out[f"{tag}/executor_step"] = tick_us(gf, variant, gf.ConditionalGMField(oracle), config)
    return out


def run_tree(root: Path, cpu: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(root / "src"),
         "--cpu", str(cpu)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    return {"min": round(min(values), 2), "median": round(statistics.median(values), 2),
            "max": round(max(values), 2)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout to compare against")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)),
                    help="the CPU each subprocess pins itself to")
    ap.add_argument("--out", type=Path, help="write the JSON here as well as to stdout")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker, args.cpu)))
        return 0
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if args.parent is not None and not (args.parent / "src" / "guidedflow").is_dir():
        ap.error(f"{args.parent} has no src/guidedflow")
    trees = {"change": ROOT} if args.parent is None else {"parent": args.parent, "change": ROOT}
    runs = {name: [] for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name in order:
            runs[name].append(run_tree(trees[name], args.cpu))
    names = list(runs["change"][0])
    block = {
        "what": "tools/percall.py: best of 5 timeit repeats per call in us (executor_step: the "
                "median tick of 3 potr episodes at delay 1); min/median/max over rounds; each "
                "tree in its own subprocess pinned to one CPU, order alternating by round",
        "rounds": args.rounds,
        "cpu": args.cpu,
        "python": platform.python_version(),
        "per_call_us": {tree: {n: spread([run[n] for run in rs]) for n in names}
                        for tree, rs in runs.items()},
    }
    if args.parent is not None:
        block["ratio_change_over_parent_median"] = {
            n: round(statistics.median(c[n] / p[n] for p, c in zip(runs["parent"], runs["change"])), 3)
            for n in names
        }
    text = json.dumps({"per_call": block}, indent=1)
    if args.out is not None:
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
