"""guidedflow benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload control-loop --seed 0 --seconds 40 --trace 0

Builds the workload's inputs from ``--seed``, sets it up, then runs measured
passes until ``--seconds`` have elapsed and checks the outputs.  After every
pass, set-up is repeated for about 5% of the pass's time (at least once, and
30 times in all) and ``setup_s`` is the median over the set-ups the
host-speed gate keeps.  The
last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate and the metrics are the
per-layer ones, from the spans of the traced passes.  The line before it
holds the run's provenance, which is also written, with every pass's wall and
CPU time, to ``.bench_results/`` in the checkout.

The package is imported from ``src/`` of the checkout this file sits in; a
directory without those sources is an error (exit code 1, no result).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".bench_results"
MIN_SETUPS = 30
SETUP_SHARE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "tick_p50_us": "us",
    "tick_p99_us": "us",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_rate": "frac",
    "potr_l2_mean": "1",
    "potr_max_jerk": "1",
    "potr_success": "frac",
}

PER_LAYER_UNITS = {
    "flow.velocity.calls": "count",
    "flow.velocity.us_per_call": "us",
    "flow.vjp.calls": "count",
    "flow.vjp.us_per_call": "us",
    "flow.as_chunk.calls": "count",
    "guidance.denoise.calls": "count",
    "guidance.denoise.us_per_call": "us",
    "guidance.denoise.self_us_per_call": "us",
    "guidance.correction.us_per_call": "us",
    "guidance.otr.calls": "count",
    "guidance.otr.us_per_call": "us",
    "guidance.otr.clip_frac": "frac",
    "envs.conditional_field.calls": "count",
    "envs.conditional_field.us_per_call": "us",
    "envs.field_cache.hit_frac": "frac",
    "envs.env_step.us_per_call": "us",
    "chunking.step.calls": "count",
    "chunking.step.self_us_per_call": "us",
    "chunking.regen_per_episode": "count",
    "chunking.overruns": "count",
    "metrics.episode_metrics.us_per_call": "us",
    "harness.summarize.s": "s",
    "harness.write_rows.s": "s",
    "harness.read_rows.s": "s",
    "trace.overhead_frac": "frac",
}


def import_package(root: Path):
    """Import guidedflow from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "guidedflow" / "__init__.py").is_file():
        raise SystemExit(f"bench: no guidedflow sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import guidedflow

    import_s = time.perf_counter() - t0
    if Path(guidedflow.__file__).resolve().parent != (src / "guidedflow").resolve():
        raise SystemExit(f"bench: guidedflow was imported from {guidedflow.__file__}, not {src}")
    return guidedflow, import_s


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without starting a process."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed(fn) -> tuple[int, int]:
    """Run ``fn``; returns its (start, end) in ns."""
    t0 = time.perf_counter_ns()
    fn()
    return t0, time.perf_counter_ns()


def measured_pass(workload, tracer, ledger, timings: list):
    """One pass, traced or not; a raised error fails the pass and is recorded."""
    cpu = workload.gate.pin_fastest_cpu()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    first_probe = len(workload.gate.probes)
    record = None
    if tracer is not None:
        tracer.install()
    try:
        record = workload.run_pass()
    except Exception as err:  # the run goes on, so the failure is counted and reported
        traceback.print_exc()
        ledger.check(False, f"{workload.name}: pass raised {err!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    timings.append({
        "traced": tracer is not None,
        "cpu": cpu,
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "work_s": record["work_s"] if record else None,
        "probes": (first_probe, len(workload.gate.probes)),
    })
    return record


def per_layer(tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics from the spans of the traced passes (counts are per pass)."""
    stats = tracer.summary()
    passes = len(traced)
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "by_parent": {}}

    def stat(name):
        return stats.get(name, empty)

    def calls(name):
        return stat(name)["calls"] / passes

    def per_call(name, key="total_ns", scale=1e-3):
        s = stat(name)
        return s[key] * scale / s["calls"] if s["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    field_params = tracer.counts.get("envs.field_params", 0)
    resets = stat("chunking.reset")["calls"]
    overhead = np.median([p["work_s"] for p in traced]) / np.median([p["work_s"] for p in untraced])
    return {
        "flow.velocity.calls": calls("flow.velocity"),
        "flow.velocity.us_per_call": per_call("flow.velocity"),
        "flow.vjp.calls": calls("flow.vjp"),
        "flow.vjp.us_per_call": per_call("flow.vjp"),
        "flow.as_chunk.calls": tracer.counts.get("flow.as_chunk", 0) / passes,
        "guidance.denoise.calls": calls("guidance.denoise"),
        "guidance.denoise.us_per_call": per_call("guidance.denoise"),
        "guidance.denoise.self_us_per_call": per_call("guidance.denoise", "self_ns"),
        "guidance.correction.us_per_call": per_call("guidance.correction"),
        "guidance.otr.calls": calls("guidance.otr"),
        "guidance.otr.us_per_call": per_call("guidance.otr"),
        "guidance.otr.clip_frac": ratio(tracer.otr_changed, stat("guidance.otr")["calls"]),
        "envs.conditional_field.calls": calls("envs.conditional_field"),
        "envs.conditional_field.us_per_call": per_call("envs.conditional_field"),
        "envs.field_cache.hit_frac": ratio(
            field_params - stat("envs.conditional_field")["calls"], field_params),
        "envs.env_step.us_per_call": per_call("envs.env_step"),
        "chunking.step.calls": calls("chunking.step"),
        "chunking.step.self_us_per_call": per_call("chunking.step", "self_ns"),
        "chunking.regen_per_episode": ratio(
            stat("guidance.denoise")["by_parent"].get("chunking.step", 0), resets),
        "chunking.overruns": sum(p["overruns"] for p in traced) / passes,
        "metrics.episode_metrics.us_per_call": per_call("metrics.episode_metrics"),
        "harness.summarize.s": per_call("harness.summarize", scale=1e-9),
        "harness.write_rows.s": per_call("harness.write_rows", scale=1e-9),
        "harness.read_rows.s": per_call("harness.read_rows", scale=1e-9),
        "trace.overhead_frac": float(overhead - 1.0),
    }


def parse_args(argv):
    from workloads import SIZES, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    gf, import_s = import_package(ROOT)
    args = parse_args(argv)
    from checks import Ledger
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR))
    try:
        ledger = Ledger()
        workload = WORKLOADS[args.workload](gf, args.seed, SIZES[args.size], workdir, ledger)
        tracer = Tracer(gf) if args.trace else None
        untraced, traced, timings, setup_spans = [], [], [], []
        deadline = time.perf_counter() + args.seconds
        with workload.gate.running():
            workload.gate.pin_fastest_cpu()
            setup_spans.append(timed(workload.setup))
            while True:
                started = time.perf_counter()
                record = measured_pass(workload, None, ledger, timings)
                if record:
                    untraced.append(record)
                if tracer is not None:
                    record = measured_pass(workload, tracer, ledger, timings)
                    if record:
                        traced.append(record)
                # Set-up repeats between passes, for about SETUP_SHARE of the
                # pass's time, so its samples span the run as the passes do.
                workload.gate.pin_fastest_cpu()
                until = time.perf_counter() + SETUP_SHARE * (time.perf_counter() - started)
                setup_spans.append(timed(workload.setup))
                while time.perf_counter() < until:
                    setup_spans.append(timed(workload.setup))
                now = time.perf_counter()
                if now + (now - started) > deadline:
                    break
            workload.gate.pin_fastest_cpu()
            while len(setup_spans) < MIN_SETUPS:
                setup_spans.append(timed(workload.setup))
        if not untraced or (tracer is not None and not traced):
            print("bench: no pass completed", file=sys.stderr)
            return 1
        try:
            workload.final_checks()
        except Exception as err:  # a raised error is a failed check, reported with the result
            traceback.print_exc()
            ledger.check(False, f"{workload.name}: final checks raised {err!r}")

        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer is not None:
            values = per_layer(tracer, traced, untraced)
            units = PER_LAYER_UNITS
            tracer.save(RESULTS_DIR / f"{stem}-spans.npz")
        else:
            values = {
                "setup_s": float(np.median(workload.gate.quiet(setup_spans))) * 1e-9,
                **workload.end_to_end(untraced),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_rate": 1.0 - ledger.failed / ledger.attempted,
            }
            units = END_TO_END_UNITS
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()},
        }
        provenance = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": {"name": args.size, **SIZES[args.size]},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_sha": git_sha(ROOT),
            "import_s": import_s,
            "setup_s": [(b - a) * 1e-9 for a, b in setup_spans],
            "host": workload.gate.summary(),
            "passes": [{**t, "probes": workload.gate.summary(*t["probes"])} for t in timings],
            "failures": ledger.notes,
        }
        (RESULTS_DIR / f"{stem}.json").write_text(
            json.dumps({"provenance": provenance, "result": result}, indent=1) + "\n")
        print(json.dumps({"provenance": provenance}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
