"""Run-to-run spread of the end-to-end metrics, as the acceptance check computes it.

    python3 bench/spread.py

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed 0..9, one
run at a time, with BENCHMARK.json's ``run_seconds``.  For each end-to-end
metric it prints the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  Exits 1 if a run fails, is not correct,
or a spread exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = 10


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable if c == "python3" else c for c in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(SEEDS):
            result = run_once(spec, workload, seed, spec["run_seconds"])
            ok &= result["correct"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        print(f"== {workload} ({SEEDS} seeds)")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            flag = "" if spread <= metric["bound"] else "  OVER BOUND"
            ok &= not flag
            print(f"  {metric['name']:16s} median {median:14.6g}  spread {spread:7.4f}"
                  f"  bound {metric['bound']:g}{flag}")
        print("   raw:", json.dumps(values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
