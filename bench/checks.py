"""Output checks: a failure ledger and an independent oracle for ``summarize``.

The oracle recomputes the per-method, per-delay and worst-case numbers of
``guidedflow.harness.summarize`` by its own single group-by over
(method, suite, delay), using only the documented aggregation rules: delay-0
rows are excluded, ``env_steps`` averages successful episodes only, per-suite
values are means over delays of per-delay cell means, and suites combine by
their episode weights (means) or by their maximum (worst case).
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict

METRICS = ("success", "env_steps", "l2_mean", "l2_max", "max_acc", "max_jerk")
SMOOTHNESS = METRICS[2:]
SUMMARY_RTOL = 1e-12


class Ledger:
    """Counts attempted and failed operations; keeps the first failure notes."""

    MAX_NOTES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(what)
                print(f"bench: check failed: {what}", file=sys.stderr)
        return ok


def _mean(values) -> float:
    return math.fsum(values) / len(values) if values else math.nan


def _cell(rows) -> dict:
    return {
        "success": _mean([1.0 if r.success else 0.0 for r in rows]),
        "env_steps": _mean([float(r.env_steps) for r in rows if r.success]),
        **{m: _mean([getattr(r, m) for r in rows]) for m in SMOOTHNESS},
    }


def _weighted(pairs):
    if not pairs:
        return None
    return math.fsum(w * v for w, v in pairs) / math.fsum(w for w, _ in pairs)


def expected_summary(rows, weights: dict) -> dict:
    """{(block, method, [delay,] metric): value or None} for every summarized number."""
    groups = defaultdict(list)
    for r in rows:
        groups[(r.method, r.suite, r.delay)].append(r)
    methods = sorted({r.method for r in rows})
    suites = sorted({r.suite for r in rows})
    delays = sorted({r.delay for r in rows if r.delay != 0})
    cells = {key: _cell(group) for key, group in groups.items()}
    out = {}
    for m in methods:
        per_suite = {}
        for s in suites:
            per_suite[s] = {}
            for metric in METRICS:
                vals = [cells[(m, s, d)][metric] for d in delays if (m, s, d) in cells]
                per_suite[s][metric] = _mean([v for v in vals if not math.isnan(v)])
        for metric in METRICS:
            pairs = [(weights[s], per_suite[s][metric]) for s in suites
                     if not math.isnan(per_suite[s][metric])]
            out[("methods", m, metric)] = _weighted(pairs)
        for metric in SMOOTHNESS:
            vals = [per_suite[s][metric] for s in suites if not math.isnan(per_suite[s][metric])]
            out[("worst_case", m, f"worst_{metric}")] = max(vals) if vals else None
        for d in delays:
            for metric in METRICS:
                pairs = [(weights[s], cells[(m, s, d)][metric]) for s in suites
                         if (m, s, d) in cells and not math.isnan(cells[(m, s, d)][metric])]
                out[("per_delay", m, str(d), metric)] = _weighted(pairs)
    return out


def _lookup(summary: dict, key: tuple):
    node = summary
    for part in key:
        node = node[part]
    return node


def _agree(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= SUMMARY_RTOL * max(1.0, abs(got), abs(want))


def check_summary(summary: dict, rows, weights: dict, ledger: Ledger, label: str) -> None:
    """One ledger entry: every summarized number agrees with the oracle to 1e-12."""
    wrong = []
    for key, want in expected_summary(rows, weights).items():
        try:
            got = _lookup(summary, key)
        except (KeyError, TypeError):
            wrong.append(f"{'/'.join(key)} missing")
            continue
        if not _agree(got, want):
            wrong.append(f"{'/'.join(key)} = {got!r}, oracle {want!r}")
    ledger.check(not wrong, f"{label}: {len(wrong)} numbers differ from the oracle: {wrong[:3]}")
