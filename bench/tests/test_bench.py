"""Tests of the benchmark itself: tracer hygiene, span arithmetic, smoke runs.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from checks import Ledger, check_summary  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

gf, _ = run.import_package(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def wrapped_attributes():
    """(owner, attribute name, current object) for every tracer target that exists."""
    out = []
    for module, owner, attr, _ in tracer_mod.SPAN_TARGETS + tracer_mod.COUNT_TARGETS:
        obj = getattr(gf, module)
        if owner is not None:
            obj = getattr(obj, owner)
        current = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
        if current is not None:
            out.append((obj, attr, current))
    return out


def tiny_workload(name, tmp_path):
    workload = WORKLOADS[name](gf, 0, SIZES["tiny"], tmp_path, Ledger())
    workload.setup()
    return workload


def test_traced_pass_restores_every_wrapped_attribute(tmp_path):
    before = wrapped_attributes()
    tr = tracer_mod.Tracer(gf)
    tr.install()
    try:
        assert all(getattr(obj, attr) is not original for obj, attr, original in before)
        tiny_workload("control-loop", tmp_path).run_pass()
    finally:
        tr.uninstall()
    after = wrapped_attributes()
    assert len(after) == len(before)
    for (obj, attr, original), (_, _, restored) in zip(before, after):
        assert restored is original, f"{obj.__name__}.{attr} was not restored"


def test_untraced_run_installs_no_wrappers(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("the untraced run installed wrappers")

    monkeypatch.setattr(tracer_mod.Tracer, "install", refuse)
    before = wrapped_attributes()
    args = ["--workload", "control-loop", "--seed", "0", "--seconds", "0", "--trace", "0",
            "--size", "tiny"]
    assert run.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert [a[2] for a in wrapped_attributes()] == [a[2] for a in before]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_span_self_times_partition_parent_time(name, tmp_path):
    workload = tiny_workload(name, tmp_path)
    tr = tracer_mod.Tracer(gf)
    tr.install()
    try:
        workload.run_pass()
    finally:
        tr.uninstall()
    cols = tr.columns()
    assert cols["dur"].size > 0
    assert (cols["self"] >= 0).all()
    children = cols["parent"] >= 0
    child_self = {}
    for parent, self_ns in zip(cols["parent"][children], cols["self"][children]):
        child_self[parent] = child_self.get(parent, 0) + int(self_ns)
    for parent, total in child_self.items():
        assert total <= cols["dur"][parent]
    # Self times split the top-level spans' time exactly.
    assert int(cols["self"].sum()) == int(cols["dur"][~children].sum())


MS = 1_000_000  # ns


def gate_with_probes(slow):
    """A gate whose probes end every 5 ms from 5 ms on; ``slow`` marks the slow ones."""
    from gate import HostGate

    gate = HostGate()
    for k, is_slow in enumerate(slow):
        gate.stamps.append(5 * MS * (k + 1))
        gate.probes.append(9000 if is_slow else 4000)
    return gate


def test_gate_judges_a_sample_by_the_probes_around_its_start(monkeypatch):
    import gate as gate_mod

    monkeypatch.setattr(gate_mod, "MIN_CLEAN", 1)
    # probes end at 5, 10, ..., 60 ms; the one ending at 30 ms ran slow
    gate = gate_with_probes([k == 5 for k in range(12)])
    # The median sample lasts 2 ms: each is judged by the probe before its
    # start and the first one after start + 2 ms.  A sample starting at 26 ms
    # is dropped; one starting at 41 ms is kept whole, less the probes ending
    # in it (at 45, 50 and 55 ms), and so is one whose slow probe comes late.
    spans = [(1 * MS, 3 * MS), (26 * MS, 28 * MS), (41 * MS, 59 * MS), (16 * MS, 18 * MS),
             (11 * MS, 13 * MS), (19 * MS, 32 * MS)]
    assert gate.quiet(spans).tolist() == [
        2.0 * MS, 18.0 * MS - 3 * 4000, 2.0 * MS, 2.0 * MS, 13.0 * MS - 2 * 4000 - 9000]


def test_gate_keeps_short_and_long_samples_at_the_same_rate():
    rng = np.random.default_rng(0)
    gate = gate_with_probes(rng.random(4000) < 0.6)  # 20 s of probes, 60% slow at random
    starts = np.sort(rng.integers(0, 19_000 * MS, 5000))
    long = rng.permutation(np.arange(5000) % 2 == 1)
    lengths = np.where(long, 20 * MS, 2 * MS)
    _, keep = gate.kept(np.stack([starts, starts + lengths], axis=1))
    assert 0 < keep.sum() < len(starts)
    assert abs(keep[long].mean() - keep[~long].mean()) < 0.05
    # Swapping which samples are long leaves every keep decision as it was.
    swapped = np.where(long, 2 * MS, 20 * MS)
    assert np.array_equal(gate.kept(np.stack([starts, starts + swapped], axis=1))[1], keep)


def test_otr_clip_fraction_counts_changed_projections():
    tr = tracer_mod.Tracer(gf)
    tr.install()
    try:
        v = np.array([[1.0, 0.0]])
        gf.guidance.otr_project(np.array([[0.5, 0.1]]), v, 2.0)   # inside the region
        gf.guidance.otr_project(np.array([[0.5, 10.0]]), v, 2.0)  # clipped
    finally:
        tr.uninstall()
    assert tr.summary()["guidance.otr"]["calls"] == 2
    assert tr.otr_changed == 1


def test_summary_oracle_flags_a_perturbed_number():
    workload = WORKLOADS["summarize-rows"](gf, 3, SIZES["tiny"], None, Ledger())
    rows = workload.make_rows(workload.draw_columns(3, 4))
    weights = {"bimodal": 9, "unimodal": 1}
    summary = gf.harness.summarize(rows, weights)
    ledger = Ledger()
    check_summary(summary, rows, weights, ledger, "exact")
    assert ledger.failed == 0 and ledger.attempted > 0
    summary["per_delay"]["potr"]["3"]["l2_max"] *= 1 + 1e-9
    ledger = Ledger()
    check_summary(summary, rows, weights, ledger, "perturbed")
    assert ledger.failed == 1


def bench_cmd(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_prints_every_metric(name):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench_cmd(name, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        names = [m["name"] for m in SPEC[key]]
        assert list(result["metrics"]) == names
        for metric in SPEC[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert len(SPEC["end_to_end"]) == 10


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench_cmd("summarize-rows", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
